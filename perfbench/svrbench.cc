/**
 * @file
 * svrbench — the benchmark's measuring process. perfbench/run.py
 * drives it; every phase prints one JSON object of raw measurements on
 * stdout and run.py turns them into the benchmark's metrics.
 *
 * Phases (all take --suite --configs --window [--sampled] --seed
 * [--builtin]; --builtin 1 prepares the suite with the built-in inputs,
 * exactly as svrsim_sweep does, instead of generating them from --seed):
 *   setup   graph generation and suite construction, timed, and nothing
 *           else (run.py starts several to take a median)
 *   matrix  repetitions of the in-process matrix (runMatrix, 1 job),
 *           at least one and until --seconds have passed; optional
 *           artifact (--out) and sampled-vs-full CPI errors (--reference)
 *   reference  full-detail CPIs of the matrix, written to --out
 *   trace   the per-layer pass: an untraced matrix, the same cells
 *           through the traced machine (traced_machine.hh), probe cells
 *           for machine labels the workload lacks, and the executor /
 *           memory-replay / graph-generation probes
 *   calibrate  the median of five host-speed calibrations
 *   check   smoke self-checks: seed 0 reproduces the built-in graphs
 *
 * The setup and matrix phases also time the calibration kernel
 * (calibrate.hh) around what they time: before and after the setup, and
 * after every row of the matrix, so that run.py can state each host
 * time at the reference host speed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suites.hh"
#include "calibrate.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "traced_machine.hh"
#include "workloads/suites.hh"

using namespace svr;
using namespace svrbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Machine labels every traced run times (core.timing.*). */
const char *const allMachines[] = {"ino", "imp", "ooo", "svr16", "svr64"};

struct Args
{
    std::string phase;
    std::string suite;
    std::string configs;
    std::uint64_t window = 0;
    bool sampled = false;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool builtin = false; //!< built-in inputs, as svrsim_sweep has them
    unsigned subset = 0; //!< smoke: keep this many workloads (0 = all)
    std::string out;
    std::string reference;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--phase")
            a.phase = v;
        else if (arg == "--suite")
            a.suite = v;
        else if (arg == "--configs")
            a.configs = v;
        else if (arg == "--window")
            a.window = std::stoull(v);
        else if (arg == "--sampled")
            a.sampled = v == "1";
        else if (arg == "--seed")
            a.seed = std::stoull(v);
        else if (arg == "--seconds")
            a.seconds = std::stod(v);
        else if (arg == "--builtin")
            a.builtin = v == "1";
        else if (arg == "--subset")
            a.subset = static_cast<unsigned>(std::stoul(v));
        else if (arg == "--out")
            a.out = v;
        else if (arg == "--reference")
            a.reference = v;
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    if (a.phase != "check" && a.phase != "calibrate" &&
        (a.suite.empty() || a.configs.empty() || a.window == 0))
        throw std::runtime_error(
            "need --phase --suite --configs --window");
    return a;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

/**
 * The sampling rule for a region: four periods, a measured window of
 * 1/50 of a period after a detailed warmup of 1/100. At the 4M region
 * of graph-sampled-sharded this is BENCH_sampling.json's 20k window
 * and 10k warmup every 1M instructions.
 */
SamplingParams
samplingFor(std::uint64_t region)
{
    SamplingParams sp;
    sp.sampleEvery = region / 4;
    sp.sampleWindow = sp.sampleEvery / 50;
    sp.warmup = sp.sampleEvery / 100;
    return sp;
}

std::vector<SimConfig>
makeConfigs(const std::vector<std::string> &names, std::uint64_t window,
            bool sampled)
{
    std::vector<SimConfig> configs;
    for (const std::string &name : names) {
        SimConfig c = presets::byName(name);
        c.maxInstructions = window;
        if (sampled)
            c.sampling = samplingFor(window);
        configs.push_back(c);
    }
    return configs;
}

/** Every suite's workloads, thinned to @p keep evenly spaced ones. */
std::vector<WorkloadSpec>
thin(std::vector<WorkloadSpec> specs, unsigned keep)
{
    if (keep == 0 || keep >= specs.size())
        return specs;
    std::vector<WorkloadSpec> out;
    for (unsigned i = 0; i < keep; i++)
        out.push_back(specs[i * specs.size() / keep]);
    return out;
}

/** The prepared inputs of one workload. */
struct Prepared
{
    std::vector<WorkloadSpec> specs;
    std::vector<SimConfig> configs;
    double setupSeconds = 0.0;
    double graphGenSeconds = 0.0;
};

/**
 * Graph generation and suite construction. A seeded workload builds
 * its own inputs from --seed; with --builtin the suite is prepared the
 * way svrsim_sweep does it (built-in inputs from getGraphInput's
 * cache), so its artifact can be compared with the sharded sweep's.
 */
Prepared
prepare(const Args &a, bool tool_path)
{
    Prepared p;
    const auto t0 = Clock::now();
    const std::vector<std::string> inputs = graphInputsOf(a.suite);
    if (tool_path) {
        for (const std::string &name : inputs)
            getGraphInput(name);
        p.graphGenSeconds = secondsSince(t0);
        p.specs = suiteByName(a.suite);
    } else {
        const GraphSet graphs = generateGraphs(inputs, a.seed);
        p.graphGenSeconds = secondsSince(t0);
        p.specs = seededSuite(a.suite, graphs);
    }
    p.specs = thin(std::move(p.specs), a.subset);
    // Suite construction includes building (and so linting) each
    // workload's program once; the instances themselves are discarded.
    for (const WorkloadSpec &spec : p.specs)
        spec.make();
    p.configs = makeConfigs(splitList(a.configs), a.window, a.sampled);
    p.setupSeconds = secondsSince(t0);
    return p;
}

MatrixOptions
serialOptions()
{
    MatrixOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.summary = false;
    opts.keepGoing = true;
    return opts;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
digestOf(const std::vector<SimResult> &results)
{
    return hex(Rng::hashName(toJson(results)));
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Minimal JSON object writer (keys are plain identifiers). */
class JsonOut
{
  public:
    JsonOut &
    field(const std::string &key, double v)
    {
        return raw(key, std::isfinite(v) ? num(v) : "null");
    }
    JsonOut &
    field(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    JsonOut &
    list(const std::string &key, const std::vector<double> &vs)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < vs.size(); i++)
            s += (i ? "," : "") + num(vs[i]);
        return raw(key, s + "]");
    }
    JsonOut &
    raw(const std::string &key, const std::string &v)
    {
        body += (body.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
        return *this;
    }
    std::string str() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Harmonic mean over workloads of IPC(SVR16) / IPC(InO). */
double
svr16Speedup(const std::vector<SimResult> &results)
{
    std::map<std::string, double> ino;
    std::map<std::string, double> svr16;
    for (const SimResult &r : results) {
        if (r.config == "InO")
            ino[r.workload] = r.ipc();
        else if (r.config == "SVR16")
            svr16[r.workload] = r.ipc();
    }
    std::vector<double> ratios;
    for (const auto &[w, ipc] : ino) {
        const auto it = svr16.find(w);
        if (it != svr16.end() && ipc > 0.0)
            ratios.push_back(it->second / ipc);
    }
    return ratios.empty() ? 0.0 : harmonicMean(ratios);
}

/** Cells whose instruction count is not the one asked for. */
double
invalidCells(const std::vector<SimResult> &results, std::uint64_t window)
{
    double bad = 0;
    for (const SimResult &r : results) {
        if (!r.failed && (r.core.instructions != window || r.core.cycles == 0))
            bad++;
    }
    return bad;
}

double
failedCells(const std::vector<SimResult> &results)
{
    return static_cast<double>(std::count_if(
        results.begin(), results.end(),
        [](const SimResult &r) { return r.failed; }));
}

/** Detailed (warmup + measured) instructions over the region. */
double
detailShare(const std::vector<SimResult> &sampled,
            const SamplingParams &sp)
{
    double detail = 0;
    double region = 0;
    for (const SimResult &r : sampled) {
        detail += static_cast<double>(r.measuredInstructions +
                                      r.sampleWindows * sp.warmup);
        region += static_cast<double>(r.core.instructions);
    }
    return region > 0 ? detail / region : 0.0;
}

/** |sampled - full| / full CPI for every cell present in both. */
std::vector<double>
cpiErrors(const std::vector<SimResult> &sampled,
          const std::map<std::string, double> &full_cpi)
{
    std::vector<double> errs;
    for (const SimResult &r : sampled) {
        const auto it = full_cpi.find(r.workload + " " + r.config);
        if (it != full_cpi.end() && it->second > 0)
            errs.push_back(std::fabs(r.cpi() - it->second) / it->second);
    }
    return errs;
}

std::map<std::string, double>
cpiByCell(const std::vector<SimResult> &results)
{
    std::map<std::string, double> m;
    for (const SimResult &r : results)
        m[r.workload + " " + r.config] = r.cpi();
    return m;
}

std::vector<SimConfig>
withoutSampling(std::vector<SimConfig> configs, std::uint64_t window)
{
    for (SimConfig &c : configs) {
        c.sampling = {};
        c.maxInstructions = window;
    }
    return configs;
}

int
phaseSetup(const Args &a)
{
    const double before = calibrationMs();
    const Prepared p = prepare(a, a.builtin);
    JsonOut j;
    j.field("setup_s", p.setupSeconds)
        .field("setup_cal_ms", (before + calibrationMs()) / 2);
    std::printf("%s\n", j.str().c_str());
    return 0;
}

int
phaseCalibrate()
{
    std::vector<double> t;
    for (int i = 0; i < 5; i++)
        t.push_back(calibrationMs());
    std::sort(t.begin(), t.end());
    JsonOut j;
    j.field("cal_ms", t[2]);
    std::printf("%s\n", j.str().c_str());
    return 0;
}

/**
 * Full-detail CPI of every cell, written to --out. run.py names the
 * file after the simulator binaries' hash, the input seed and the
 * workload parameters, so a reference is never reused across builds
 * or inputs, and computes it once, outside any timed work.
 */
int
phaseReference(const Args &a)
{
    const Prepared p = prepare(a, true);
    MatrixOptions opts = serialOptions();
    opts.jobs = 3;
    const std::vector<SimResult> full = flattenMatrix(runMatrix(
        p.specs, withoutSampling(p.configs, a.window), opts));
    if (failedCells(full) > 0)
        throw std::runtime_error("full-detail reference cell failed");
    const std::string tmp = a.out + ".tmp";
    {
        std::ofstream os(tmp);
        for (const SimResult &r : full) {
            os << r.workload << " " << r.config << " " << num(r.cpi())
               << "\n";
        }
        if (!os)
            throw std::runtime_error("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), a.out.c_str()) != 0)
        throw std::runtime_error("cannot rename " + tmp);
    JsonOut j;
    j.field("cells", static_cast<double>(full.size()));
    std::printf("%s\n", j.str().c_str());
    return 0;
}

std::map<std::string, double>
readReference(const std::string &path)
{
    std::map<std::string, double> ref;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("no reference " + path);
    std::string w, c;
    double cpi = 0;
    while (in >> w >> c >> cpi)
        ref[w + " " + c] = cpi;
    return ref;
}

/**
 * Repetitions of the matrix, at least one and until --seconds have
 * passed. Each repetition runs the matrix a row (workload) at a time,
 * as runMatrix with 1 job would, and times the calibration kernel after
 * the setup and after every row: cal_ms has one entry more than
 * row_wall_s. With --builtin 1 the matrix is built as
 * `svrsim_sweep --jobs 1` builds it, its artifact (the first
 * repetition's) is written to --out, and with --reference its sampled
 * CPIs are compared with the full-detail ones.
 */
int
phaseMatrix(const Args &a)
{
    const double setup_cal = calibrationMs();
    const Prepared p = prepare(a, a.builtin);
    std::vector<double> cal{calibrationMs()};
    std::vector<double> row_wall, rep_instr, cell_ms, failed, invalid;
    std::string digests;
    std::vector<SimResult> first;
    const auto t0 = Clock::now();
    do {
        std::vector<MatrixRow> matrix;
        double instr = 0;
        for (const WorkloadSpec &spec : p.specs) {
            MatrixTiming timing;
            matrix.push_back(std::move(
                runMatrix({spec}, p.configs, serialOptions(), &timing)
                    .front()));
            cal.push_back(calibrationMs());
            row_wall.push_back(timing.wallSeconds);
            instr += static_cast<double>(timing.instructions);
            for (const CellTiming &t : matrix.back().timings)
                cell_ms.push_back(t.millis);
        }
        const std::vector<SimResult> results = flattenMatrix(matrix);
        rep_instr.push_back(instr);
        failed.push_back(failedCells(results));
        invalid.push_back(invalidCells(results, a.window));
        digests += (digests.empty() ? "\"" : ",\"") + digestOf(results) + "\"";
        if (first.empty())
            first = results;
    } while (secondsSince(t0) < a.seconds);

    if (!a.out.empty()) {
        std::ofstream os(a.out, std::ios::binary);
        os << toJson(first);
        if (!os)
            throw std::runtime_error("cannot write " + a.out);
    }
    const std::map<std::string, double> ref =
        a.reference.empty() ? std::map<std::string, double>{}
                            : readReference(a.reference);

    JsonOut j;
    j.field("setup_s", p.setupSeconds)
        .field("setup_cal_ms", (setup_cal + cal.front()) / 2)
        .list("cal_ms", cal)
        .field("cells_per_rep", static_cast<double>(first.size()))
        .list("row_wall_s", row_wall)
        .list("rep_instructions", rep_instr)
        .list("rep_failed", failed)
        .list("rep_invalid", invalid)
        .raw("rep_digests", "[" + digests + "]")
        .list("cell_ms", cell_ms)
        .field("svr16_speedup", svr16Speedup(first))
        .list("cpi_err", cpiErrors(first, ref))
        .field("detail_share",
               a.sampled ? detailShare(first, samplingFor(a.window)) : 0.0);
    std::printf("%s\n", j.str().c_str());
    return 0;
}

/** Per-layer sums over the traced cells. */
struct Layers
{
    Span make, svr, imp, svrRun;
    std::map<std::string, Span> timing; //!< run minus proxies, by label
    std::map<std::string, double> instrs;
    double svrInstr = 0, svrRounds = 0, svrPrefetches = 0;
    double svrUsed = 0, svrUnused = 0;
    double impInstr = 0, impPrefetches = 0, impUsed = 0, impUnused = 0;

    void
    add(const TracedCell &c)
    {
        const SimResult &r = c.result;
        const double instr = static_cast<double>(r.core.instructions);
        make += c.make;
        timing[r.config] += {c.run.ns - c.proxied.ns, c.run.calls};
        instrs[r.config] += instr;
        if (r.config.rfind("SVR", 0) == 0) {
            svr += c.proxied;
            svrRun += c.run;
            svrInstr += instr;
            svrRounds += static_cast<double>(r.core.svrRounds);
            svrPrefetches += static_cast<double>(
                r.prefIssued[static_cast<unsigned>(PrefetchOrigin::Svr)]);
            svrUsed += static_cast<double>(c.llcUsed);
            svrUnused += static_cast<double>(c.llcUnused);
        } else if (r.config == "IMP") {
            imp += c.proxied;
            impInstr += instr;
            impPrefetches += static_cast<double>(
                r.prefIssued[static_cast<unsigned>(PrefetchOrigin::Imp)]);
            impUsed += static_cast<double>(c.llcUsed);
            impUnused += static_cast<double>(c.llcUnused);
        }
    }
};

double
perCall(const Span &s)
{
    return s.calls ? s.ns / static_cast<double>(s.calls) : 0.0;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** The repository's convention: accuracy is 1 when nothing was used. */
double
accuracy(double used, double unused)
{
    return used + unused > 0 ? used / (used + unused) : 1.0;
}

int
phaseTrace(const Args &a)
{
    const Prepared p = prepare(a, a.builtin);
    // A sampled workload's cells are traced at full detail over as
    // many instructions as its sampled cells simulate in detail.
    const SamplingParams sp = samplingFor(a.window);
    const std::uint64_t trace_window =
        a.sampled ? (sp.sampleWindow + sp.warmup) * 4 : a.window;
    const std::vector<SimConfig> configs =
        withoutSampling(p.configs, trace_window);

    // Untraced pass, then the same cells through the traced machine.
    MatrixTiming untraced;
    const std::vector<SimResult> plain = flattenMatrix(
        runMatrix(p.specs, configs, serialOptions(), &untraced));

    Layers layers;
    std::vector<SimResult> traced;
    double mem_instr = 0, l1d = 0, l2 = 0, dram = 0, walks = 0;
    const auto t_traced = Clock::now();
    for (const WorkloadSpec &spec : p.specs) {
        for (const SimConfig &config : configs) {
            TracedCell c = runTracedCell(spec, config);
            layers.add(c);
            const SimResult &r = c.result;
            mem_instr += static_cast<double>(r.core.instructions);
            l1d += static_cast<double>(r.l1dMisses);
            l2 += static_cast<double>(r.l2Misses);
            dram += static_cast<double>(r.dramTransfers);
            walks += static_cast<double>(r.tlbWalks);
            traced.push_back(std::move(c.result));
        }
    }
    const double traced_wall = secondsSince(t_traced);

    // Probe cells: machine labels this workload's matrix lacks, so
    // every core.timing label is measured on every workload.
    std::vector<std::string> probe_names;
    for (const char *name : allMachines) {
        const SimConfig c = presets::byName(name);
        if (std::none_of(configs.begin(), configs.end(),
                         [&](const SimConfig &x) { return x.label == c.label; }))
            probe_names.push_back(name);
    }
    const std::vector<SimConfig> probes =
        makeConfigs(probe_names, trace_window, false);
    for (const WorkloadSpec &spec : p.specs) {
        for (const SimConfig &config : probes)
            layers.add(runTracedCell(spec, config));
    }

    // Functional executor and memory-system replay, once per workload
    // (both are independent of the machine configuration).
    Span exec, replay;
    for (const WorkloadSpec &spec : p.specs) {
        exec += probeExecutor(spec, a.window);
        replay += probeMemReplay(spec, trace_window, configs.front().mem);
    }

    // Graph generation: the workload's own setup where it has graph
    // inputs; otherwise a probe generating the full suite's inputs.
    double graph_gen = p.graphGenSeconds;
    if (graphInputsOf(a.suite).empty()) {
        const auto t0 = Clock::now();
        generateGraphs(graphInputsOf("full"), a.seed);
        graph_gen = secondsSince(t0);
    }

    const double kilo = mem_instr / 1000.0;
    JsonOut j;
    j.field("setup_s", p.setupSeconds)
        .field("untraced_digest", digestOf(plain))
        .field("traced_digest", digestOf(traced))
        .field("failed", failedCells(plain) + failedCells(traced))
        .field("cells", static_cast<double>(traced.size()))
        .field("untraced_wall_s", untraced.wallSeconds)
        .field("traced_wall_s", traced_wall)
        .field("workloads.make_ms", perCall(layers.make) / 1e6)
        .field("workloads.graph_gen_s", graph_gen)
        .field("core.executor.ns_per_instr",
               ratio(exec.ns, static_cast<double>(exec.calls)))
        .field("mem.replay_ns_per_access",
               ratio(replay.ns, static_cast<double>(replay.calls)))
        .field("mem.l1d_mpki", ratio(l1d, kilo))
        .field("mem.l2_mpki", ratio(l2, kilo))
        .field("mem.dram_pki", ratio(dram, kilo))
        .field("mem.tlb_walks_pki", ratio(walks, kilo))
        .field("svr.onissue_ns", perCall(layers.svr))
        .field("svr.self_share", ratio(layers.svr.ns, layers.svrRun.ns))
        .field("svr.rounds_pki",
               ratio(layers.svrRounds, layers.svrInstr / 1000.0))
        .field("svr.prefetches_pki",
               ratio(layers.svrPrefetches, layers.svrInstr / 1000.0))
        .field("svr.prefetch_accuracy",
               accuracy(layers.svrUsed, layers.svrUnused))
        .field("imp.observe_ns", perCall(layers.imp))
        .field("imp.prefetches_pki",
               ratio(layers.impPrefetches, layers.impInstr / 1000.0))
        .field("imp.prefetch_accuracy",
               accuracy(layers.impUsed, layers.impUnused));
    for (const auto &[label, span] : layers.timing) {
        j.field("core.timing.ns_per_instr." + label,
                ratio(span.ns, layers.instrs[label]));
    }
    std::printf("%s\n", j.str().c_str());
    return 0;
}

int
phaseCheck()
{
    const std::vector<std::string> names = graphInputsOf("full");
    const GraphSet ours = generateGraphs(names, 0);
    double mismatched = 0;
    for (const std::string &name : names) {
        const HostGraph &a = *ours.at(name);
        const HostGraph &b = *getGraphInput(name);
        if (a.numNodes != b.numNodes || a.offsets != b.offsets ||
            a.neighbors != b.neighbors)
            mismatched++;
    }
    JsonOut j;
    j.field("graphs", static_cast<double>(names.size()))
        .field("seed0_mismatched", mismatched);
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.phase == "setup")
            return phaseSetup(a);
        if (a.phase == "matrix")
            return phaseMatrix(a);
        if (a.phase == "trace")
            return phaseTrace(a);
        if (a.phase == "reference")
            return phaseReference(a);
        if (a.phase == "calibrate")
            return phaseCalibrate();
        if (a.phase == "check")
            return phaseCheck();
        throw std::runtime_error("unknown phase " + a.phase);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "svrbench: %s\n", e.what());
        return 1;
    }
}
