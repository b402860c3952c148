/**
 * @file
 * bench_report — standalone host-speed measurement. Runs every core
 * model over the camel kernel in round-robin blocks, each bracketed by
 * runs of the host-speed reference kernel (host_ref.hh), and writes the
 * per-core medians as BENCH_simspeed.json so sim-speed can be tracked
 * over time alongside the repo.
 *
 * Usage:
 *   bench_report [--quick] [--out PATH]
 *   bench_report --regress [--baseline PATH] [--threshold PCT] [--quick]
 *                [--out PATH]
 *
 *   --quick     small windows and 5 blocks instead of 31 (CI smoke)
 *   --out       output path (default: BENCH_simspeed.json)
 *   --regress   regression gate: re-measure the timing cores and exit
 *               nonzero if any core's host-normalised speed (the
 *               median over blocks of Msimips x host-reference ms, see
 *               host_ref.hh) fell more than the threshold (default
 *               15%) below the committed BENCH_simspeed.json's.
 *               Opt-in in CI (wall-clock measurements are
 *               load-sensitive): `ctest -C bench-regress`. With --out,
 *               the per-core comparison (raw and normalised,
 *               baseline/measured/delta) is also written as
 *               machine-readable JSON for CI dashboards.
 *   --baseline  baseline JSON for --regress (default:
 *               BENCH_simspeed.json next to the current directory)
 *   --threshold allowed normalised-speed drop in percent for
 *               --regress, in (0, 100)
 *
 * The committed artifact is regenerated with the SVR_BENCH_JSON
 * target: `cmake --build build --target SVR_BENCH_JSON`.
 */

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "host_ref.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/workload.hh"

using namespace svr;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    const std::chrono::duration<double> d = Clock::now() - t0;
    return d.count();
}

/** The camel kernel at a reduced size (it never stores). */
WorkloadInstance
benchWorkload()
{
    HpcDbSizes s;
    s.camelIndex = 1 << 18;
    s.camelTable = 1 << 19;
    return makeCamel(s);
}

struct CoreSpeed
{
    std::string label;
    double millis = 0.0;  //!< median timing-loop wall time
    double msimips = 0.0; //!< median simulated Minstructions per host second
    double norm = 0.0;    //!< median Msimips x host-reference ms
};

/** Iterations of one host-reference run: 10-15 ms on an x86-64 server. */
constexpr std::uint64_t hostRefIters = 4000000;

/** Wall time of one hostRefKernel() run, in ms. */
double
hostRefMillis()
{
    const auto t0 = Clock::now();
    // The kernel's own target is built without LTO, so this call is
    // opaque here and cannot be elided.
    hostRefKernel(hostRefIters);
    return secondsSince(t0) * 1e3;
}

/** Every timing core over one window, with the host's speed. */
struct CoreRun
{
    std::vector<CoreSpeed> cores;
    double hostRefMs = 0.0; //!< median host-reference ms of a block
};

/** The median of @p v (the mean of the middle two for an even count). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Round-robin blocks of the timing cores over @p w (31, or 5 under
 * @p quick), each a host-reference run, each core once, then another
 * host-reference run (which opens the next block). Each core's Msimips
 * is normalised by the mean of the two reference runs around its
 * block: Msimips x host-reference ms (thousands of simulated
 * instructions per reference run) cancels the host's speed. The
 * baseline and the --regress gate take the same per-core median over
 * blocks, so a burst of host load spoils a block or two, not the
 * estimate. 31 blocks span about 3 s: over 10 alternated runs each on
 * a shared 4-vCPU x86-64 VM, the median's CV per core was 2-3% with 31
 * blocks and 4-6% with 15.
 */
CoreRun
measureCores(const WorkloadInstance &w, std::uint64_t window, bool quick)
{
    const unsigned blocks = quick ? 5 : 31;
    std::vector<SimConfig> configs = {
        presets::inorder(), presets::impCore(), presets::outOfOrder(),
        presets::svrCore(16), presets::svrCore(64)};
    for (SimConfig &config : configs)
        config.maxInstructions = window;
    std::vector<double> refs;
    std::vector<std::vector<double>> millis(configs.size()),
        msimips(configs.size()), norm(configs.size());
    double before = hostRefMillis();
    for (unsigned b = 0; b < blocks; b++) {
        for (std::size_t c = 0; c < configs.size(); c++) {
            const SimResult res = simulate(configs[c], w);
            millis[c].push_back(res.hostMillis);
            msimips[c].push_back(res.hostMsimips());
        }
        const double after = hostRefMillis();
        refs.push_back((before + after) / 2.0);
        for (std::size_t c = 0; c < configs.size(); c++)
            norm[c].push_back(msimips[c].back() * refs.back());
        before = after;
    }
    CoreRun run;
    run.hostRefMs = median(refs);
    for (std::size_t c = 0; c < configs.size(); c++)
        run.cores.push_back({configs[c].label, median(millis[c]),
                             median(msimips[c]), median(norm[c])});
    return run;
}

/** printf-append onto a string (the JSON is built then written atomically). */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/** The schema of BENCH_simspeed.json that --regress can compare with. */
constexpr const char *simspeedSchema = "svrsim-bench-simspeed-v3";

/** The number after the first `"key": ` in @p text, or 0 if none. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t pos = text.find(tag);
    return pos == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + pos + tag.size(), nullptr);
}

/**
 * Pull the per-core {label, msimips, norm} rows out of a bench JSON.
 * This is a scanner over the exact format this tool writes (one core
 * object per line), not a general JSON parser — good enough to read
 * back our own committed artifact.
 */
std::vector<CoreSpeed>
parseBaselineCores(const std::string &text)
{
    std::vector<CoreSpeed> rows;
    const std::string tag = "{\"label\": \"";
    std::size_t pos = 0;
    while ((pos = text.find(tag, pos)) != std::string::npos) {
        pos += tag.size();
        const std::size_t end = text.find('"', pos);
        if (end == std::string::npos)
            break;
        const std::string row = text.substr(end, text.find('}', end) - end);
        rows.push_back({text.substr(pos, end - pos), 0.0,
                        jsonNumber(row, "msimips"), jsonNumber(row, "norm")});
        pos = end;
    }
    return rows;
}

/** One core's baseline-vs-fresh comparison (--regress). */
struct RegressRow
{
    std::string label;
    double baseline = 0.0;     //!< committed Msimips (0 = no baseline row)
    double measured = 0.0;     //!< fresh Msimips
    double baselineNorm = 0.0; //!< committed CoreSpeed::norm
    double measuredNorm = 0.0; //!< fresh CoreSpeed::norm
    double deltaPct = 0.0;     //!< normalised change, in percent
    double floor = 0.0;        //!< baselineNorm scaled by the threshold
    bool regressed = false;
};

/** 100 x (@p now - @p then) / @p then, or 0 without a baseline. */
double
deltaPct(double now, double then)
{
    return then > 0.0 ? 100.0 * (now - then) / then : 0.0;
}

/**
 * --regress mode: re-measure the timing cores and compare against the
 * committed baseline with the estimator that wrote it (measureCores()).
 * Exit 0 if every core's median Msimips x host-reference ms is within
 * @p threshold_pct of its baseline's, 1 on a regression, 2 on a bad
 * baseline (another schema, or no core rows). With
 * @p out_path, the comparison is also written as machine-readable
 * JSON (per-core raw and normalised figures) for CI dashboards.
 */
int
runRegressCheck(bool quick, const std::string &baseline_path,
                double threshold_pct, const std::string &out_path)
{
    const std::string text = readFile(baseline_path);
    if (text.find(std::string("\"schema\": \"") + simspeedSchema + "\"") ==
        std::string::npos) {
        std::fprintf(stderr,
                     "bench_report: %s is not %s: it has no per-core "
                     "medians to compare with (regenerate it)\n",
                     baseline_path.c_str(), simspeedSchema);
        return 2;
    }
    const std::vector<CoreSpeed> baseline = parseBaselineCores(text);
    if (baseline.empty()) {
        std::fprintf(stderr, "bench_report: no core rows in %s\n",
                     baseline_path.c_str());
        return 2;
    }
    const double base_ref = jsonNumber(text, "host_ref_ms");

    // Measure with the same window the baseline was measured with
    // (Msimips depends on the window: shorter windows amortize less
    // warmup).
    std::uint64_t window = 100000;
    if (const double w = jsonNumber(text, "window_instructions"); w > 0.0)
        window = static_cast<std::uint64_t>(w);
    const CoreRun run = measureCores(benchWorkload(), window, quick);
    std::fprintf(stderr, "  host reference %.3f ms  baseline %.3f ms\n",
                 run.hostRefMs, base_ref);

    std::vector<RegressRow> rows;
    bool failed = false;
    for (const CoreSpeed &fresh : run.cores) {
        const CoreSpeed *base = nullptr;
        for (const CoreSpeed &b : baseline) {
            if (b.label == fresh.label)
                base = &b;
        }
        RegressRow row;
        row.label = fresh.label;
        row.measured = fresh.msimips;
        row.measuredNorm = fresh.norm;
        if (!base) {
            // A core model missing from the committed file is stale
            // tooling, not a perf regression; flag but keep comparing.
            std::fprintf(stderr, "  %-8s %8.2f Msimips  (no baseline)\n",
                         fresh.label.c_str(), fresh.msimips);
            rows.push_back(std::move(row));
            continue;
        }
        row.baseline = base->msimips;
        row.baselineNorm = base->norm;
        row.floor = row.baselineNorm * (1.0 - threshold_pct / 100.0);
        row.deltaPct = deltaPct(row.measuredNorm, row.baselineNorm);
        row.regressed = row.measuredNorm < row.floor;
        failed = failed || row.regressed;
        std::fprintf(stderr,
                     "  %-8s %8.2f Msimips  baseline %8.2f (%+6.1f%%)  "
                     "normalised %8.2f  baseline %8.2f  floor %8.2f "
                     "(%+6.1f%%)  %s\n",
                     row.label.c_str(), row.measured, row.baseline,
                     deltaPct(row.measured, row.baseline), row.measuredNorm,
                     row.baselineNorm, row.floor, row.deltaPct,
                     row.regressed ? "REGRESSED" : "ok");
        rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "bench_report: regression check %s "
                 "(threshold %.0f%%, baseline %s)\n",
                 failed ? "FAILED" : "passed", threshold_pct,
                 baseline_path.c_str());

    if (!out_path.empty()) {
        std::string json;
        appendf(json, "{\n");
        appendf(json, "  \"schema\": \"svrsim-bench-regress-v3\",\n");
        appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
        appendf(json, "  \"threshold_pct\": %.1f,\n", threshold_pct);
        appendf(json, "  \"window_instructions\": %llu,\n",
                static_cast<unsigned long long>(window));
        appendf(json, "  \"baseline_host_ref_ms\": %.3f,\n", base_ref);
        appendf(json, "  \"measured_host_ref_ms\": %.3f,\n", run.hostRefMs);
        appendf(json, "  \"status\": \"%s\",\n",
                failed ? "regressed" : "ok");
        appendf(json, "  \"cores\": [\n");
        for (std::size_t i = 0; i < rows.size(); i++) {
            const RegressRow &r = rows[i];
            appendf(json,
                    "    {\"label\": \"%s\", \"baseline_msimips\": %.3f, "
                    "\"measured_msimips\": %.3f, \"baseline_norm\": %.3f, "
                    "\"measured_norm\": %.3f, \"delta_pct\": %.2f, "
                    "\"floor_norm\": %.3f, \"status\": \"%s\"}%s\n",
                    r.label.c_str(), r.baseline, r.measured, r.baselineNorm,
                    r.measuredNorm, r.deltaPct, r.floor,
                    r.baseline == 0.0 ? "no-baseline"
                    : r.regressed     ? "regressed"
                                      : "ok",
                    i + 1 < rows.size() ? "," : "");
        }
        appendf(json, "  ]\n");
        appendf(json, "}\n");
        writeFileAtomic(out_path, json, FaultPlan::fromEnv());
        std::fprintf(stderr, "bench_report: wrote %s\n",
                     out_path.c_str());
    }
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    bool quick = false;
    bool regress = false;
    std::string out_path;
    std::string baseline_path = "BENCH_simspeed.json";
    double threshold_pct = 15.0;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--regress") == 0) {
            regress = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threshold") == 0 &&
                   i + 1 < argc) {
            threshold_pct = parseNumber<double>(argv[++i], "--threshold");
            if (!(threshold_pct > 0.0 && threshold_pct < 100.0))
                throw simErrorf(ErrCode::ConfigInvalid, {},
                                "--threshold: '%s' is not in (0, 100)",
                                argv[i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_report [--quick] [--out PATH]\n"
                         "       bench_report --regress [--baseline PATH] "
                         "[--threshold PCT] [--quick]\n");
            return 1;
        }
    }
    // --regress only writes JSON when --out is given explicitly.
    if (out_path.empty() && !regress)
        out_path = "BENCH_simspeed.json";

    setInformEnabled(false);

    if (regress)
        return runRegressCheck(quick, baseline_path, threshold_pct,
                               out_path);

    const std::uint64_t window = quick ? 20000 : 100000;
    const CoreRun run = measureCores(benchWorkload(), window, quick);
    const std::vector<CoreSpeed> &cores = run.cores;
    for (const CoreSpeed &core : cores) {
        std::fprintf(stderr,
                     "  %-8s %8.2f ms  %8.2f Msimips  normalised %8.2f\n",
                     core.label.c_str(), core.millis, core.msimips,
                     core.norm);
    }
    std::fprintf(stderr, "  host reference %.3f ms\n", run.hostRefMs);

    std::string json;
    appendf(json, "{\n");
    appendf(json, "  \"schema\": \"%s\",\n", simspeedSchema);
    appendf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    appendf(json, "  \"workload\": \"camel\",\n");
    appendf(json, "  \"window_instructions\": %llu,\n",
            static_cast<unsigned long long>(window));
    appendf(json, "  \"host_ref_ms\": %.3f,\n", run.hostRefMs);
    appendf(json, "  \"cores\": [\n");
    for (std::size_t i = 0; i < cores.size(); i++) {
        appendf(json,
                "    {\"label\": \"%s\", \"timing_millis\": %.3f, "
                "\"msimips\": %.3f, \"norm\": %.3f}%s\n",
                cores[i].label.c_str(), cores[i].millis,
                cores[i].msimips, cores[i].norm,
                i + 1 < cores.size() ? "," : "");
    }
    appendf(json, "  ]\n");
    appendf(json, "}\n");

    // Atomic + checked: a failed disk never leaves a torn or silently
    // truncated benchmark artifact behind.
    writeFileAtomic(out_path, json, FaultPlan::fromEnv());
    std::fprintf(stderr, "bench_report: wrote %s\n", out_path.c_str());
    return 0;
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
