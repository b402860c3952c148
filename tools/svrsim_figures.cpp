/**
 * @file
 * svrsim_figures — the paper's figures and tables from one table.
 *
 * Usage: svrsim_figures [ID...]
 *
 * Prints the figures named by ID, or all of them in paper order
 * (kFigures below); an unknown ID is an error (exit 1). Each figure
 * reads a cell set (workloads x uniquely labelled configs), simulated
 * once per run by runMatrix() however many figures read it, so
 * SVRSIM_JOBS applies and stdout is byte-identical for any job count.
 * SVR_WINDOW sets the window.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"
#include "svr/hardware_budget.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

/** printf into a std::string. */
template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

/** A figure's workloads x configs; config labels are unique. */
struct CellSet
{
    std::vector<WorkloadSpec> (*workloads)();
    std::vector<SimConfig> (*configs)();
};

/** A simulated cell set: rows in workload order, columns by label. */
struct Cells
{
    std::vector<WorkloadSpec> workloads;
    std::vector<std::string> labels;
    std::vector<MatrixRow> rows;

    const SimResult &at(std::size_t row, const std::string &label) const
    {
        const auto col = std::find(labels.begin(), labels.end(), label);
        if (col == labels.end()) {
            throw simErrorf(ErrCode::InternalInvariant, {},
                            "no config labelled '%s'", label.c_str());
        }
        return rows[row].results[col - labels.begin()];
    }

    /** The matrix restricted to the @p picked columns, in that order. */
    std::vector<MatrixRow> select(const std::vector<std::string> &picked) const
    {
        std::vector<MatrixRow> out;
        for (std::size_t r = 0; r < rows.size(); r++) {
            out.push_back({rows[r].workload, {}, {}});
            for (const std::string &label : picked)
                out.back().results.push_back(at(r, label));
        }
        return out;
    }

    /**
     * Harmonic-mean IPC speedup of @p label on rows [first, last) over
     * the InO cell with the same parameters ("InO@P" for a sweep label
     * "M@P", else "InO").
     */
    double speedup(const std::string &label, std::size_t first = 0,
                   std::size_t last = SIZE_MAX) const
    {
        const std::size_t at_sign = label.find('@');
        const std::string base =
            "InO" + (at_sign == std::string::npos ? ""
                                                  : label.substr(at_sign));
        std::vector<double> ratios;
        for (std::size_t r = first; r < std::min(last, rows.size()); r++)
            ratios.push_back(at(r, label).ipc() / at(r, base).ipc());
        return harmonicMean(ratios);
    }
};

Cells
simulateCells(const CellSet &set)
{
    Cells cells;
    cells.workloads = set.workloads();
    const std::vector<SimConfig> configs = set.configs();
    for (const SimConfig &c : configs)
        cells.labels.push_back(c.label);
    cells.rows = runMatrix(cells.workloads, configs);
    return cells;
}

std::vector<WorkloadSpec>
findWorkloads(const std::vector<const char *> &names)
{
    std::vector<WorkloadSpec> workloads;
    for (const char *name : names)
        workloads.push_back(findWorkload(name));
    return workloads;
}

/** A sweep point: the row prefix a figure prints and its config change. */
struct SweepPoint
{
    std::string row;
    std::function<void(SimConfig &)> tweak;
};

/**
 * InO, SVR16 and SVR64 at every point, changed by the point's tweak and
 * labelled "<machine>@<row>": the printed row names the point.
 */
std::vector<SimConfig>
sweepConfigs(const std::vector<SweepPoint> &points)
{
    std::vector<SimConfig> configs;
    for (const SweepPoint &p : points) {
        for (SimConfig c : {presets::inorder(), presets::svrCore(16),
                            presets::svrCore(64)}) {
            c.label += "@" + p.row;
            p.tweak(c);
            configs.push_back(c);
        }
    }
    return configs;
}

/** One row per point: the row prefix, SVR16's and SVR64's speedups. */
void
printSpeedupRows(const Cells &cells, const std::vector<SweepPoint> &points)
{
    for (const SweepPoint &p : points) {
        std::printf("%s %11.2fx %11.2fx\n", p.row.c_str(),
                    cells.speedup("SVR16@" + p.row),
                    cells.speedup("SVR64@" + p.row));
    }
}

// ---------------------------------------------------------------------
// Figures 1, 3, 11, 12, 13: the full suite under every machine.

/** Figure 1/11/12's columns: InO, IMP, OoO, SVR8..SVR128. */
const std::vector<std::string> kPaperLabels = {
    "InO", "IMP", "OoO", "SVR8", "SVR16", "SVR32", "SVR64", "SVR128"};

std::vector<SimConfig>
paperConfigs()
{
    std::vector<SimConfig> configs = {presets::inorder(), presets::impCore(),
                                      presets::outOfOrder()};
    for (unsigned n : {8u, 16u, 32u, 64u, 128u})
        configs.push_back(presets::svrCore(n));
    for (unsigned n : {16u, 64u}) {
        configs.push_back(presets::svrCore(n));
        configs.back().label += "-Max";
        configs.back().svr.loopBound = LoopBoundMode::Maxlength;
    }
    return configs;
}

const CellSet kPaperSet{fullSuite, paperConfigs};

/** The paper's grouping: graph rows per kernel, HPC-DB rows together. */
std::map<std::string, std::vector<std::size_t>>
paperGroups(const Cells &cells)
{
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t r = 0; r < cells.workloads.size(); r++) {
        const WorkloadSpec &w = cells.workloads[r];
        groups[w.suite == "graph" ? w.name.substr(0, w.name.find('_'))
                                  : "HPC-DB"]
            .push_back(r);
    }
    return groups;
}

void
printFig01(const Cells &cells)
{
    const auto matrix = cells.select(kPaperLabels);
    const auto speedups = meanSpeedup(matrix, 0);
    const auto energies = meanEnergyPerInstr(matrix);
    std::printf("\n%-8s %14s %18s\n", "config", "norm. IPC",
                "norm. energy");
    for (std::size_t c = 0; c < kPaperLabels.size(); c++) {
        std::printf("%-8s %13.2fx %17.3f\n", kPaperLabels[c].c_str(),
                    speedups[c], energies[c] / energies[0]);
    }
    std::printf("\npaper:  SVR16 ~3.2x, SVR128 ~4.3x, OoO ~2.5x, "
                "IMP ~2.3x vs InO;\n"
                "        SVR halves system energy vs both InO and OoO.\n");
}

/** A Figure 3 row: {base, DRAM, other} CPI for InO, then for OoO. */
using CpiStacks = std::array<double, 6>;

void
printFig03(const Cells &cells)
{
    const auto row = [](const char *name, const CpiStacks &s) {
        std::printf("%-8s | %8.2f %8.2f %8.2f  | %8.2f %8.2f %8.2f\n", name,
                    s[0], s[1], s[2], s[3], s[4], s[5]);
    };
    std::printf("\n%-8s | %28s | %28s\n", "", "in-order CPI",
                "out-of-order CPI");
    std::printf("%-8s | %8s %8s %8s  | %8s %8s %8s\n", "group", "base",
                "dram", "other", "base", "dram", "other");
    const auto groups = paperGroups(cells);
    CpiStacks avg{};
    for (const auto &[group, rows] : groups) {
        CpiStacks mean{};
        for (std::size_t r : rows) {
            for (int m = 0; m < 2; m++) {
                const CoreStats &c = cells.at(r, m ? "OoO" : "InO").core;
                const double instrs = static_cast<double>(c.instructions);
                mean[3 * m] += static_cast<double>(c.stackBase()) / instrs;
                mean[3 * m + 1] += static_cast<double>(c.stackDram) / instrs;
                mean[3 * m + 2] +=
                    static_cast<double>(c.stackL2 + c.stackBranch +
                                        c.stackSvu + c.stackOther) /
                    instrs;
            }
        }
        for (std::size_t k = 0; k < mean.size(); k++) {
            mean[k] /= static_cast<double>(rows.size());
            avg[k] += mean[k];
        }
        row(group.c_str(), mean);
    }
    for (double &v : avg)
        v /= static_cast<double>(groups.size());
    row("Avg.", avg);
    std::printf("\nDRAM-stall CPI ratio (InO/OoO): %.2fx   "
                "(paper: ~2.5x; InO ~8.9 vs OoO ~3.6)\n",
                avg[1] / avg[4]);
}

/** One row per workload plus an arithmetic-mean "Avg." row. */
void
printPerWorkload(const Cells &cells, const char *metric_name,
                 double (*metric)(const SimResult &))
{
    const auto matrix = cells.select(kPaperLabels);
    std::printf("\n");
    printMetricTable(matrix, kPaperLabels, metric_name, metric);
    std::vector<double> avg(kPaperLabels.size(), 0.0);
    for (const auto &row : matrix) {
        for (std::size_t c = 0; c < avg.size(); c++)
            avg[c] += metric(row.results[c]);
    }
    for (auto &v : avg)
        v /= static_cast<double>(matrix.size());
    printRow("Avg.", avg);
}

void
printFig11(const Cells &cells)
{
    printPerWorkload(cells, "CPI (lower is better)",
                     [](const SimResult &r) { return r.cpi(); });
    std::printf("\npaper shape: InO worst (up to ~22 CPI); SVR16 below "
                "OoO on most rows;\nwider SVR lower still; IMP wins only "
                "on simple stride-indirect rows\n(PR, IS, G500, "
                "BFS-Kronecker).\n");
}

void
printFig12(const Cells &cells)
{
    printPerWorkload(cells, "energy nJ/instr (lower is better)",
                     [](const SimResult &r) { return r.energyPerInstr(); });
    std::printf("\npaper shape: SVR is the most energy-efficient "
                "configuration on every row;\nOoO is usually more "
                "efficient than InO (runtime dominates static power),\n"
                "except SSSP where it cannot recoup its power.\n");
}

void
printFig13(const Cells &cells)
{
    const auto groups = paperGroups(cells);
    // Accuracy columns: label and printed width (before the '%').
    const std::pair<std::string, int> accuracy_cols[] = {
        {"IMP", 9}, {"SVR16-Max", 11}, {"SVR16", 9},
        {"SVR64-Max", 11}, {"SVR64", 9}};
    std::printf("\n(a) accuracy: prefetched lines used before LLC "
                "eviction\n");
    std::printf("%-8s %10s %12s %10s %12s %10s\n", "group", "IMP",
                "SVR16-Max", "SVR16", "SVR64-Max", "SVR64");
    for (const auto &[group, rows] : groups) {
        std::printf("%-8s", group.c_str());
        for (const auto &[label, width] : accuracy_cols) {
            double acc = 0;
            for (std::size_t r : rows) {
                acc += label == "IMP" ? cells.at(r, label).impAccuracyLlc
                                      : cells.at(r, label).svrAccuracyLlc;
            }
            std::printf(" %*.1f%%", width,
                        100.0 * acc / static_cast<int>(rows.size()));
        }
        std::printf("\n");
    }

    std::printf("\n(b) coverage: DRAM line fills by origin, normalized "
                "to the in-order\n    baseline's total demand traffic "
                "(>100%% = overcoverage)\n");
    std::printf("%-10s %-10s %10s %10s %10s %10s\n", "group", "config",
                "demand", "ifetch", "prefetch", "total");
    for (const auto &[group, rows] : groups) {
        const double n = static_cast<double>(rows.size());
        for (const char *label : {"InO", "IMP", "SVR16", "SVR64"}) {
            double demand = 0, ifetch = 0, pref = 0;
            for (std::size_t r : rows) {
                const DramTraffic &t = cells.at(r, label).traffic;
                const DramTraffic &b = cells.at(r, "InO").traffic;
                const double norm =
                    static_cast<double>(b.demandData + b.demandIfetch) +
                    1e-9;
                demand += t.demandData / norm;
                ifetch += t.demandIfetch / norm;
                pref += (t.prefStride + t.prefSvr + t.prefImp) / norm;
            }
            std::printf("%-10s %-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
                        group.c_str(), label, 100.0 * demand / n,
                        100.0 * ifetch / n, 100.0 * pref / n,
                        100.0 * (demand + ifetch + pref) / n);
        }
    }
    std::printf("\npaper shape: SVR (tournament) most accurate; SVR64 "
                "slightly below SVR16;\nMaxlength below both; IMP "
                "consistently least accurate (overfetches past\ninner-"
                "loop bounds, up to +20%% DRAM traffic).\n");
}

// ---------------------------------------------------------------------
// Figure 14: the SPEC-like regular kernels.

const CellSet kSpecSet{[] { return specSuite(); },
                       [] {
                           return std::vector<SimConfig>{
                               presets::inorder(), presets::svrCore(16)};
                       }};

void
printFig14(const Cells &cells)
{
    std::printf("\n%-12s %12s %12s %14s\n", "benchmark", "InO IPC",
                "SVR16 IPC", "normalized");
    std::vector<double> ratios;
    for (std::size_t r = 0; r < cells.rows.size(); r++) {
        const double base = cells.at(r, "InO").ipc();
        const double svr = cells.at(r, "SVR16").ipc();
        ratios.push_back(svr / base);
        std::printf("%-12s %12.3f %12.3f %14.3f\n",
                    cells.rows[r].workload.c_str(), base, svr, svr / base);
    }
    std::printf("%-12s %12s %12s %14.3f\n", "H-mean", "", "",
                harmonicMean(ratios));
    std::printf("\npaper: overall ~1%% degradation, wrf worst (>3%%); "
                "normalized IPC ~= 1.0 everywhere.\n");
}

// ---------------------------------------------------------------------
// Figures 15-18 and Section VI-D/E: sweeps over workload subsets.

/** Figure 15's groups, each a representative subset (to bound runtime). */
const std::pair<const char *, std::vector<const char *>> kLoopBoundGroups[] = {
    {"BC+BFS+SSSP", {"BC_KR", "BFS_UR", "SSSP_LJN"}},
    {"CC+PR", {"CC_TW", "PR_KR"}},
    {"HPC-DB", {"Camel", "NAS-IS", "Randacc", "HJ2"}},
};

std::vector<SweepPoint>
loopBoundPoints()
{
    std::vector<SweepPoint> points;
    for (LoopBoundMode mode :
         {LoopBoundMode::LbdWait, LoopBoundMode::Maxlength,
          LoopBoundMode::LbdMaxlength, LoopBoundMode::LbdCv,
          LoopBoundMode::Ewma, LoopBoundMode::Tournament}) {
        points.push_back({format("%-14s", loopBoundModeName(mode)),
                          [=](SimConfig &c) { c.svr.loopBound = mode; }});
    }
    return points;
}

const CellSet kLoopBoundSet{
    [] {
        std::vector<WorkloadSpec> workloads;
        for (const auto &[group, names] : kLoopBoundGroups) {
            for (const auto &w : findWorkloads(names))
                workloads.push_back(w);
        }
        return workloads;
    },
    [] { return sweepConfigs(loopBoundPoints()); }};

void
printFig15(const Cells &cells)
{
    for (unsigned n : {16u, 64u}) {
        std::printf("\nSVR-%u: normalized IPC vs in-order baseline\n", n);
        std::printf("%-14s", "mode");
        for (const auto &[group, names] : kLoopBoundGroups)
            std::printf(" %12s", group);
        std::printf(" %12s\n", "H-mean");
        for (const SweepPoint &p : loopBoundPoints()) {
            const std::string label = format("SVR%u@", n) + p.row;
            std::printf("%s", p.row.c_str());
            std::size_t first = 0;
            for (const auto &[group, names] : kLoopBoundGroups) {
                std::printf(" %11.2fx", cells.speedup(label, first,
                                                      first + names.size()));
                first += names.size();
            }
            std::printf(" %11.2fx\n", cells.speedup(label));
        }
    }
    std::printf("\npaper shape: LBD+Wait worst (waits behind in-order "
                "loads); Maxlength helps\nSVR-16 but hurts SVR-64 "
                "(accuracy banning); LBD+CV recovers via register\n"
                "scavenging; Tournament best of both.\n");
}

std::vector<SweepPoint>
widthPoints()
{
    std::vector<SweepPoint> points;
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        points.push_back({format("%-10u", width),
                          [=](SimConfig &c) { c.svr.svuWidth = width; }});
    }
    return points;
}

const CellSet kWidthSet{quickSuite,
                        [] { return sweepConfigs(widthPoints()); }};

void
printFig16(const Cells &cells)
{
    std::printf("\n%-10s %12s %12s\n", "SVU width", "SVR16", "SVR64");
    printSpeedupRows(cells, widthPoints());
    std::printf("\npaper: performance is almost identical from width 1 "
                "to 8 — piggyback\nrunahead saturates the memory system, "
                "not the functional units.\n");
}

std::vector<SweepPoint>
mshrPoints()
{
    std::vector<SweepPoint> points;
    for (unsigned mshrs : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
        for (unsigned ptws : {2u, 4u, 6u}) {
            points.push_back({format("%-8u %-6u", mshrs, ptws),
                              [=](SimConfig &c) {
                                  c.mem.l1d.numMshrs = mshrs;
                                  c.mem.translation.numWalkers = ptws;
                              }});
        }
    }
    return points;
}

const CellSet kMshrSet{quickSuite,
                       [] { return sweepConfigs(mshrPoints()); }};

void
printFig17(const Cells &cells)
{
    std::printf("\n%-8s %-6s %12s %12s\n", "MSHRs", "PTWs", "SVR16",
                "SVR64");
    printSpeedupRows(cells, mshrPoints());
    std::printf("\npaper shape: SVR16 saturates around 8 MSHRs, SVR64 "
                "around 16; PTWs give\na minor gain from 2 to 4 once "
                "MSHRs are plentiful.\n");
}

std::vector<SweepPoint>
bandwidthPoints()
{
    std::vector<SweepPoint> points;
    for (double bw : {12.5, 25.0, 50.0, 100.0}) {
        points.push_back(
            {format("%-12.1f", bw),
             [=](SimConfig &c) { c.mem.dram.bandwidthGiBps = bw; }});
    }
    return points;
}

const CellSet kBandwidthSet{quickSuite,
                            [] { return sweepConfigs(bandwidthPoints()); }};

void
printFig18(const Cells &cells)
{
    std::printf("\n%-12s %12s %12s\n", "GiB/s", "SVR16", "SVR64");
    printSpeedupRows(cells, bandwidthPoints());
    std::printf("\npaper shape: SVR64 benefits more from bandwidth than "
                "SVR16 (it issues more\nconcurrent requests); both "
                "saturate well below the channel peak.\n");
}

const unsigned kCoreCounts[] = {1u, 2u, 4u, 8u};

/** k cores statically partitioning a 50 GiB/s channel. */
std::vector<SweepPoint>
corePoints()
{
    std::vector<SweepPoint> points;
    for (unsigned cores : kCoreCounts) {
        points.push_back({format("%-6u", cores), [=](SimConfig &c) {
                              c.mem.dram.bandwidthGiBps = 50.0 / cores;
                          }});
    }
    return points;
}

const CellSet kMulticoreSet{quickSuite,
                            [] { return sweepConfigs(corePoints()); }};

void
printMulticore(const Cells &cells)
{
    const auto points = corePoints();
    std::printf("\n%-6s %-8s %14s %16s\n", "cores", "machine",
                "per-core IPC", "aggregate IPC");
    for (std::size_t i = 0; i < points.size(); i++) {
        for (const std::string machine : {"InO", "SVR16", "SVR64"}) {
            const double per_core = harmonicMeanIpc(
                cells.select({machine + "@" + points[i].row}))[0];
            std::printf("%s %-8s %14.3f %16.3f\n", points[i].row.c_str(),
                        machine.c_str(), per_core,
                        per_core * kCoreCounts[i]);
        }
    }
    std::printf("\nexpected shape: aggregate SVR throughput keeps "
                "growing with core count\nuntil the partitioned "
                "channel becomes the bottleneck; the in-order\n"
                "baseline scales almost linearly (it never pressures "
                "the channel).\n");
}

// Section VI-D's ablations: each config is labelled with its row.

std::string
recycleLabel(unsigned n, unsigned k, SrfRecycle policy)
{
    return format("SVR%u, K=%u, %s", n, k,
                  policy == SrfRecycle::LruRecycle ? "SVR LRU recycle"
                                                   : "DVR stop-when-full");
}

std::string
noWaitLabel(unsigned n)
{
    return format("SVR%u without waiting mode", n);
}

std::vector<SimConfig>
ablationConfigs()
{
    std::vector<SimConfig> configs = {presets::inorder()};
    const auto add = [&](unsigned n, const std::string &label) {
        configs.push_back(presets::svrCore(n));
        configs.back().label = label;
        return &configs.back().svr;
    };
    add(16, "SVR16 (default)");
    add(16, "SVR16 + reg-file copy cost")->modelRegisterCopyCost = true;
    for (unsigned n : {16u, 64u}) {
        for (unsigned k : {8u, 2u}) {
            for (SrfRecycle policy :
                 {SrfRecycle::LruRecycle, SrfRecycle::StopWhenFull}) {
                SvrParams *p = add(n, recycleLabel(n, k, policy));
                p->numSrfRegs = k;
                p->recycle = policy;
            }
        }
    }
    for (unsigned n : {16u, 64u})
        add(n, noWaitLabel(n))->waitingMode = false;
    return configs;
}

const CellSet kAblationSet{quickSuite, ablationConfigs};

void
printSec6d(const Cells &cells)
{
    const auto row = [&](const std::string &label, const char *note = "") {
        std::printf("%-44s %9.2fx%s\n", label.c_str(), cells.speedup(label),
                    note);
    };
    std::printf("\nh-mean speedup vs in-order baseline\n");
    std::printf("%-44s %10s\n", "configuration", "speedup");
    row("SVR16 (default)");
    row("SVR16 + reg-file copy cost", "   (paper: 3.21x -> 3.16x)");
    std::printf("\n");
    for (unsigned n : {16u, 64u}) {
        for (unsigned k : {8u, 2u}) {
            row(recycleLabel(n, k, SrfRecycle::LruRecycle));
            row(recycleLabel(n, k, SrfRecycle::StopWhenFull));
        }
    }
    std::printf("(paper: K=2 + DVR policy drops SVR16 3.2x -> 1.9x and "
                "SVR64 4.2x -> 2.2x)\n");
    std::printf("\n");
    row(noWaitLabel(16));
    row(noWaitLabel(64));
    std::printf("(paper: SVR16 -> 1.14x, SVR64 -> 0.56x, an outright "
                "slowdown)\n");
}

// Nested (outer-chain) runahead: worklist kernels plus two controls.
const CellSet kNestingSet{
    [] {
        return findWorkloads({"BFS_KR", "BFS_UR", "BC_KR", "BC_UR",
                              "SSSP_LJN", "SSSP_UR", "PR_KR", "Camel"});
    },
    [] {
        std::vector<SimConfig> configs = {presets::inorder()};
        for (unsigned n : {16u, 64u}) {
            configs.push_back(presets::svrCore(n));
            configs.push_back(presets::svrCore(n));
            configs.back().label += "-nest";
            configs.back().svr.nestedRunahead = true;
        }
        return configs;
    }};

void
printNesting(const Cells &cells)
{
    std::printf("\n%-10s %-6s %12s %12s %14s\n", "workload", "N", "SVR",
                "SVR+nest", "nested rounds");
    std::vector<double> plain_all, nest_all;
    for (std::size_t r = 0; r < cells.rows.size(); r++) {
        const double base = cells.at(r, "InO").ipc();
        for (unsigned n : {16u, 64u}) {
            const SimResult &a = cells.at(r, format("SVR%u", n));
            const SimResult &b = cells.at(r, format("SVR%u-nest", n));
            std::printf("%-10s %-6u %11.2fx %11.2fx %14llu\n",
                        cells.rows[r].workload.c_str(), n, a.ipc() / base,
                        b.ipc() / base,
                        static_cast<unsigned long long>(b.core.svrRounds));
            plain_all.push_back(a.ipc() / base);
            nest_all.push_back(b.ipc() / base);
        }
    }
    std::printf("%-10s %-6s %11.2fx %11.2fx\n", "H-mean", "",
                harmonicMean(plain_all), harmonicMean(nest_all));
    std::printf("\nexpected shape: worklist kernels (BFS/SSSP over "
                "mutating queues) gain from\nvectorizing the outer "
                "queue->offsets chain; contiguous-chain kernels\n"
                "(PR, Camel) are unchanged — consistent with the "
                "paper's section VI-D\nexpectation for DVR-style "
                "nesting.\n");
}

// ---------------------------------------------------------------------
// Table II: analytical, no simulation.

void
printTab02(const Cells &)
{
    const HardwareBudget b = computeHardwareBudget(16, 8);
    const auto line = [](const char *what, std::uint64_t bits) {
        std::printf("  %-28s %8llu bits\n", what,
                    static_cast<unsigned long long>(bits));
    };
    std::printf("\nSVR-16, K=8 (the paper's default design point):\n");
    line("stride detector (32 entries)", b.strideDetectorBits);
    line("taint tracker (32 arch regs)", b.taintTrackerBits);
    line("HSLR (PC + mask)", b.hslrBits);
    line("SRF (K x N x 64b)", b.srfBits);
    line("last compare register", b.lastCompareBits);
    line("loop-bound detector (8)", b.loopBoundDetectorBits);
    line("scoreboard return counters", b.scoreboardBits);
    line("L1 prefetch tags", b.l1PrefetchTagBits);
    std::printf("  %-28s %8llu bits = %.2f KiB   (paper: 17738 bits = "
                "2.17 KiB)\n",
                "total", static_cast<unsigned long long>(b.totalBits()),
                b.totalKiB());

    std::printf("\nscaling with vector length (K = 8):\n");
    std::printf("  %-6s %12s %10s\n", "N", "total bits", "KiB");
    for (unsigned n : {8u, 16u, 32u, 64u, 128u}) {
        const HardwareBudget bn = computeHardwareBudget(n, 8);
        std::printf("  %-6u %12llu %10.2f\n", n,
                    static_cast<unsigned long long>(bn.totalBits()),
                    bn.totalKiB());
    }
    std::printf("\npaper: N=16 -> ~2 KiB; N=128 -> ~9 KiB (SRF grows "
                "linearly).\n");
}

// ---------------------------------------------------------------------
// The figure table, in paper order.

struct Figure
{
    const char *id;
    const char *heading;
    const CellSet *cells; //!< nullptr: the figure simulates nothing
    void (*print)(const Cells &);
};

const Figure kFigures[] = {
    {"fig01", "Figure 1 — mean speedup and normalized energy vs in-order",
     &kPaperSet, printFig01},
    {"fig03", "Figure 3 — CPI stacks: in-order vs out-of-order", &kPaperSet,
     printFig03},
    {"fig11", "Figure 11 — cycles-per-instruction per workload", &kPaperSet,
     printFig11},
    {"fig12", "Figure 12 — whole-system energy per instruction (nJ)",
     &kPaperSet, printFig12},
    {"fig13", "Figure 13 — prefetch accuracy and coverage", &kPaperSet,
     printFig13},
    {"fig14", "Figure 14 — SVR overhead on SPEC-like regular kernels",
     &kSpecSet, printFig14},
    {"fig15", "Figure 15 — loop-bound prediction mechanisms",
     &kLoopBoundSet, printFig15},
    {"fig16", "Figure 16 — scalars per vector unit (execute width)",
     &kWidthSet, printFig16},
    {"fig17", "Figure 17 — MSHR and page-table-walker sensitivity",
     &kMshrSet, printFig17},
    {"fig18", "Figure 18 — memory bandwidth sensitivity", &kBandwidthSet,
     printFig18},
    {"tab02", "Table II — SVR hardware overhead (bits)", nullptr,
     printTab02},
    {"sec6d", "Section VI-D — DVR-comparison design ablations",
     &kAblationSet, printSec6d},
    {"ext_nesting", "Extension — nested (outer-chain) runahead prototype",
     &kNestingSet, printNesting},
    {"ext_multicore",
     "Extension — multicore scaling under partitioned bandwidth",
     &kMulticoreSet, printMulticore},
};

const Figure &
findFigure(const std::string &id)
{
    std::string valid;
    for (const Figure &f : kFigures) {
        if (id == f.id)
            return f;
        valid += std::string(" ") + f.id;
    }
    throw simErrorf(ErrCode::ConfigInvalid, {},
                    "unknown figure '%s' (valid:%s)", id.c_str(),
                    valid.c_str());
}

} // namespace

int
main(int argc, char **argv)
try {
    presets::simWindow(); // reject a malformed SVR_WINDOW up front
    std::vector<const Figure *> picked;
    for (int i = 1; i < argc; i++)
        picked.push_back(&findFigure(argv[i]));
    if (picked.empty()) {
        for (const Figure &f : kFigures)
            picked.push_back(&f);
    }

    const std::string rule(62, '=');
    std::map<const CellSet *, Cells> simulated;
    for (const Figure *f : picked) {
        std::printf("%s\n%s\n%s\n", rule.c_str(), f->heading, rule.c_str());
        std::fflush(stdout);
        if (f->cells && !simulated.count(f->cells))
            simulated.emplace(f->cells, simulateCells(*f->cells));
        f->print(f->cells ? simulated.at(f->cells) : Cells{});
    }
    return 0;
} catch (const SimError &e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
