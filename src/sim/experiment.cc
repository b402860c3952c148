#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "sim/ledger.hh"
#include "sim/sampled_sim.hh"

namespace svr
{

CellRows::CellRows(const std::vector<WorkloadSpec> &w,
                   const std::vector<SimConfig> &c, const MatrixOptions &o,
                   const std::vector<std::size_t> &cells)
    : workloads(w), configs(c), opts(o), rows(w.size())
{
    for (const std::size_t idx : cells) {
        // A sampled cell joins the unit of its row that samples the
        // same region, if there is one.
        const SimConfig &config = configs[idx % configs.size()];
        const auto joins = [&](const std::vector<std::size_t> &unit) {
            const SimConfig &first = configs[unit[0] % configs.size()];
            return unit[0] / configs.size() == idx / configs.size() &&
                   first.sampling.enabled() &&
                   first.sampling == config.sampling &&
                   first.maxInstructions == config.maxInstructions;
        };
        const auto unit = std::find_if(units.begin(), units.end(), joins);
        if (unit != units.end()) {
            unit->push_back(idx);
        } else {
            units.push_back({idx});
            rows[idx / configs.size()].unitsLeft++;
        }
    }
}

WorkloadInstance
CellRows::fork(std::size_t wi)
{
    Row &row = rows[wi];
    std::lock_guard<std::mutex> lock(row.mtx);
    if (!row.image)
        row.image.emplace(workloads[wi].make());
    return row.image->fork();
}

bool
CellRows::run(std::size_t u, const CellSink &sink)
{
    using Clock = std::chrono::steady_clock;
    const std::vector<std::size_t> &cells = units[u];
    auto t_start = Clock::now();
    std::vector<SimResult> res;
    if (cells.size() > 1) {
        try {
            res = attempt(cells, 1);
        } catch (const SimError &) {
            // Each cell runs again on its own, with its own attempts.
        }
    }
    // A joint run charges the build and fast-forward to its first cell.
    double others = 0.0;
    for (std::size_t k = 1; k < res.size(); k++)
        others += res[k].hostMillis;
    for (std::size_t k = 0; k < cells.size(); k++) {
        SimResult r = res.empty() ? runCell(cells[k]) : std::move(res[k]);
        const std::chrono::duration<double, std::milli> elapsed =
            Clock::now() - t_start;
        const double ms = k > 0 && !res.empty() ? r.hostMillis
                                                : elapsed.count() - others;
        sink(cells[k], std::move(r), ms);
        t_start = Clock::now();
    }

    Row &row = rows[rowOf(u)];
    std::lock_guard<std::mutex> lock(row.mtx);
    if (--row.unitsLeft > 0)
        return false;
    row.image.reset();
    return true;
}

std::vector<SimResult>
CellRows::attempt(const std::vector<std::size_t> &cells, unsigned n)
{
    const WorkloadSpec &spec = workloads[cells[0] / configs.size()];
    WorkloadInstance w;
    {
        ScopedErrorCapture scope(ErrCode::WorkloadBuild);
        w = fork(cells[0] / configs.size());
    }
    ScopedErrorCapture scope(ErrCode::ConfigInvalid);
    std::vector<const SimConfig *> group;
    bool hang = false;
    for (const std::size_t idx : cells) {
        group.push_back(&configs[idx % configs.size()]);
        const std::string &label = group.back()->label;
        // A joint run cannot hang one config: it fails as a whole, so
        // that the hang is injected when its cell runs on its own.
        hang = opts.faultPlan.shouldHang(spec.name, label);
        if ((hang && cells.size() > 1) ||
            opts.faultPlan.shouldThrow(spec.name, label, n,
                                       opts.baseSeed)) {
            throw simErrorf(ErrCode::InternalInvariant, {},
                            "injected fault (attempt %u)", n);
        }
    }
    std::vector<SimResult> res =
        cells.size() > 1 ? simulateSampledRow(group, w)
                         : std::vector{hang ? simulateInjectedHang(*group[0], w)
                                            : simulate(*group[0], w)};
    for (SimResult &r : res) {
        // The cell identity is the spec name, not whatever the
        // workload instance called itself.
        r.workload = spec.name;
        r.attempts = n;
    }
    return res;
}

SimResult
CellRows::runCell(std::size_t idx)
{
    const WorkloadSpec &spec = workloads[idx / configs.size()];
    const SimConfig &config = configs[idx % configs.size()];
    for (unsigned n = 1;; n++) {
        try {
            return attempt({idx}, n)[0];
        } catch (const SimError &e) {
            if (n < opts.maxAttempts)
                continue;
            const SimError err =
                SimError::withCell(e, spec.name, config.label);
            if (!opts.keepGoing)
                throw err;
            return failureRecord(spec.name, config.label, err, n);
        }
    }
}

std::vector<MatrixRow>
runMatrix(const std::vector<WorkloadSpec> &workloads,
          const std::vector<SimConfig> &configs, const MatrixOptions &opts,
          MatrixTiming *timing)
{
    using Clock = std::chrono::steady_clock;

    CellLedger ledger(workloads, configs, opts.restored, opts.journal,
                      opts.faultPlan, opts.baseSeed,
                      CellLedger::Engine::Local);
    std::vector<std::size_t> open;
    for (std::size_t idx = 0; idx < ledger.numCells(); idx++) {
        if (!ledger.done(idx))
            open.push_back(idx);
    }
    CellRows rows(workloads, configs, opts, open);

    const unsigned jobs = resolveJobs(opts.jobs);
    const auto t_start = Clock::now();
    parallelFor(rows.numUnits(), jobs, [&](std::size_t u) {
        const bool row_done =
            rows.run(u, [&](std::size_t idx, SimResult res, double ms) {
                ledger.record(idx, std::move(res), ms);
            });
        if (row_done && opts.progress) {
            inform("done: %-12s (%zu configs)",
                   workloads[rows.rowOf(u)].name.c_str(), configs.size());
        }
    });
    const std::chrono::duration<double> elapsed = Clock::now() - t_start;

    const MatrixTiming t =
        ledger.summarize(elapsed.count(), jobs, opts.summary);
    if (timing)
        *timing = t;
    return ledger.takeRows();
}

std::vector<MatrixRow>
runMatrix(const std::vector<WorkloadSpec> &workloads,
          const std::vector<SimConfig> &configs)
{
    return runMatrix(workloads, configs, MatrixOptions{});
}

std::vector<SimResult>
flattenMatrix(const std::vector<MatrixRow> &matrix)
{
    std::vector<SimResult> out;
    for (const auto &row : matrix)
        out.insert(out.end(), row.results.begin(), row.results.end());
    return out;
}

std::vector<double>
harmonicMeanIpc(const std::vector<MatrixRow> &matrix)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> ipcs;
        for (const auto &row : matrix)
            ipcs.push_back(row.results[c].ipc());
        result.push_back(harmonicMean(ipcs));
    }
    return result;
}

std::vector<double>
meanSpeedup(const std::vector<MatrixRow> &matrix, std::size_t baseline)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> speedups;
        for (const auto &row : matrix) {
            const double base = row.results[baseline].ipc();
            const double ipc = row.results[c].ipc();
            if (base > 0 && ipc > 0)
                speedups.push_back(ipc / base);
        }
        result.push_back(harmonicMean(speedups));
    }
    return result;
}

std::vector<double>
meanEnergyPerInstr(const std::vector<MatrixRow> &matrix)
{
    if (matrix.empty())
        return {};
    std::vector<double> result;
    const std::size_t num_configs = matrix[0].results.size();
    for (std::size_t c = 0; c < num_configs; c++) {
        std::vector<double> vals;
        for (const auto &row : matrix)
            vals.push_back(row.results[c].energyPerInstr());
        result.push_back(arithmeticMean(vals));
    }
    return result;
}

void
printHeader(const std::string &first, const std::vector<std::string> &labels)
{
    std::printf("%-12s", first.c_str());
    for (const auto &l : labels)
        std::printf(" %9s", l.c_str());
    std::printf("\n");
}

void
printRow(const std::string &name, const std::vector<double> &values)
{
    std::printf("%-12s", name.c_str());
    for (double v : values)
        std::printf(" %9.3f", v);
    std::printf("\n");
}

void
printMetricTable(const std::vector<MatrixRow> &matrix,
                 const std::vector<std::string> &config_labels,
                 const std::string &metric_name,
                 double (*metric)(const SimResult &))
{
    std::printf("# %s\n", metric_name.c_str());
    printHeader("workload", config_labels);
    for (const auto &row : matrix) {
        std::vector<double> vals;
        for (const auto &res : row.results)
            vals.push_back(metric(res));
        printRow(row.workload, vals);
    }
}

} // namespace svr
