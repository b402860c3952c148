#include "sim/experiment.hh"

#include <chrono>
#include <cstdio>
#include <numeric>

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
    for (const std::size_t idx : cells)
        rows[idx / configs.size()].cellsLeft++;
}

WorkloadInstance
CellRows::fork(std::size_t wi)
{
    Row &row = rows[wi];
    std::lock_guard<std::mutex> lock(row.mtx);
    if (!row.image) {
        row.image.emplace(workloads[wi].make());
        row.ladder = std::make_shared<FastForwardLadder>();
    }
    WorkloadInstance w = row.image->fork();
    w.ladder = row.ladder;
    return w;
}

bool
CellRows::finish(std::size_t idx)
{
    Row &row = rows[idx / configs.size()];
    std::lock_guard<std::mutex> lock(row.mtx);
    if (--row.cellsLeft > 0)
        return false;
    row.image.reset();
    row.ladder.reset();
    return true;
}

SimResult
CellRows::run(std::size_t idx)
{
    const WorkloadSpec &spec = workloads[idx / configs.size()];
    const SimConfig &config = configs[idx % configs.size()];
    for (unsigned attempt = 1;; attempt++) {
        try {
            WorkloadInstance w;
            {
                ScopedErrorCapture scope(ErrCode::WorkloadBuild);
                w = fork(idx / configs.size());
            }
            ScopedErrorCapture scope(ErrCode::ConfigInvalid);
            if (opts.faultPlan.shouldThrow(spec.name, config.label,
                                           attempt, opts.baseSeed)) {
                throw simErrorf(ErrCode::InternalInvariant, {},
                                "injected fault (attempt %u)", attempt);
            }
            SimResult res =
                opts.faultPlan.shouldHang(spec.name, config.label)
                    ? simulateInjectedHang(config, w)
                    : simulate(config, w);
            // The cell identity is the spec name, not whatever the
            // workload instance called itself.
            res.workload = spec.name;
            res.config = config.label;
            res.attempts = attempt;
            return res;
        } catch (const SimError &e) {
            if (attempt < opts.maxAttempts)
                continue;
            const SimError err =
                SimError::withCell(e, spec.name, config.label);
            if (!opts.keepGoing)
                throw err;
            return failureRecord(spec.name, config.label, err, attempt);
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
    std::vector<std::size_t> all(ledger.numCells());
    std::iota(all.begin(), all.end(), std::size_t{0});
    CellRows rows(workloads, configs, opts, all);

    const unsigned jobs = resolveJobs(opts.jobs);
    const auto t_start = Clock::now();
    parallelFor(ledger.numCells(), jobs, [&](std::size_t idx) {
        if (!ledger.done(idx)) {
            const auto c_start = Clock::now();
            SimResult res = rows.run(idx);
            const std::chrono::duration<double, std::milli> c_elapsed =
                Clock::now() - c_start;
            ledger.record(idx, std::move(res), c_elapsed.count());
        }
        if (rows.finish(idx) && opts.progress) {
            inform("done: %-12s (%zu configs)",
                   workloads[idx / configs.size()].name.c_str(),
                   configs.size());
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
