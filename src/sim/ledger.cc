#include "sim/ledger.hh"

#include <csignal>

#include "common/logging.hh"
#include "common/rng.hh"

namespace svr
{

SimResult
failureRecord(const std::string &workload, const std::string &config,
              const SimError &err, unsigned attempts)
{
    SimResult res;
    res.workload = workload;
    res.config = config;
    res.failed = true;
    res.errCode = errCodeName(err.code());
    res.errMessage = err.what();
    res.attempts = attempts;
    return res;
}

CellLedger::CellLedger(const std::vector<WorkloadSpec> &w,
                       const std::vector<SimConfig> &c,
                       const JournalCells &restored, SweepJournal *j,
                       const FaultPlan &f, std::uint64_t base_seed,
                       Engine e)
    : journal(j), faults(f), engine(e), results(w.size() * c.size()),
      timings(results.size()), have(results.size(), 0)
{
    for (const WorkloadSpec &spec : w)
        workloads.push_back(spec.name);
    for (const SimConfig &config : c)
        configs.push_back(config.label);
    for (std::size_t idx = 0; idx < numCells(); idx++) {
        timings[idx].streamSeed =
            Rng::cellSeed(base_seed, workload(idx), config(idx));
        const auto it = restored.find({workload(idx), config(idx)});
        if (it != restored.end()) {
            results[idx] = it->second;
            have[idx] = 1;
            numRestored++;
        }
    }
}

const std::string &
CellLedger::workload(std::size_t idx) const
{
    return workloads[idx / configs.size()];
}

const std::string &
CellLedger::config(std::size_t idx) const
{
    return configs[idx % configs.size()];
}

std::vector<std::size_t>
CellLedger::doneIndices() const
{
    std::vector<std::size_t> out;
    for (std::size_t idx = 0; idx < numCells(); idx++) {
        if (have[idx])
            out.push_back(idx);
    }
    return out;
}

bool
CellLedger::record(std::size_t idx, SimResult r, double millis)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (idx >= numCells() || have[idx])
        return false;
    // The slot's names are the cell identity (journal keys and the
    // restore lookup use them); a mismatch means a confused worker.
    if (r.workload != workload(idx) || r.config != config(idx)) {
        warn("ledger: dropping result for cell %zu with wrong identity "
             "%s/%s",
             idx, r.workload.c_str(), r.config.c_str());
        return false;
    }
    results[idx] = std::move(r);
    timings[idx].millis = millis;
    have[idx] = 1;
    if (!journal)
        return true;
    journal->append(results[idx]);
    const bool kill = engine == Engine::Fabric
                          ? faults.shouldCoordKill(workload(idx), config(idx))
                          : faults.shouldKill(workload(idx), config(idx));
    if (kill) {
        // Crash-safety hook: die like an external SIGKILL, with no
        // cleanup, right after this cell hit the journal. A resumed
        // run must finish the sweep byte-identically.
        warn("injected %skill after cell %s/%s",
             engine == Engine::Fabric ? "coordinator " : "",
             workload(idx).c_str(), config(idx).c_str());
        std::raise(SIGKILL);
    }
    return true;
}

MatrixTiming
CellLedger::summarize(double wall_seconds, unsigned jobs, bool print) const
{
    MatrixTiming t;
    t.wallSeconds = wall_seconds;
    t.cells = numCells();
    t.jobs = jobs;
    t.restoredCells = numRestored;
    for (const SimResult &res : results) {
        t.instructions += res.core.instructions;
        if (res.failed)
            t.failedCells++;
    }
    if (print) {
        const bool fabric = engine == Engine::Fabric;
        const char *who = fabric ? "fabric" : "matrix";
        inform("%s: %zu cells in %.2fs (%.2f cells/sec, %.2f Msimips, "
               "%u %s)",
               who, t.cells, t.wallSeconds, t.cellsPerSec(), t.msimips(),
               t.jobs, fabric ? "workers" : "jobs");
        if (t.failedCells > 0)
            warn("%s: %zu cell(s) failed (see failure records)", who,
                 t.failedCells);
        if (t.restoredCells > 0)
            inform("%s: %zu cell(s) restored from journal", who,
                   t.restoredCells);
    }
    return t;
}

std::vector<MatrixRow>
CellLedger::takeRows()
{
    std::vector<MatrixRow> rows(workloads.size());
    for (std::size_t wi = 0; wi < rows.size(); wi++)
        rows[wi].workload = workloads[wi];
    for (std::size_t idx = 0; idx < numCells(); idx++) {
        MatrixRow &row = rows[idx / configs.size()];
        row.results.push_back(std::move(results[idx]));
        row.timings.push_back(timings[idx]);
    }
    return rows;
}

} // namespace svr
