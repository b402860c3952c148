/**
 * @file
 * Experiment helpers shared by the bench harnesses: run a matrix of
 * (workload x config) — in parallel via parallelFor() — aggregate,
 * and print paper-style tables.
 *
 * Determinism contract: runMatrix() output (results, their order, and
 * every per-cell metric) is bit-identical for any job count. Each
 * cell is an independent simulation with its own seed-derived RNG
 * stream (Rng::cellSeed(base, workload, config)), and results are
 * recorded into preallocated slots keyed by (workload, config) index
 * (the cell ledger, sim/ledger.hh), so scheduling never reorders or
 * perturbs anything. Only the progress lines on stderr and the
 * wall-clock timings may vary.
 */

#ifndef SVR_SIM_EXPERIMENT_HH
#define SVR_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace svr
{

/** Host-side measurement of one simulated cell (not deterministic). */
struct CellTiming
{
    double millis = 0.0;          //!< wall-clock time for the cell
    std::uint64_t streamSeed = 0; //!< derived RNG stream seed (replayable)
};

/** All results for one workload across the config set. */
struct MatrixRow
{
    std::string workload;
    std::vector<SimResult> results;   //!< one per config, same order
    std::vector<CellTiming> timings;  //!< parallel to results
};

/** Knobs for the parallel experiment engine. */
struct MatrixOptions
{
    /** Worker threads; 0 = SVRSIM_JOBS env, else hardware threads. */
    unsigned jobs = 0;
    /** Base seed every per-cell RNG stream is derived from. */
    std::uint64_t baseSeed = 0x5eed5eed5eed5eedULL;
    /** Emit one inform() line per finished workload. */
    bool progress = true;
    /** Emit the aggregate "N cells in S s (R cells/sec)" line. */
    bool summary = true;

    /**
     * Fault isolation. With keepGoing a cell whose simulation throws
     * a SimError becomes a deterministic failure record (see
     * SimResult::failed) and the rest of the matrix still runs;
     * without it (default) the first failed cell aborts runMatrix()
     * with that SimError, preserving the historical fail-fast
     * behaviour. Each cell gets up to maxAttempts tries before its
     * failure is recorded.
     */
    bool keepGoing = false;
    unsigned maxAttempts = 1;

    /** Injected faults (tests / SVRSIM_FAULT); empty = none. */
    FaultPlan faultPlan;

    /**
     * Cells an earlier run already completed (a resumed journal,
     * merged shards): restored into their slots, never simulated.
     */
    JournalCells restored;

    /**
     * Journal each newly simulated cell is appended to (then the
     * SVRSIM_FAULT kill@ hook runs); null = no journal. Records
     * follow completion order: only their set is deterministic.
     */
    SweepJournal *journal = nullptr;
};

/** Host-side wall-clock summary of one runMatrix() call. */
struct MatrixTiming
{
    double wallSeconds = 0.0;
    std::size_t cells = 0;
    unsigned jobs = 1;
    /** Simulated instructions summed over every cell. */
    std::uint64_t instructions = 0;
    /** Cells recorded as failed (keep-going mode). */
    std::size_t failedCells = 0;
    /** Cells restored from a journal instead of simulated. */
    std::size_t restoredCells = 0;
    double cellsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(cells) / wallSeconds
                   : 0.0;
    }
    /**
     * Aggregate simulated instructions per host second, in millions —
     * every sweep doubles as a sim-speed measurement (tracked over
     * time in BENCH_simspeed.json).
     */
    double msimips() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) /
                         (wallSeconds * 1e6)
                   : 0.0;
    }
};

/**
 * Run one (workload, config) cell with the engine's fault isolation:
 * legacy panic()/fatal() sites captured as SimErrors, injected faults
 * applied, up to opts.maxAttempts tries. On final failure either
 * rethrows (fail-fast) or returns a deterministic failure record
 * (opts.keepGoing). The result carries the cell identity (spec.name,
 * config.label). This is the exact per-cell path runMatrix() uses;
 * the distributed fabric workers (sim/fabric.hh) call it directly so
 * a cell computes the same bytes no matter which process runs it.
 */
SimResult runIsolatedCell(const WorkloadSpec &spec, const SimConfig &config,
                          const MatrixOptions &opts);

/**
 * Simulate every workload under every config, sharding the cells
 * across opts.jobs threads. Results are ordered workload-major exactly
 * like the historical serial loop. If @p timing is non-null it
 * receives the aggregate wall-clock summary.
 */
std::vector<MatrixRow> runMatrix(const std::vector<WorkloadSpec> &workloads,
                                 const std::vector<SimConfig> &configs,
                                 const MatrixOptions &opts,
                                 MatrixTiming *timing = nullptr);

/** runMatrix() with default options (auto jobs, progress lines). */
std::vector<MatrixRow> runMatrix(const std::vector<WorkloadSpec> &workloads,
                                 const std::vector<SimConfig> &configs);

/** Flatten a matrix into workload-major result order (sweep output). */
std::vector<SimResult> flattenMatrix(const std::vector<MatrixRow> &matrix);

/** Harmonic-mean IPC per config over the matrix. */
std::vector<double> harmonicMeanIpc(const std::vector<MatrixRow> &matrix);

/**
 * Harmonic-mean speedup per config, normalized to config index
 * @p baseline (per-workload IPC ratios, then harmonic mean).
 */
std::vector<double> meanSpeedup(const std::vector<MatrixRow> &matrix,
                                std::size_t baseline);

/** Arithmetic-mean energy-per-instruction per config [nJ]. */
std::vector<double> meanEnergyPerInstr(const std::vector<MatrixRow> &matrix);

/** Print a metric table: one row per workload, one column per config. */
void printMetricTable(const std::vector<MatrixRow> &matrix,
                      const std::vector<std::string> &config_labels,
                      const std::string &metric_name,
                      double (*metric)(const SimResult &));

/** Fixed-width cell printing helpers. */
void printHeader(const std::string &first,
                 const std::vector<std::string> &labels);
void printRow(const std::string &name, const std::vector<double> &values);

} // namespace svr

#endif // SVR_SIM_EXPERIMENT_HH
