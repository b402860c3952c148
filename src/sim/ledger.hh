/**
 * @file
 * The cell ledger: the one place that decides how a finished sweep
 * cell is recorded. Both engines write into it — runMatrix()'s local
 * threads (sim/experiment.hh) and the fabric coordinator
 * (sim/fabric.hh) — so a cell is recorded the same way no matter
 * which process simulated it:
 *
 *  - slot: workload-major, index = workload * numConfigs + config
 *    (the flattenMatrix() order);
 *  - identity: a result must name its slot's workload and config;
 *  - restore: cells already in the restored journal cells fill their
 *    slots up front and are never simulated;
 *  - durability: each newly recorded cell is appended to the journal,
 *    then the post-journal crash hook runs (SVRSIM_FAULT kill@ for the
 *    local engine, ckill@ for the fabric coordinator);
 *  - failure records (failureRecord()) and the MatrixTiming summary.
 */

#ifndef SVR_SIM_LEDGER_HH
#define SVR_SIM_LEDGER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace svr
{

/** The deterministic record of a cell that failed with @p err. */
SimResult failureRecord(const std::string &workload,
                        const std::string &config, const SimError &err,
                        unsigned attempts);

class CellLedger
{
  public:
    /** Which engine records: picks the crash hook and summary label. */
    enum class Engine { Local, Fabric };

    /**
     * Slots for every (workload, config) cell. Cells present in
     * @p restored start complete (extra entries are ignored); each
     * newly recorded cell is appended to @p journal (may be null).
     * @p base_seed derives each cell's stream seed for its timing.
     */
    CellLedger(const std::vector<WorkloadSpec> &workloads,
               const std::vector<SimConfig> &configs,
               const JournalCells &restored, SweepJournal *journal,
               const FaultPlan &faults, std::uint64_t base_seed,
               Engine engine);

    std::size_t numCells() const { return results.size(); }
    const std::string &workload(std::size_t idx) const;
    const std::string &config(std::size_t idx) const;

    /** Is slot @p idx filled (restored or recorded)? */
    bool done(std::size_t idx) const { return have[idx] != 0; }

    /** Indices of the filled slots (before any record(): the restored
     *  cells). */
    std::vector<std::size_t> doneIndices() const;

    /**
     * Record a finished cell in slot @p idx, then journal it and run
     * the crash hook. Returns false, recording nothing, for a
     * duplicate or for a result whose identity does not match the
     * slot. Thread-safe; journal IO errors throw SimError(IoError).
     */
    bool record(std::size_t idx, SimResult r, double millis = 0.0);

    /**
     * The wall-clock summary of the sweep so far; with @p print, also
     * the "N cells in S s" line (plus failed/restored counts).
     */
    MatrixTiming summarize(double wall_seconds, unsigned jobs,
                           bool print) const;

    /** The results and timings as one row per workload (moved out). */
    std::vector<MatrixRow> takeRows();

  private:
    std::vector<std::string> workloads;
    std::vector<std::string> configs;
    SweepJournal *journal;
    const FaultPlan &faults;
    Engine engine;

    std::mutex mtx; //!< serializes record()
    std::vector<SimResult> results;
    std::vector<CellTiming> timings;
    std::vector<char> have;
    std::size_t numRestored = 0;
};

} // namespace svr

#endif // SVR_SIM_LEDGER_HH
