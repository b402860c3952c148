/**
 * @file
 * 3-wide out-of-order core matched to the in-order core's in-flight
 * capacity (Table III: ROB 32, reservation stations 32, LSQ 16).
 */

#ifndef SVR_CORE_OOO_CORE_HH
#define SVR_CORE_OOO_CORE_HH

#include <cstdint>

#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "core/commit_hook.hh"
#include "core/core_stats.hh"
#include "core/executor.hh"
#include "core/measure.hh"
#include "core/watchdog.hh"
#include "mem/memory_system.hh"

namespace svr
{

/** Out-of-order core parameters (Table III defaults). */
struct OoOParams
{
    unsigned width = 3;   //!< dispatch/commit width
    unsigned robSize = 32;
    unsigned rsSize = 32;
    unsigned lsqSize = 16;
    BranchPredictorParams bpred;
};

/**
 * Window-based out-of-order timing model: instructions dispatch in
 * program order limited by ROB/RS/LSQ occupancy and width, issue when
 * their operands are ready (dataflow), and commit in order. Memory
 * level parallelism emerges from the window, exactly the mechanism the
 * paper contrasts SVR against.
 */
class OoOCore
{
  public:
    OoOCore(const OoOParams &params, MemorySystem &memory);

    /**
     * Attach a per-commit observer (nullptr to detach). Only consulted
     * in SVR_ARCHCHECK builds; a hook set in a Release build is
     * silently never called.
     */
    void setCommitHook(CommitHook *hook) { commitHook = hook; }

    /**
     * Run until @p max_instrs commit or the program halts. A nonzero
     * budget in @p wd raises SimError(CycleBudgetExceeded /
     * NoForwardProgress) when exceeded. When @p measure has a nonzero
     * warmup, its hook receives the stats after the first
     * measure->warmupInstrs commits (which count toward
     * @p max_instrs); see core/measure.hh.
     */
    CoreStats run(Executor &exec, std::uint64_t max_instrs,
                  const WatchdogParams &wd = {},
                  const MeasureWindow *measure = nullptr);

    const BranchPredictor &branchPredictor() const { return bpred; }

  private:
    OoOParams p;
    MemorySystem &mem;
    BranchPredictor bpred;
    CommitHook *commitHook = nullptr;
};

} // namespace svr

#endif // SVR_CORE_OOO_CORE_HH
