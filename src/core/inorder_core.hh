/**
 * @file
 * 3-wide stall-on-use in-order core modelled after the Arm Cortex-A510
 * (Table III): scoreboard issue, no load/store queues, hybrid branch
 * predictor, and an optional piggyback-runahead (SVR) engine.
 */

#ifndef SVR_CORE_INORDER_CORE_HH
#define SVR_CORE_INORDER_CORE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "core/commit_hook.hh"
#include "core/core_stats.hh"
#include "core/executor.hh"
#include "core/measure.hh"
#include "core/runahead_iface.hh"
#include "core/watchdog.hh"
#include "mem/memory_system.hh"

namespace svr
{

/** In-order core parameters (Table III defaults). */
struct InOrderParams
{
    unsigned width = 3;             //!< dispatch/commit width
    unsigned scoreboardEntries = 32;
    BranchPredictorParams bpred;
};

/**
 * Timing model of a stall-on-use in-order superscalar.
 *
 * The model tracks per-register ready cycles: an instruction issues at
 * the earliest cycle >= the previous instruction's issue cycle (strict
 * program order) at which all its sources are ready and an issue slot
 * is free. Loads do not stall the pipeline until their value is used
 * (stall-on-use); concurrent misses are bounded by the L1 MSHRs.
 */
class InOrderCore
{
  public:
    InOrderCore(const InOrderParams &params, MemorySystem &memory);

    /** Attach a piggyback-runahead engine (nullptr to detach). */
    void setRunaheadEngine(RunaheadEngine *engine) { runahead = engine; }

    /**
     * Attach a per-commit observer (nullptr to detach). Only consulted
     * in SVR_ARCHCHECK builds; a hook set in a Release build is
     * silently never called.
     */
    void setCommitHook(CommitHook *hook) { commitHook = hook; }

    /**
     * Run the timing simulation until @p max_instrs program
     * instructions have committed or the program halts. A nonzero
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
    InOrderParams p;
    MemorySystem &mem;
    BranchPredictor bpred;
    RunaheadEngine *runahead = nullptr;
    CommitHook *commitHook = nullptr;
};

} // namespace svr

#endif // SVR_CORE_INORDER_CORE_HH
