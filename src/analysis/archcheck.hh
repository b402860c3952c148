/**
 * @file
 * ArchCheck: lockstep cross-validation of a timing run against a
 * second, independent functional execution.
 *
 * The timing models are functional-first — they replay the Executor's
 * dynamic stream — so a modelling bug cannot corrupt architectural
 * values, but bugs in the Executor, the memory system's functional
 * half, or SVR's speculative machinery can. ArchCheck catches those
 * the way accurate-model efforts validate against a reference design:
 * it builds a *twin* workload instance (WorkloadSpec factories
 * guarantee bit-identical initial state), steps a reference Executor
 * one instruction per commit, and panics on the first divergence in
 * instruction identity, operand values, results, effective addresses,
 * branch outcomes, the full architectural register file + flags, or
 * store write-back values in functional memory.
 *
 * On SVR runs it additionally asserts the paper's safety contract:
 *  - speculative state never leaks architecturally — outside
 *    piggyback runahead no register is tainted, and the lockstep
 *    register compare proves the SRF never wrote back;
 *  - divergence masks only ever clear lanes within a round;
 *  - engine counters (rounds/scalars/prefetches/masked lanes) are
 *    monotone.
 *
 * The per-commit hook only fires in SVR_ARCHCHECK builds (default ON,
 * forced OFF for CMAKE_BUILD_TYPE=Release), so release bench numbers
 * never pay for it; use ArchCheck::enabled() to gate tests.
 */

#ifndef SVR_ANALYSIS_ARCHCHECK_HH
#define SVR_ANALYSIS_ARCHCHECK_HH

#include <cstdint>
#include <vector>

#include "core/commit_hook.hh"
#include "core/executor.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace svr
{

class SvrEngine;

/** Lockstep validator; one instance per simulation run. */
class ArchCheck : public CommitHook
{
  public:
    /**
     * @param twin a second instance of the run's workload, made by the
     *             same WorkloadSpec factory (bit-identical contract).
     */
    explicit ArchCheck(WorkloadInstance twin);

    /**
     * Lockstep from mid-region: @p twin's memory is already a fork of
     * the resumed machine's frozen image, and the reference executor
     * imports @p arch, so it starts exactly where that machine stopped.
     * Lets fuzzers validate a resumed run against the same contract as
     * a from-scratch run.
     */
    ArchCheck(WorkloadInstance twin, const ExecArchState &arch);

    /** True when the cores' per-commit call sites are compiled in. */
    static constexpr bool
    enabled()
    {
#ifdef SVR_ARCHCHECK_ENABLED
        return true;
#else
        return false;
#endif
    }

    /** Hooks wired to this checker, to pass to simulate(). */
    SimHooks hooks();

    void onCommit(const DynInst &dyn, Cycle commit_cycle) override;

    /**
     * End-of-run check: panics if nothing was validated in a build
     * where the hook should have fired.
     */
    void finish() const;

    /** Commits validated so far. */
    std::uint64_t commitsChecked() const { return checked; }

  private:
    void checkDynInst(const DynInst &dyn, const DynInst &ref) const;
    void checkArchState(const DynInst &dyn) const;
    void checkStore(const DynInst &dyn) const;
    void checkSvr(const DynInst &dyn);

    WorkloadInstance twin;
    Executor refExec;

    const Executor *mainExec = nullptr;
    const SvrEngine *engine = nullptr;

    std::uint64_t checked = 0;
    Cycle lastCommitCycle = 0;

    // SVR invariant state carried between commits.
    bool wasInRunahead = false;
    std::uint64_t lastRounds = 0;
    std::uint64_t lastScalars = 0;
    std::uint64_t lastPrefetches = 0;
    std::uint64_t lastMaskedLanes = 0;
    std::vector<bool> lastMask;
};

/**
 * Convenience: run @p spec under @p config with ArchCheck attached.
 * In builds without SVR_ARCHCHECK this degrades to a plain simulate()
 * (with a warning), so callers can invoke it unconditionally.
 */
SimResult simulateLockstep(const SimConfig &config, const WorkloadSpec &spec);

} // namespace svr

#endif // SVR_ANALYSIS_ARCHCHECK_HH
