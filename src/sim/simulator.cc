#include "sim/simulator.hh"

#include <chrono>
#include <memory>

#include "common/error.hh"
#include "common/logging.hh"
#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "imp/imp_prefetcher.hh"
#include "sim/result_fields.hh"
#include "sim/sampled_sim.hh"
#include "svr/svr_engine.hh"

namespace svr
{

/**
 * The auto cycle budget is deliberately loose — three orders of
 * magnitude above any plausible CPI — so it only ever fires on a
 * genuinely stuck run, never on a slow one.
 */
WatchdogParams
resolveWatchdog(const SimConfig &config)
{
    WatchdogParams wd;
    if (config.watchdog.maxCycles == watchdogOff) {
        wd.maxCycles = 0;
    } else if (config.watchdog.maxCycles != 0) {
        wd.maxCycles = config.watchdog.maxCycles;
    } else {
        const std::uint64_t window = config.maxInstructions;
        // Saturate: an enormous window gets an unlimited budget
        // rather than a wrapped (tiny) one.
        wd.maxCycles = window > (~std::uint64_t{0} >> 10) ? 0
                                                          : window << 10;
    }
    if (config.watchdog.maxStallCycles == watchdogOff)
        wd.maxStallCycles = 0;
    else if (config.watchdog.maxStallCycles != 0)
        wd.maxStallCycles = config.watchdog.maxStallCycles;
    else
        wd.maxStallCycles = std::uint64_t{1} << 22;
    return wd;
}

void
validateRun(const SimConfig &config, const WorkloadInstance &w)
{
    try {
        validateConfig(config);
    } catch (const SimError &e) {
        throw SimError::withCell(e, w.name, config.label);
    }
    if (!w.program || !w.mem)
        fatal("simulate: workload '%s' has no program/memory",
              w.name.c_str());
}

CoreStats
runTimingWindow(const SimConfig &config, MemorySystem &mem, Executor &exec,
                FunctionalMemory &fmem, const SimHooks &hooks,
                const WatchdogParams &wd, const TimingWindow &window)
{
    CoreStats stats;
    switch (config.core) {
      case CoreType::InOrder: {
        InOrderCore core(config.inorder, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        break;
      }
      case CoreType::InOrderImp: {
        ImpPrefetcher imp(config.imp, fmem);
        mem.setObserver(&imp);
        InOrderCore core(config.inorder, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        mem.setObserver(nullptr);
        break;
      }
      case CoreType::OutOfOrder: {
        OoOCore core(config.ooo, mem);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        break;
      }
      case CoreType::Svr: {
        SvrEngine engine(config.svr, mem, exec);
        if (window.svrIn)
            engine.importState(*window.svrIn);
        if (hooks.onSvrEngine)
            hooks.onSvrEngine(engine);
        InOrderCore core(config.inorder, mem);
        core.setRunaheadEngine(&engine);
        core.setCommitHook(hooks.commit);
        stats = core.run(exec, window.maxInstructions, wd, window.measure);
        if (hooks.onSvrEngineDone)
            hooks.onSvrEngineDone(engine);
        if (window.svrOut)
            *window.svrOut = engine.exportState();
        break;
      }
      default:
        fatal("simulate: bad core type");
    }
    return stats;
}

SimResult
simulate(const SimConfig &config, const WorkloadInstance &w)
{
    return simulate(config, w, SimHooks{});
}

SimResult
simulate(const SimConfig &config, const WorkloadInstance &w,
         const SimHooks &hooks)
{
    validateRun(config, w);
    if (config.sampling.enabled())
        return simulateSampled(config, w, hooks);

    const WatchdogParams wd = resolveWatchdog(config);

    SimResult r;
    r.workload = w.name;
    r.config = config.label;

    MemorySystem mem(config.mem);
    Executor exec(*w.program, *w.mem);
    if (hooks.onExecutor)
        hooks.onExecutor(exec);

    TimingWindow window;
    window.maxInstructions = config.maxInstructions;

    const auto t_start = std::chrono::steady_clock::now();
    r.core = runTimingWindow(config, mem, exec, *w.mem, hooks, wd, window);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t_start;
    r.hostMillis = elapsed.count();

    captureMemory(mem, r);
    recomputeResult(config, r);
    return r;
}

SimResult
simulate(const SimConfig &config, const WorkloadSpec &spec)
{
    const WorkloadInstance w = spec.make();
    return simulate(config, w);
}

namespace
{

/**
 * A runahead engine that blocks issue forever: every onIssue()
 * pushes the next issue cycle out by the watchdog's whole stall
 * budget and then some, so the core can never retire again.
 */
class StuckEngine : public RunaheadEngine
{
  public:
    Cycle
    onIssue(const DynInst &, Cycle issue_cycle) override
    {
        return issue_cycle + (Cycle{1} << 40);
    }
    void reset() override {}
    std::uint64_t transientScalars() const override { return 0; }
    std::uint64_t prefetchesIssued() const override { return 0; }
    std::uint64_t runaheadRounds() const override { return 0; }
};

} // namespace

SimResult
simulateInjectedHang(const SimConfig &config, const WorkloadInstance &w)
{
    validateRun(config, w);
    const WatchdogParams wd = resolveWatchdog(config);

    MemorySystem mem(config.mem);
    Executor exec(*w.program, *w.mem);
    StuckEngine stuck;
    InOrderCore core(config.inorder, mem);
    core.setRunaheadEngine(&stuck);
    core.run(exec, config.maxInstructions, wd);
    panic("injected hang in '%s'/'%s' completed: watchdog disabled?",
          w.name.c_str(), config.label.c_str());
}

} // namespace svr
