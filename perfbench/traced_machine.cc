#include "traced_machine.hh"

#include <chrono>
#include <vector>

#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "core/runahead_iface.hh"
#include "imp/imp_prefetcher.hh"
#include "svr/svr_engine.hh"

namespace svrbench
{

using namespace svr;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Times every onIssue() of the wrapped engine; forwards the rest. */
class TimedRunahead : public RunaheadEngine
{
  public:
    explicit TimedRunahead(RunaheadEngine &inner) : inner(inner) {}

    Cycle
    onIssue(const DynInst &dyn, Cycle issue_cycle) override
    {
        const auto t0 = Clock::now();
        const Cycle next = inner.onIssue(dyn, issue_cycle);
        span.ns += nsSince(t0);
        span.calls++;
        return next;
    }
    void reset() override { inner.reset(); }
    std::uint64_t
    transientScalars() const override
    {
        return inner.transientScalars();
    }
    std::uint64_t
    prefetchesIssued() const override
    {
        return inner.prefetchesIssued();
    }
    std::uint64_t
    runaheadRounds() const override
    {
        return inner.runaheadRounds();
    }

    Span span;

  private:
    RunaheadEngine &inner;
};

/** Times every observeLoad() of the wrapped cache-side prefetcher. */
class TimedObserver : public DemandObserver
{
  public:
    explicit TimedObserver(DemandObserver &inner) : inner(inner) {}

    void
    observeLoad(Addr pc, Addr addr, bool l1_hit,
                std::vector<Addr> &out) override
    {
        const auto t0 = Clock::now();
        inner.observeLoad(pc, addr, l1_hit, out);
        span.ns += nsSince(t0);
        span.calls++;
    }

    Span span;

  private:
    DemandObserver &inner;
};

template <typename Core>
CoreStats
timedRun(Core &core, Executor &exec, const SimConfig &config,
         const WatchdogParams &wd, Span &run)
{
    const auto t0 = Clock::now();
    CoreStats stats = core.run(exec, config.maxInstructions, wd);
    run.ns += nsSince(t0);
    run.calls++;
    return stats;
}

} // namespace

TracedCell
runTracedCell(const WorkloadSpec &spec, const SimConfig &config)
{
    TracedCell cell;
    const auto t_make = Clock::now();
    const WorkloadInstance w = spec.make();
    cell.make = {nsSince(t_make), 1};

    // From here on this is simulate() for a full-detail cell, with the
    // proxies spliced in where the core calls through an interface.
    validateConfig(config);
    const WatchdogParams wd = resolveWatchdog(config);
    SimResult &r = cell.result;
    r.workload = w.name;
    r.config = config.label;

    MemorySystem mem(config.mem);
    Executor exec(*w.program, *w.mem);
    PrefetchOrigin origin = PrefetchOrigin::Stride;
    switch (config.core) {
      case CoreType::InOrder: {
        InOrderCore core(config.inorder, mem);
        r.core = timedRun(core, exec, config, wd, cell.run);
        break;
      }
      case CoreType::InOrderImp: {
        ImpPrefetcher imp(config.imp, *w.mem);
        TimedObserver proxy(imp);
        mem.setObserver(&proxy);
        InOrderCore core(config.inorder, mem);
        r.core = timedRun(core, exec, config, wd, cell.run);
        mem.setObserver(nullptr);
        cell.proxied = proxy.span;
        origin = PrefetchOrigin::Imp;
        break;
      }
      case CoreType::OutOfOrder: {
        OoOCore core(config.ooo, mem);
        r.core = timedRun(core, exec, config, wd, cell.run);
        break;
      }
      case CoreType::Svr: {
        SvrEngine engine(config.svr, mem, exec);
        TimedRunahead proxy(engine);
        InOrderCore core(config.inorder, mem);
        core.setRunaheadEngine(&proxy);
        r.core = timedRun(core, exec, config, wd, cell.run);
        cell.proxied = proxy.span;
        origin = PrefetchOrigin::Svr;
        break;
      }
    }
    cell.llcUsed = mem.llcPrefFirstUse(origin);
    cell.llcUnused = mem.llcPrefEvictedUnused(origin);

    r.l1dHits = mem.l1d().hits;
    r.l1dMisses = mem.l1d().misses;
    r.l2Hits = mem.l2().hits;
    r.l2Misses = mem.l2().misses;
    r.dramTransfers = mem.dram().transfers();
    r.traffic = mem.dramTraffic();
    r.tlbWalks = mem.translation().walks;
    for (unsigned i = 0; i < numPrefetchOrigins; i++)
        r.prefIssued[i] = mem.prefIssued(static_cast<PrefetchOrigin>(i));
    r.svrAccuracyLlc = mem.llcPrefetchAccuracy(PrefetchOrigin::Svr);
    r.impAccuracyLlc = mem.llcPrefetchAccuracy(PrefetchOrigin::Imp);
    r.strideAccuracyLlc = mem.llcPrefetchAccuracy(PrefetchOrigin::Stride);

    const CoreKind kind = config.core == CoreType::OutOfOrder
                              ? CoreKind::OutOfOrder
                              : CoreKind::InOrder;
    MemEnergyEvents ev;
    ev.l1Accesses = mem.l1d().hits + mem.l1d().misses + mem.l1i().hits +
                    mem.l1i().misses;
    ev.l2Accesses = mem.l2().hits + mem.l2().misses;
    ev.dramTransfers = mem.dram().transfers();
    r.energy = computeEnergy(kind, config.core == CoreType::Svr, r.core, ev,
                             config.energy);
    return cell;
}

Span
probeExecutor(const WorkloadSpec &spec, std::uint64_t n)
{
    const WorkloadInstance w = spec.make();
    Executor exec(*w.program, *w.mem);
    const auto t0 = Clock::now();
    const std::uint64_t ran = exec.run(n);
    return {nsSince(t0), ran};
}

Span
probeMemReplay(const WorkloadSpec &spec, std::uint64_t n,
               const MemParams &params)
{
    struct Ref
    {
        AccessKind kind;
        Addr pc;
        Addr addr;
        Cycle at;
    };
    std::vector<Ref> refs;
    {
        const WorkloadInstance w = spec.make();
        Executor exec(*w.program, *w.mem);
        for (std::uint64_t i = 0; i < n && !exec.halted(); i++) {
            const DynInst dyn = exec.step();
            // The stream a 1-IPC core would issue: one instruction per
            // cycle, demand accesses at issue, a fetch at each taken
            // control transfer (what the timing cores fetch).
            if (dyn.si->isLoad())
                refs.push_back({AccessKind::Load, dyn.pc, dyn.addr, i});
            else if (dyn.si->isStore())
                refs.push_back({AccessKind::Store, dyn.pc, dyn.addr, i});
            else if (dyn.si->op == Opcode::Jmp ||
                     (dyn.si->isCondBranch() && dyn.taken))
                refs.push_back({AccessKind::Ifetch, dyn.targetPc, 0, i});
        }
    }
    MemorySystem mem(params);
    const auto t0 = Clock::now();
    for (const Ref &ref : refs) {
        if (ref.kind == AccessKind::Ifetch)
            mem.instrFetch(ref.pc, ref.at);
        else
            mem.access(ref.kind, ref.pc, ref.addr, ref.at);
    }
    return {nsSince(t0), refs.size()};
}

} // namespace svrbench
