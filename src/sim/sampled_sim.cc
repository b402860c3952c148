#include "sim/sampled_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/executor.hh"
#include "svr/svr_engine.hh"

namespace svr
{

std::optional<FastForwardLadder::Rung>
FastForwardLadder::find(SeqNum seq) const
{
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = rungs.find(seq);
    if (it == rungs.end())
        return std::nullopt;
    return it->second;
}

void
FastForwardLadder::publish(SeqNum seq, Rung rung)
{
    std::lock_guard<std::mutex> lock(mtx);
    rungs.try_emplace(seq, std::move(rung));
}

namespace
{

/**
 * Advance @p exec (over @p mem) by up to @p n instructions: restore
 * the rung at the target from @p ladder if it has one, else execute
 * functionally and, on reaching the target unhalted, publish it there.
 * Returns the number of instructions advanced (short when the program
 * halts); adds those it executed to @p r.fastForwarded.
 */
std::uint64_t
fastForward(Executor &exec, FunctionalMemory &mem, FastForwardLadder *ladder,
            std::uint64_t n, SimResult &r)
{
    if (n == 0)
        return 0;
    const SeqNum target = exec.instructionsExecuted() + n;
    if (ladder) {
        if (std::optional<FastForwardLadder::Rung> rung =
                ladder->find(target)) {
            exec.importArchState(rung->arch);
            mem = FunctionalMemory(std::move(rung->mem));
            return n;
        }
    }
    const std::uint64_t done = exec.run(n);
    r.fastForwarded += done;
    if (ladder && done == n && !exec.halted()) {
        // Freeze the memory into the rung's image and go on on a fork
        // of it: the image is never written again.
        auto image =
            std::make_shared<const FunctionalMemory::Image>(std::move(mem));
        mem = FunctionalMemory(image);
        ladder->publish(target, {exec.exportArchState(), std::move(image)});
    }
    return done;
}

/** Every memory-side counter a SimResult reports, snapshot-able. */
struct MemCounters
{
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramTransfers = 0;
    DramTraffic traffic;
    std::uint64_t tlbWalks = 0;
    std::uint64_t prefIssued[numPrefetchOrigins] = {};
    std::uint64_t llcPrefFirstUse[numPrefetchOrigins] = {};
    std::uint64_t llcPrefEvictedUnused[numPrefetchOrigins] = {};
};

MemCounters
captureCounters(const MemorySystem &mem)
{
    MemCounters c;
    c.l1dHits = mem.l1d().hits;
    c.l1dMisses = mem.l1d().misses;
    c.l1iHits = mem.l1i().hits;
    c.l1iMisses = mem.l1i().misses;
    c.l2Hits = mem.l2().hits;
    c.l2Misses = mem.l2().misses;
    c.dramTransfers = mem.dram().transfers();
    c.traffic = mem.dramTraffic();
    c.tlbWalks = mem.translation().walks;
    for (unsigned i = 0; i < numPrefetchOrigins; i++) {
        const auto origin = static_cast<PrefetchOrigin>(i);
        c.prefIssued[i] = mem.prefIssued(origin);
        c.llcPrefFirstUse[i] = mem.llcPrefFirstUse(origin);
        c.llcPrefEvictedUnused[i] = mem.llcPrefEvictedUnused(origin);
    }
    return c;
}

MemCounters
operator-(const MemCounters &a, const MemCounters &b)
{
    MemCounters d;
    d.l1dHits = a.l1dHits - b.l1dHits;
    d.l1dMisses = a.l1dMisses - b.l1dMisses;
    d.l1iHits = a.l1iHits - b.l1iHits;
    d.l1iMisses = a.l1iMisses - b.l1iMisses;
    d.l2Hits = a.l2Hits - b.l2Hits;
    d.l2Misses = a.l2Misses - b.l2Misses;
    d.dramTransfers = a.dramTransfers - b.dramTransfers;
    d.traffic.demandData = a.traffic.demandData - b.traffic.demandData;
    d.traffic.demandIfetch = a.traffic.demandIfetch - b.traffic.demandIfetch;
    d.traffic.prefStride = a.traffic.prefStride - b.traffic.prefStride;
    d.traffic.prefSvr = a.traffic.prefSvr - b.traffic.prefSvr;
    d.traffic.prefImp = a.traffic.prefImp - b.traffic.prefImp;
    d.traffic.writebacks = a.traffic.writebacks - b.traffic.writebacks;
    d.tlbWalks = a.tlbWalks - b.tlbWalks;
    for (unsigned i = 0; i < numPrefetchOrigins; i++) {
        d.prefIssued[i] = a.prefIssued[i] - b.prefIssued[i];
        d.llcPrefFirstUse[i] =
            a.llcPrefFirstUse[i] - b.llcPrefFirstUse[i];
        d.llcPrefEvictedUnused[i] =
            a.llcPrefEvictedUnused[i] - b.llcPrefEvictedUnused[i];
    }
    return d;
}

/**
 * Extrapolate one window counter to its whole period. The ratio-1
 * case (degenerate configs, where the window covers everything it
 * represents) stays exactly integral rather than round-tripping
 * through a double.
 */
std::uint64_t
scaled(std::uint64_t v, std::uint64_t represented, std::uint64_t measured)
{
    if (represented == measured)
        return v;
    const double ratio = static_cast<double>(represented) /
                         static_cast<double>(measured);
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * ratio));
}

/** Accuracy from summed first-use / evicted-unused deltas. */
double
accuracyOf(std::uint64_t used, std::uint64_t unused)
{
    if (used + unused == 0)
        return 1.0;
    return static_cast<double>(used) / static_cast<double>(used + unused);
}

} // namespace

SimResult
simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                const SimHooks &hooks,
                std::vector<SampleWindow> *windows_out)
{
    validateConfig(config);
    if (!config.sampling.enabled())
        fatal("simulateSampled: config '%s' has sampling disabled",
              config.label.c_str());
    if (!w.program || !w.mem)
        fatal("simulate: workload '%s' has no program/memory",
              w.name.c_str());
    if (hooks.commit) {
        ErrContext ctx;
        ctx.workload = w.name;
        ctx.config = config.label;
        throw simErrorf(ErrCode::ConfigInvalid, ctx,
                        "config '%s': sampling is incompatible with "
                        "per-commit hooks (lockstep validation needs "
                        "every commit; run without --sample-every)",
                        config.label.c_str());
    }

    const SamplingParams &sp = config.sampling;
    const WatchdogParams wd = resolveWatchdog(config);

    SimResult r;
    r.workload = w.name;
    r.config = config.label;
    r.sampled = true;

    Executor exec(*w.program, *w.mem);
    if (hooks.onExecutor)
        hooks.onExecutor(exec);

    // SVR predictor state carried window to window (warm SRAM).
    SvrEngineSnapshot svr_state;
    bool have_svr = false;

    MemCounters est;                   // whole-region counter estimates
    std::uint64_t est_l1_accesses = 0; // energy-model inputs
    std::uint64_t est_l2_accesses = 0;
    std::uint64_t llc_used[numPrefetchOrigins] = {};
    std::uint64_t llc_unused[numPrefetchOrigins] = {};
    std::vector<double> cpis;
    std::uint64_t done = 0;      //!< region instructions executed so far
    std::uint64_t measured = 0;  //!< instructions measured in detail
    std::uint64_t unsampled = 0; //!< executed under no window at all

    const auto t_start = std::chrono::steady_clock::now();
    while (done < config.maxInstructions && !exec.halted()) {
        const std::uint64_t period =
            std::min(sp.sampleEvery, config.maxInstructions - done);
        const std::uint64_t window_target = std::min(sp.sampleWindow, period);
        const std::uint64_t warmup_target =
            std::min(sp.warmup, period - window_target);
        const std::uint64_t ff_target =
            period - window_target - warmup_target;

        const std::uint64_t ffed =
            fastForward(exec, *w.mem, w.ladder.get(), ff_target, r);
        done += ffed;
        if (ffed < ff_target || exec.halted()) {
            unsampled += ffed;
            break;
        }

        // Fresh timing state per window; the detailed warmup (not the
        // previous window's stale image) populates it.
        MemorySystem mem(config.mem);
        MemCounters at_measure; // all-zero == fresh-memory baseline
        MeasureWindow mw;
        mw.warmupInstrs = warmup_target;
        mw.onMeasureStart = [&] { at_measure = captureCounters(mem); };

        TimingWindow tw;
        tw.maxInstructions = warmup_target + window_target;
        tw.measure = warmup_target ? &mw : nullptr;
        tw.svrIn = have_svr ? &svr_state : nullptr;
        tw.svrOut = &svr_state;

        const std::uint64_t seq_before = exec.exportArchState().seq;
        const CoreStats ws =
            runTimingWindow(config, mem, exec, *w.mem, hooks, wd, tw);
        const std::uint64_t committed =
            exec.exportArchState().seq - seq_before;
        done += committed;
        have_svr = config.core == CoreType::Svr;

        if (ws.instructions == 0) {
            unsampled += committed;
            continue;
        }

        // Everything this period executed — fast-forward, warmup, and
        // the measured window itself — is represented by the window.
        const std::uint64_t represented = ffed + committed;
        const MemCounters delta = captureCounters(mem) - at_measure;

        r.core.cycles += scaled(ws.cycles, represented, ws.instructions);
        r.core.loads += scaled(ws.loads, represented, ws.instructions);
        r.core.stores += scaled(ws.stores, represented, ws.instructions);
        r.core.branches +=
            scaled(ws.branches, represented, ws.instructions);
        r.core.branchMispredicts +=
            scaled(ws.branchMispredicts, represented, ws.instructions);
        r.core.transientScalars +=
            scaled(ws.transientScalars, represented, ws.instructions);
        r.core.svrPrefetches +=
            scaled(ws.svrPrefetches, represented, ws.instructions);
        r.core.svrRounds +=
            scaled(ws.svrRounds, represented, ws.instructions);
        r.core.stackL2 += scaled(ws.stackL2, represented, ws.instructions);
        r.core.stackDram +=
            scaled(ws.stackDram, represented, ws.instructions);
        r.core.stackBranch +=
            scaled(ws.stackBranch, represented, ws.instructions);
        r.core.stackSvu +=
            scaled(ws.stackSvu, represented, ws.instructions);
        r.core.stackOther +=
            scaled(ws.stackOther, represented, ws.instructions);

        est.l1dHits += scaled(delta.l1dHits, represented, ws.instructions);
        est.l1dMisses +=
            scaled(delta.l1dMisses, represented, ws.instructions);
        est.l2Hits += scaled(delta.l2Hits, represented, ws.instructions);
        est.l2Misses +=
            scaled(delta.l2Misses, represented, ws.instructions);
        est.dramTransfers +=
            scaled(delta.dramTransfers, represented, ws.instructions);
        est.traffic.demandData +=
            scaled(delta.traffic.demandData, represented, ws.instructions);
        est.traffic.demandIfetch += scaled(delta.traffic.demandIfetch,
                                           represented, ws.instructions);
        est.traffic.prefStride +=
            scaled(delta.traffic.prefStride, represented, ws.instructions);
        est.traffic.prefSvr +=
            scaled(delta.traffic.prefSvr, represented, ws.instructions);
        est.traffic.prefImp +=
            scaled(delta.traffic.prefImp, represented, ws.instructions);
        est.traffic.writebacks +=
            scaled(delta.traffic.writebacks, represented, ws.instructions);
        est.tlbWalks += scaled(delta.tlbWalks, represented, ws.instructions);
        for (unsigned i = 0; i < numPrefetchOrigins; i++) {
            est.prefIssued[i] +=
                scaled(delta.prefIssued[i], represented, ws.instructions);
            llc_used[i] += delta.llcPrefFirstUse[i];
            llc_unused[i] += delta.llcPrefEvictedUnused[i];
        }
        est_l1_accesses +=
            scaled(delta.l1dHits + delta.l1dMisses + delta.l1iHits +
                       delta.l1iMisses,
                   represented, ws.instructions);
        est_l2_accesses += scaled(delta.l2Hits + delta.l2Misses,
                                  represented, ws.instructions);

        const double cpi = static_cast<double>(ws.cycles) /
                           static_cast<double>(ws.instructions);
        cpis.push_back(cpi);
        measured += ws.instructions;
        if (windows_out) {
            SampleWindow sw;
            sw.startInstruction = done - ws.instructions;
            sw.warmup = committed - ws.instructions;
            sw.measured = ws.instructions;
            sw.cycles = ws.cycles;
            sw.cpi = cpi;
            windows_out->push_back(sw);
        }
    }

    // A tail the program-halt cut off before any window could measure
    // it: extrapolate its cycles at the region's mean sampled CPI.
    if (unsampled > 0 && !cpis.empty()) {
        r.core.cycles += static_cast<std::uint64_t>(std::llround(
            arithmeticMean(cpis) * static_cast<double>(unsampled)));
    }

    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t_start;
    r.hostMillis = elapsed.count();

    r.core.instructions = done; // exact, not an estimate
    r.sampleWindows = cpis.size();
    r.measuredInstructions = measured;
    r.cpiStderr =
        cpis.size() > 1
            ? sampleStdDev(cpis) / std::sqrt(static_cast<double>(cpis.size()))
            : 0.0;

    r.l1dHits = est.l1dHits;
    r.l1dMisses = est.l1dMisses;
    r.l2Hits = est.l2Hits;
    r.l2Misses = est.l2Misses;
    r.dramTransfers = est.dramTransfers;
    r.traffic = est.traffic;
    r.tlbWalks = est.tlbWalks;
    for (unsigned i = 0; i < numPrefetchOrigins; i++)
        r.prefIssued[i] = est.prefIssued[i];
    const auto idx = [](PrefetchOrigin o) {
        return static_cast<unsigned>(o);
    };
    r.svrAccuracyLlc = accuracyOf(llc_used[idx(PrefetchOrigin::Svr)],
                                  llc_unused[idx(PrefetchOrigin::Svr)]);
    r.impAccuracyLlc = accuracyOf(llc_used[idx(PrefetchOrigin::Imp)],
                                  llc_unused[idx(PrefetchOrigin::Imp)]);
    r.strideAccuracyLlc =
        accuracyOf(llc_used[idx(PrefetchOrigin::Stride)],
                   llc_unused[idx(PrefetchOrigin::Stride)]);

    const CoreKind kind = config.core == CoreType::OutOfOrder
                              ? CoreKind::OutOfOrder
                              : CoreKind::InOrder;
    MemEnergyEvents ev;
    ev.l1Accesses = est_l1_accesses;
    ev.l2Accesses = est_l2_accesses;
    ev.dramTransfers = est.dramTransfers;
    r.energy = computeEnergy(kind, config.core == CoreType::Svr, r.core, ev,
                             config.energy);
    return r;
}

} // namespace svr
