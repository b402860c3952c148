#include "sim/sampled_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/executor.hh"
#include "sim/result_fields.hh"
#include "svr/svr_engine.hh"

namespace svr
{

std::optional<Checkpoint>
FastForwardLadder::find(SeqNum seq) const
{
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = rungs.find(seq);
    if (it == rungs.end())
        return std::nullopt;
    return it->second;
}

void
FastForwardLadder::publish(Checkpoint rung)
{
    const SeqNum seq = rung.arch.seq;
    std::lock_guard<std::mutex> lock(mtx);
    rungs.try_emplace(seq, std::move(rung));
}

namespace
{

/**
 * Advance @p exec (over @p w's memory) by up to @p n instructions:
 * restore the rung at the target from @p w's ladder if it has one,
 * else execute functionally and, on reaching the target unhalted,
 * capture and publish a rung there. Returns the number of
 * instructions advanced (short when the program halts); adds those it
 * executed to @p r.fastForwarded.
 */
std::uint64_t
fastForward(Executor &exec, const WorkloadInstance &w, std::uint64_t n,
            SimResult &r)
{
    if (n == 0)
        return 0;
    FastForwardLadder *ladder = w.ladder.get();
    if (ladder) {
        if (const std::optional<Checkpoint> rung =
                ladder->find(exec.instructionsExecuted() + n)) {
            restoreCheckpoint(*rung, exec, *w.mem);
            return n;
        }
    }
    const std::uint64_t done = exec.run(n);
    r.fastForwarded += done;
    if (ladder && done == n && !exec.halted())
        ladder->publish(captureCheckpoint(exec, *w.mem, w.name));
    return done;
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

} // namespace

SimResult
simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                const SimHooks &hooks,
                std::vector<SampleWindow> *windows_out)
{
    validateRun(config, w);
    if (!config.sampling.enabled())
        fatal("simulateSampled: config '%s' has sampling disabled",
              config.label.c_str());
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

        const std::uint64_t ffed = fastForward(exec, w, ff_target, r);
        done += ffed;
        if (ffed < ff_target || exec.halted()) {
            unsampled += ffed;
            break;
        }

        // Fresh timing state per window; the detailed warmup (not the
        // previous window's stale image) populates it.
        MemorySystem mem(config.mem);
        SimResult at_measure; // zero counters == fresh-machine baseline
        MeasureWindow mw;
        mw.warmupInstrs = warmup_target;
        mw.onMeasureStart = [&](const CoreStats &base) {
            at_measure.core = base;
            captureMemory(mem, at_measure);
        };

        TimingWindow tw;
        tw.maxInstructions = warmup_target + window_target;
        tw.measure = warmup_target ? &mw : nullptr;
        tw.svrIn = have_svr ? &svr_state : nullptr;
        tw.svrOut = &svr_state;

        // The window's counters from the warmup boundary on.
        const std::uint64_t seq_before = exec.exportArchState().seq;
        SimResult delta;
        delta.core = runTimingWindow(config, mem, exec, *w.mem, hooks, wd, tw);
        captureMemory(mem, delta);
        subtractResult(delta, at_measure);
        const CoreStats &ws = delta.core;
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
        for (const ResultField &f : resultFields()) {
            if (f.stitch == Stitch::Scaled)
                f.u64Ref(r) +=
                    scaled(f.u64(delta), represented, ws.instructions);
            else if (f.stitch == Stitch::Summed)
                f.u64Ref(r) += f.u64(delta);
        }

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

    recomputeResult(config, r);
    return r;
}

} // namespace svr
