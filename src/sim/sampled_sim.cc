#include "sim/sampled_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/executor.hh"
#include "sim/result_fields.hh"
#include "svr/svr_engine.hh"

namespace svr
{

namespace
{

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

/** One config's side of a window-major row. */
struct Lane
{
    const SimConfig *config = nullptr;
    SimResult r;
    SvrEngineSnapshot svr; //!< predictor state carried (warm SRAM)
    bool haveSvr = false;
    std::vector<SampleWindow> windows;
    std::uint64_t unsampled = 0; //!< executed under no window at all
    double millis = 0.0;         //!< host time of its warmups and windows
};

/**
 * Run @p lane's warmup and window on @p exec, positioned over @p fmem
 * at the window start, and stitch the measurement into the lane;
 * @p ffed instructions were fast-forwarded before it. Returns the
 * instructions committed (short only if the program halts).
 */
std::uint64_t
runWindow(Lane &lane, Executor &exec, FunctionalMemory &fmem,
          const SimHooks &hooks, std::uint64_t ffed, std::uint64_t warmup,
          std::uint64_t window)
{
    const SimConfig &config = *lane.config;
    const SeqNum start = exec.instructionsExecuted();
    // Fresh timing state per window; the detailed warmup (not the
    // previous window's stale image) populates it.
    MemorySystem mem(config.mem);
    SimResult at_measure; // zero counters == fresh-machine baseline
    MeasureWindow mw;
    mw.warmupInstrs = warmup;
    mw.onMeasureStart = [&](const CoreStats &base) {
        at_measure.core = base;
        captureMemory(mem, at_measure);
    };

    TimingWindow tw;
    tw.maxInstructions = warmup + window;
    tw.measure = warmup ? &mw : nullptr;
    tw.svrIn = lane.haveSvr ? &lane.svr : nullptr;
    tw.svrOut = &lane.svr;

    // The window's counters from the warmup boundary on.
    SimResult delta;
    delta.core = runTimingWindow(config, mem, exec, fmem, hooks,
                                 resolveWatchdog(config), tw);
    captureMemory(mem, delta);
    subtractResult(delta, at_measure);
    const CoreStats &ws = delta.core;
    const std::uint64_t committed = exec.instructionsExecuted() - start;
    lane.haveSvr = config.core == CoreType::Svr;

    if (ws.instructions == 0) {
        lane.unsampled += committed;
        return committed;
    }

    // Everything this period executed — fast-forward, warmup, and
    // the measured window itself — is represented by the window.
    const std::uint64_t represented = ffed + committed;
    for (const ResultField &f : resultFields()) {
        if (f.stitch == Stitch::Scaled)
            f.u64Ref(lane.r) +=
                scaled(f.u64(delta), represented, ws.instructions);
        else if (f.stitch == Stitch::Summed)
            f.u64Ref(lane.r) += f.u64(delta);
    }

    const std::uint64_t warmed = committed - ws.instructions;
    lane.windows.push_back({start + warmed, warmed, ws.instructions,
                            ws.cycles,
                            static_cast<double>(ws.cycles) /
                                static_cast<double>(ws.instructions)});
    return committed;
}

} // namespace

std::vector<SimResult>
simulateSampledRow(const std::vector<const SimConfig *> &configs,
                   const WorkloadInstance &w, const SimHooks &hooks,
                   std::vector<SampleWindow> *windows_out)
{
    const SamplingParams &sp = configs[0]->sampling;
    const std::uint64_t region = configs[0]->maxInstructions;
    std::vector<Lane> lanes(configs.size());
    for (std::size_t i = 0; i < configs.size(); i++) {
        const SimConfig &config = *configs[i];
        validateRun(config, w);
        if (!config.sampling.enabled() || config.sampling != sp ||
            config.maxInstructions != region) {
            fatal("simulateSampled: config '%s' has sampling disabled or "
                  "a region other than '%s'",
                  config.label.c_str(), configs[0]->label.c_str());
        }
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
        lanes[i].config = &config;
        lanes[i].r.workload = w.name;
        lanes[i].r.config = config.label;
        lanes[i].r.sampled = true;
    }

    using Clock = std::chrono::steady_clock;
    const auto t_start = Clock::now();
    // The master machine, and the fork each config's window runs on.
    Executor master(*w.program, *w.mem);
    FunctionalMemory fork;
    Executor exec(*w.program, fork);
    if (hooks.onExecutor)
        hooks.onExecutor(exec);

    std::uint64_t done = 0; //!< region instructions executed so far
    while (done < region && !master.halted()) {
        const std::uint64_t period = std::min(sp.sampleEvery, region - done);
        const std::uint64_t window = std::min(sp.sampleWindow, period);
        const std::uint64_t warmup = std::min(sp.warmup, period - window);
        const std::uint64_t ff = period - window - warmup;

        const std::uint64_t ffed = master.run(ff);
        done += ffed;
        if (ffed < ff || master.halted()) {
            for (Lane &lane : lanes)
                lane.unsampled += ffed;
            break;
        }

        const ExecArchState start = master.exportArchState();
        auto image =
            std::make_shared<FunctionalMemory::Image>(std::move(*w.mem));
        std::uint64_t committed = 0;
        bool agree = true; //!< every config committed the same count
        for (Lane &lane : lanes) {
            const auto t_window = Clock::now();
            fork = FunctionalMemory(image);
            exec.importArchState(start);
            const std::uint64_t n =
                runWindow(lane, exec, fork, hooks, ffed, warmup, window);
            fork = FunctionalMemory();
            agree &= &lane == &lanes[0] || n == committed;
            committed = n;
            const std::chrono::duration<double, std::milli> t =
                Clock::now() - t_window;
            lane.millis += t.count();
        }
        w.mem->thaw(std::move(image));
        done += committed;
        // Unless the region ends or the program halted in the window,
        // the master executes the window's instructions too.
        const bool last = done >= region || committed < warmup + window;
        if (!agree || (!last && master.run(committed) != committed)) {
            throw simErrorf(ErrCode::InternalInvariant, {},
                            "simulateSampled: the window at instruction "
                            "%llu committed a config-dependent count",
                            static_cast<unsigned long long>(start.seq));
        }
        if (last)
            break;
    }

    const std::chrono::duration<double, std::milli> elapsed =
        Clock::now() - t_start;
    lanes[0].millis = elapsed.count();
    for (std::size_t i = 1; i < lanes.size(); i++)
        lanes[0].millis -= lanes[i].millis;
    if (windows_out)
        *windows_out = lanes[0].windows;
    std::vector<SimResult> out;
    for (Lane &lane : lanes) {
        SimResult &r = lane.r;
        r.hostMillis = lane.millis;
        std::vector<double> cpis;
        for (const SampleWindow &sw : lane.windows) {
            cpis.push_back(sw.cpi);
            r.measuredInstructions += sw.measured;
        }
        // A tail the program-halt cut off before any window could
        // measure it: extrapolate its cycles at the region's mean
        // sampled CPI.
        if (lane.unsampled > 0 && !cpis.empty()) {
            r.core.cycles += static_cast<std::uint64_t>(std::llround(
                arithmeticMean(cpis) * static_cast<double>(lane.unsampled)));
        }
        r.core.instructions = done; // exact, not an estimate
        r.sampleWindows = cpis.size();
        r.cpiStderr = cpis.size() > 1
                          ? sampleStdDev(cpis) /
                                std::sqrt(static_cast<double>(cpis.size()))
                          : 0.0;
        recomputeResult(*lane.config, r);
        out.push_back(std::move(r));
    }
    return out;
}

SimResult
simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                const SimHooks &hooks,
                std::vector<SampleWindow> *windows_out)
{
    return std::move(simulateSampledRow({&config}, w, hooks, windows_out)[0]);
}

} // namespace svr
