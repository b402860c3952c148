/**
 * @file
 * Sampled simulation (SimPoint-style systematic sampling): run most of
 * the region on the fast functional executor and only sample windows
 * in detailed timing, stitching the window measurements into a
 * whole-region estimate with an error bar. This is what makes
 * paper-scale regions (tens of millions of instructions) tractable:
 * the functional executor retires instructions orders of magnitude
 * faster than the timing cores.
 *
 * Each period of SamplingParams::sampleEvery committed instructions is
 * split into fast-forward, detailed warmup (full timing over a fresh
 * memory system — warming caches, branch predictors, TLBs, and the
 * SVR predictor SRAMs — excluded from the stats via core/measure.hh),
 * and the measured window. SVR predictor state is carried between
 * windows with SvrEngine::exportState()/importState(), mirroring the
 * warm SRAM a real sampled machine would retain.
 *
 * Degenerate configurations collapse exactly: when sampleEvery and
 * sampleWindow both cover the whole region, the single "sample" is an
 * ordinary full-detail run and every counter matches simulate() with
 * sampling off bit for bit (asserted by tests/test_sampled_sim.cc).
 *
 * Fast-forward once per sweep row. The architectural state at a
 * detailed window's start does not depend on the config: every core is
 * execute-driven (one Executor::step() per committed instruction,
 * stopping at exactly its window's instruction count), the timing
 * models, SVR and IMP only read functional memory, and every cell of a
 * row starts from the same build. So the registers and memory at
 * absolute instruction count S are the same for every cell that
 * reaches S, however it got there. A row's FastForwardLadder keeps
 * them: one rung per window start S, each a Checkpoint
 * (sim/checkpoint.hh) without SVR state. The first cell to
 * fast-forward to S captures the rung (its memory is frozen into the
 * checkpoint's image and goes on as a fork of it) and publishes it.
 * Every later cell that is about to fast-forward to S restores the
 * rung in place instead (its executor imports the state, its memory
 * becomes a fork of the image). A missing rung (a program that halts
 * first, a sibling cell still fast-forwarding, a row split across
 * fabric leases) means a plain fast-forward, so results never depend
 * on which cell records.
 */

#ifndef SVR_SIM_SAMPLED_SIM_HH
#define SVR_SIM_SAMPLED_SIM_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/simulator.hh"

namespace svr
{

/** One measured timing window (diagnostics and tests). */
struct SampleWindow
{
    /** Region offset of the first *measured* instruction. */
    std::uint64_t startInstruction = 0;
    std::uint64_t warmup = 0;   //!< detailed-warmup instructions run
    std::uint64_t measured = 0; //!< instructions measured
    Cycle cycles = 0;           //!< cycles over the measured part
    double cpi = 0.0;
};

/**
 * The window starts one sweep row's cells have fast-forwarded to, each
 * a Checkpoint of the machine there, keyed by its instruction count
 * (arch.seq; see the file comment). Rungs are immutable once
 * published, and publishing never waits for a reader: any thread may
 * use a ladder. A rung costs the pages the fast-forward before it
 * wrote (each image shares every older page with the rung below it)
 * plus one page directory per 2 MiB region of the footprint.
 */
class FastForwardLadder
{
  public:
    /** The rung at instruction count @p seq, if one was published. */
    std::optional<Checkpoint> find(SeqNum seq) const;

    /**
     * Publish @p rung at its instruction count. A rung already there is
     * kept: every publisher at one count holds the same state.
     */
    void publish(Checkpoint rung);

  private:
    mutable std::mutex mtx;
    std::map<SeqNum, Checkpoint> rungs;
};

/**
 * Run @p config on @p w with sampling (config.sampling must be
 * enabled; simulate() dispatches here automatically). The returned
 * SimResult carries whole-region estimates: instructions is exact,
 * every other counter is stitched from the windows, and
 * sampled/sampleWindows/measuredInstructions/cpiStderr describe the
 * estimate. A commit hook in @p hooks is rejected with
 * SimError(ConfigInvalid): lockstep validation needs every commit,
 * which sampling by construction skips. @p windows_out, when non-null,
 * receives the per-window measurements. With a ladder in @p w
 * (w.ladder, set by the sweep engine's CellRows), each fast-forward
 * restores or records a rung of it; the result is the same either way.
 */
SimResult simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                          const SimHooks &hooks = {},
                          std::vector<SampleWindow> *windows_out = nullptr);

} // namespace svr

#endif // SVR_SIM_SAMPLED_SIM_HH
