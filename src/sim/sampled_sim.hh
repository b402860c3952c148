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
 * Window-major sampled rows. The architectural state at a detailed
 * window's start does not depend on the config: every core is
 * execute-driven (one Executor::step() per committed instruction,
 * stopping at exactly its window's instruction count), the timing
 * models, SVR and IMP only read functional memory, and every cell of a
 * row starts from the same build. So a group of configs that agree on
 * maxInstructions and SamplingParams (a sweep row's sampled cells)
 * runs as one loop over one master machine, window by window. At each
 * window start the master's memory is frozen into an image; each
 * config in turn runs its warmup and window on a copy-on-write fork of
 * it, with its own carried SVR predictor state, and the fork is
 * dropped; the image is then thawed back into the master (no page is
 * copied), which executes the window's instructions functionally and
 * fast-forwards on to the next window start. The row thus holds one
 * memory, plus one fork's written pages at a time, whatever the region
 * length, and no image ever chains to another. A single config is the
 * one-config case of the same loop.
 */

#ifndef SVR_SIM_SAMPLED_SIM_HH
#define SVR_SIM_SAMPLED_SIM_HH

#include <cstdint>
#include <vector>

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
 * Run @p config on @p w with sampling (config.sampling must be
 * enabled; simulate() dispatches here automatically). The returned
 * SimResult carries whole-region estimates: instructions is exact,
 * every other counter is stitched from the windows, and
 * sampled/sampleWindows/measuredInstructions/cpiStderr describe the
 * estimate. A commit hook in @p hooks is rejected with
 * SimError(ConfigInvalid): lockstep validation needs every commit,
 * which sampling by construction skips. @p windows_out, when non-null,
 * receives the per-window measurements. The one-config case of
 * simulateSampledRow().
 */
SimResult simulateSampled(const SimConfig &config, const WorkloadInstance &w,
                          const SimHooks &hooks = {},
                          std::vector<SampleWindow> *windows_out = nullptr);

/**
 * Run every config of @p configs on @p w, window-major (see the file
 * comment). They must all be sampled with the same maxInstructions and
 * SamplingParams. Result i is what simulateSampled(*configs[i], w,
 * hooks) returns, bit for bit, except hostMillis: config i > 0 is
 * charged its own warmups and windows, config 0 the rest of the run
 * (the shared fast-forward included). @p windows_out receives the
 * first config's windows. Throws on the first config that fails.
 */
std::vector<SimResult>
simulateSampledRow(const std::vector<const SimConfig *> &configs,
                   const WorkloadInstance &w, const SimHooks &hooks = {},
                   std::vector<SampleWindow> *windows_out = nullptr);

} // namespace svr

#endif // SVR_SIM_SAMPLED_SIM_HH
