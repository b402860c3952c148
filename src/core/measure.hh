/**
 * @file
 * Measurement windowing for the timing cores: run warmup instructions
 * through full detailed timing and report the counters at the point
 * the measurement starts, so the caller can count only the
 * instructions after the warmup. The sampled simulator
 * (sim/sampled_sim.hh) uses this to warm caches, branch predictors,
 * TLBs, and the SVR engine before each timing sample.
 */

#ifndef SVR_CORE_MEASURE_HH
#define SVR_CORE_MEASURE_HH

#include <cstdint>
#include <functional>

#include "core/core_stats.hh"

namespace svr
{

/**
 * Optional measurement window for one core run. The core commits
 * @p warmupInstrs instructions with full timing first (warming every
 * microarchitectural structure in the machine), then fires
 * @p onMeasureStart exactly once with its stats at that boundary
 * (cycles by the same end-of-run formula the core uses). The stats
 * the run returns still cover the whole run: the caller subtracts the
 * boundary snapshot (subtractResult(), sim/result_fields.hh). The
 * counters, and the cycle numbering, run on through the boundary, so
 * in-flight state (scoreboard ready times, MSHRs, DRAM queues)
 * carries over exactly as in an unwindowed run.
 */
struct MeasureWindow
{
    /** Committed instructions before the measurement starts. */
    std::uint64_t warmupInstrs = 0;

    /**
     * Fired once, right after the warmup's last instruction fully
     * committed (including its memory-system accesses), so callers can
     * snapshot memory-side counters at the same boundary.
     */
    std::function<void(const CoreStats &)> onMeasureStart;
};

} // namespace svr

#endif // SVR_CORE_MEASURE_HH
