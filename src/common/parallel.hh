/**
 * @file
 * parallelFor(): run body(0..count-1) on up to @p jobs threads for
 * embarrassingly parallel simulation work (the experiment matrix, a
 * fabric worker's lease).
 *
 * Indices are handed out from one atomic counter, so a long cell never
 * holds up the short ones queued behind it. With jobs <= 1 no thread
 * is started and the indices run inline in order, which is the exact
 * serial execution order.
 *
 * Determinism contract: parallelFor() never orders *results* —
 * callers write each index's output into a preallocated slot, so the
 * output is bit-identical for any job count or scheduling.
 */

#ifndef SVR_COMMON_PARALLEL_HH
#define SVR_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace svr
{

/**
 * The "auto" job count: SVRSIM_JOBS if set to a positive integer
 * (values > 256 are clamped, garbage is ignored with a warning), else
 * std::thread::hardware_concurrency(), else 1.
 */
unsigned defaultJobs();

/** @p jobs, or defaultJobs() when it is 0. */
unsigned resolveJobs(unsigned jobs);

/**
 * Run body(i) for every i in [0, count) on resolveJobs(@p jobs)
 * threads (the caller's thread among them) and return when all are
 * done. Every index runs even when some throw; afterwards the first
 * captured exception is rethrown and the others are counted in a
 * warn() line, so none vanishes silently.
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace svr

#endif // SVR_COMMON_PARALLEL_HH
