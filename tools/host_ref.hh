/**
 * @file
 * Host-speed reference for bench_report: a fixed integer kernel whose
 * run time tracks the host (clock, load, co-tenants) and not the
 * simulator's code. tools/CMakeLists.txt builds it in its own target
 * with fixed flags and pinned code alignment, so no change to the
 * rest of the build (a new function, a different link order, LTO)
 * moves it. bench_report times it around its core measurements; a
 * Msimips figure times the kernel's milliseconds is then a
 * host-independent measure of the simulator's speed.
 */

#ifndef SVR_TOOLS_HOST_REF_HH
#define SVR_TOOLS_HOST_REF_HH

#include <cstdint>

namespace svr
{

/**
 * Run the reference kernel for @p iters iterations: multiplies and
 * read-modify-writes of an L1-resident table, branch-free. The result
 * depends on every iteration.
 */
std::uint64_t hostRefKernel(std::uint64_t iters);

} // namespace svr

#endif // SVR_TOOLS_HOST_REF_HH
