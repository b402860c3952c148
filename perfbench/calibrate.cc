#include "calibrate.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace svrbench
{

namespace
{

volatile std::uint64_t sink;

/** Eight independent multiply-xorshift streams whose state stays in an
 *  array in memory, so every step is a load, a multiply, shifts and a
 *  store forwarded to the next load. It is bound by the core's
 *  throughput, not by latency, as the simulator's hot loops are, and
 *  of the kernels tried it tracked the simulator's speed best. */
double
kernelMs()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t s[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 125000; i++) {
        for (int j = 0; j < 8; j++) {
            s[j] = s[j] * 6364136223846793005ULL + j;
            s[j] ^= s[j] >> 29;
        }
    }
    std::uint64_t h = 0;
    for (const std::uint64_t v : s)
        h ^= v;
    sink = h;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

double
calibrationMs()
{
    // The lesser of two runs: an interrupt or a preemption in one of
    // them is not the host's speed.
    return std::min(kernelMs(), kernelMs());
}

} // namespace svrbench
