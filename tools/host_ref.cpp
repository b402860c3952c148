#include "host_ref.hh"

namespace svr
{

namespace
{

/** One LCG step of @p x, added into the @p table slot it picks. */
inline void
step(std::uint64_t &x, std::uint32_t *table)
{
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[x >> 52] += static_cast<std::uint32_t>(x >> 20);
}

} // namespace

std::uint64_t
hostRefKernel(std::uint64_t iters)
{
    // Four independent streams in registers, each adding into a
    // 16 KiB table: bound by the core's throughput of multiplies,
    // loads and stores, as the simulator's hot loops are, not by one
    // long latency chain.
    std::uint32_t table[4096] = {};
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (std::uint64_t i = 0; i < iters; i++) {
        step(a, table);
        step(b, table);
        step(c, table);
        step(d, table);
    }
    std::uint64_t h = a ^ b ^ c ^ d;
    for (const std::uint32_t t : table)
        h = h * 31 + t;
    return h;
}

} // namespace svr
