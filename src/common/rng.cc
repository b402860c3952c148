#include "common/rng.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace svr
{

namespace
{
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * P without its leading x^256 term: the minimal polynomial of the
 * xoshiro256 state transition, found by Berlekamp-Massey on its output
 * bits. RngJump.PublishedJumpConstant checks it: x^(2^128) mod P is
 * Blackman & Vigna's JUMP.
 */
constexpr Rng::JumpPoly charPolyLow = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

/** @p p times x, mod P. */
void
timesX(Rng::JumpPoly &p)
{
    const bool carry = p[3] >> 63;
    for (unsigned i = 3; i > 0; i--)
        p[i] = (p[i] << 1) | (p[i - 1] >> 63);
    p[0] <<= 1;
    if (carry) {
        for (unsigned i = 0; i < 4; i++)
            p[i] ^= charPolyLow[i];
    }
}

/** @p a times @p b, mod P (Horner over @p b's coefficients). */
Rng::JumpPoly
mulMod(const Rng::JumpPoly &a, const Rng::JumpPoly &b)
{
    Rng::JumpPoly r{};
    for (int bit = 255; bit >= 0; bit--) {
        timesX(r);
        if (b[bit / 64] >> (bit % 64) & 1) {
            for (unsigned i = 0; i < 4; i++)
                r[i] ^= a[i];
        }
    }
    return r;
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

Rng::JumpPoly
Rng::jumpPoly(std::uint64_t n)
{
    // Left-to-right square-and-multiply from x^0 = 1.
    JumpPoly r = {1, 0, 0, 0};
    for (int bit = std::bit_width(n) - 1; bit >= 0; bit--) {
        r = mulMod(r, r);
        if (n >> bit & 1)
            timesX(r);
    }
    return r;
}

Rng::JumpPoly
Rng::jumpPolySquared(const JumpPoly &p)
{
    return mulMod(p, p);
}

void
Rng::jump(const JumpPoly &p)
{
    // T^n = (x^n mod P)(T) by Cayley-Hamilton: sum the states T^i s
    // whose coefficient is set (the reference xoshiro jump loop).
    std::uint64_t acc[4] = {};
    for (const std::uint64_t word : p) {
        for (unsigned b = 0; b < 64; b++) {
            if (word >> b & 1) {
                for (unsigned i = 0; i < 4; i++)
                    acc[i] ^= s[i];
            }
            next();
        }
    }
    for (unsigned i = 0; i < 4; i++)
        s[i] = acc[i];
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded called with bound 0");
    return next() % bound;
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::drawThreshold(double p)
{
    if (!(p >= 0.0 && p <= 1.0))
        panic("Rng::drawThreshold: probability %g outside [0, 1]", p);
    // Scaling by 2^53 is exact, so only the ceil rounds.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::uint64_t
Rng::nextPowerLaw(std::uint64_t max, double alpha)
{
    // Inverse-transform sampling of a continuous power law on [1, max],
    // rounded down to an integer.
    const double u = nextDouble();
    const double one_minus_a = 1.0 - alpha;
    const double max_d = static_cast<double>(max);
    double x;
    if (std::abs(one_minus_a) < 1e-9) {
        x = std::exp(u * std::log(max_d));
    } else {
        const double hi = std::pow(max_d, one_minus_a);
        x = std::pow(1.0 + u * (hi - 1.0), 1.0 / one_minus_a);
    }
    auto k = static_cast<std::uint64_t>(x);
    if (k < 1)
        k = 1;
    if (k > max)
        k = max;
    return k;
}

std::uint64_t
Rng::hashName(std::string_view name)
{
    // FNV-1a, 64-bit. Seeds derived from workload/config names must
    // stay stable across releases or golden stats silently shift.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Rng
Rng::split(std::uint64_t stream) const
{
    // Fold the full 256-bit state and the stream index into a fresh
    // 64-bit seed; the constructor's SplitMix64 expansion decorrelates
    // children whose inputs differ in only a few bits.
    std::uint64_t sm = s[0] ^ rotl(s[1], 13) ^ rotl(s[2], 29) ^
                       rotl(s[3], 43);
    std::uint64_t seed = splitMix64(sm);
    sm ^= stream;
    seed ^= splitMix64(sm);
    return Rng(seed);
}

Rng
Rng::split(std::string_view name) const
{
    return split(hashName(name));
}

std::uint64_t
Rng::cellSeed(std::uint64_t base_seed, std::string_view workload,
              std::string_view config)
{
    std::uint64_t sm = base_seed;
    std::uint64_t seed = splitMix64(sm);
    sm ^= hashName(workload);
    seed ^= splitMix64(sm);
    sm ^= hashName(config);
    seed ^= splitMix64(sm);
    return seed;
}

Rng
Rng::forCell(std::uint64_t base_seed, std::string_view workload,
             std::string_view config)
{
    return Rng(cellSeed(base_seed, workload, config));
}

} // namespace svr
