/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All workload generators draw from this generator so that every
 * simulation run is bit-reproducible given the same seed.
 */

#ifndef SVR_COMMON_RNG_HH
#define SVR_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace svr
{

/**
 * xoshiro256** generator seeded via SplitMix64.
 *
 * Small, fast, and high quality; identical streams across platforms.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * A jump of n draws: the coefficients of x^n mod P, where P is the
     * degree-256 characteristic polynomial of the xoshiro256 state
     * transition. Bit i of word j is the coefficient of x^(64j+i), the
     * layout of Blackman & Vigna's published JUMP constants.
     */
    using JumpPoly = std::array<std::uint64_t, 4>;

    /** x^@p n mod P: the jump of @p n draws. */
    static JumpPoly jumpPoly(std::uint64_t n);

    /** p^2 mod P: a jump of n draws becomes one of 2n draws. */
    static JumpPoly jumpPolySquared(const JumpPoly &p);

    /** Advance by the jump @p p: 256 steps, whatever n it stands for. */
    void jump(const JumpPoly &p);

    /** Advance the stream by @p n draws, as n next() calls would. */
    void jump(std::uint64_t n) { jump(jumpPoly(n)); }

    /** Same state, so the same stream from here on. */
    bool operator==(const Rng &) const = default;

    /**
     * Integer in [0, bound) as next() % bound; bound > 0. The modulo
     * bias is negligible for bounds far below 2^64, and every
     * generated input depends on this exact mapping.
     */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1): the top 53 bits of next() times 2^-53. */
    double nextDouble();

    /**
     * ceil(@p p * 2^53) for a probability @p p in [0, 1]: the least raw
     * draw k = next() >> 11 with k * 2^-53 >= p. So
     * `(next() >> 11) < drawThreshold(p)` holds exactly when
     * `nextDouble() < p` would, on the same stream, and a hot loop can
     * compare integers without a branch.
     */
    static std::uint64_t drawThreshold(double p);

    /**
     * Sample from a (truncated) power-law distribution over [1, max],
     * P(k) proportional to k^-alpha. Used for scale-free degree
     * distributions matching real social graphs.
     */
    std::uint64_t nextPowerLaw(std::uint64_t max, double alpha);

    /**
     * Derive an independent child generator for substream @p stream
     * without disturbing this generator's state. Distinct stream
     * indices yield decorrelated sequences; the same index always
     * yields the same child, so substreams replay deterministically.
     */
    Rng split(std::uint64_t stream) const;

    /** Named substream: split(hashName(name)). */
    Rng split(std::string_view name) const;

    /** FNV-1a hash of a name, for seed derivation. Stable forever. */
    static std::uint64_t hashName(std::string_view name);

    /**
     * The derived seed for one experiment cell: mixes @p base_seed
     * with the workload and config names. Independent of cell index,
     * so adding/reordering cells in a matrix never shifts another
     * cell's stream — the foundation of parallel replay.
     */
    static std::uint64_t cellSeed(std::uint64_t base_seed,
                                  std::string_view workload,
                                  std::string_view config);

    /** Ready-to-use generator for one experiment cell. */
    static Rng forCell(std::uint64_t base_seed, std::string_view workload,
                       std::string_view config);

  private:
    std::uint64_t s[4];
};

} // namespace svr

#endif // SVR_COMMON_RNG_HH
