/**
 * @file
 * Graph generation and CSR layout (paper Figure 2). Synthetic inputs
 * reproduce the paper's Kronecker (KR) and Uniform Random (UR)
 * generators; the real-world LiveJournal/Twitter/Orkut inputs are
 * substituted by scale-free graphs with matched degree-distribution
 * shapes (see DESIGN.md, substitutions).
 */

#ifndef SVR_WORKLOADS_GRAPH_HH
#define SVR_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/functional_memory.hh"

namespace svr
{

/**
 * Host-side CSR graph. Built once per process (getGraphInput caches
 * it) and copied into functional memory once per sweep row, whose
 * cells then share that build as copy-on-write forks.
 */
struct HostGraph
{
    std::uint32_t numNodes = 0;
    std::vector<std::uint64_t> offsets;   //!< numNodes + 1 entries
    std::vector<std::uint32_t> neighbors; //!< offsets.back() entries

    std::uint64_t numEdges() const { return neighbors.size(); }

    /** Out-degree of node @p u. */
    std::uint64_t
    degree(std::uint32_t u) const
    {
        return offsets[u + 1] - offsets[u];
    }
};

/** Uniform-random (Erdos-Renyi-ish) graph: UR input. */
HostGraph makeUniformRandom(std::uint32_t nodes, unsigned avg_degree,
                            std::uint64_t seed);

/** RMAT quadrant probabilities (Graph500 defaults; d = 1 - a - b - c). */
constexpr double rmatA = 0.57, rmatB = 0.19, rmatC = 0.19;

/**
 * RMAT/Kronecker graph: KR input. Each of an edge's @p scale bit pairs
 * picks a quadrant from one draw, with probabilities rmatA..rmatC.
 */
HostGraph makeKronecker(unsigned scale, unsigned avg_degree,
                        std::uint64_t seed);

/**
 * Scale-free graph with power-law out-degrees (exponent @p alpha):
 * stand-in for the LJN/TW/ORK real-world inputs.
 */
HostGraph makeScaleFree(std::uint32_t nodes, unsigned avg_degree,
                        double alpha, std::uint64_t seed);

/** CSR arrays laid out in functional memory. */
struct GraphLayout
{
    Addr offsets = 0;   //!< 8-byte entries, numNodes+1 of them
    Addr neighbors = 0; //!< 4-byte entries
    std::uint32_t numNodes = 0;
    std::uint64_t numEdges = 0;
};

/** Copy @p g into @p mem as the paper's offset/neighbor arrays. */
GraphLayout layoutGraph(const HostGraph &g, FunctionalMemory &mem);

} // namespace svr

#endif // SVR_WORKLOADS_GRAPH_HH
