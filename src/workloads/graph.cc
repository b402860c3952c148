#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{

/** Build a CSR from an edge list (sorted counting-sort style). */
HostGraph
buildCsr(std::uint32_t nodes,
         const std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
{
    HostGraph g;
    g.numNodes = nodes;
    g.offsets.assign(nodes + 1, 0);
    for (const auto &[u, v] : edges)
        g.offsets[u + 1]++;
    for (std::uint32_t u = 0; u < nodes; u++)
        g.offsets[u + 1] += g.offsets[u];
    g.neighbors.resize(edges.size());
    std::vector<std::uint64_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (const auto &[u, v] : edges)
        g.neighbors[cursor[u]++] = v;
    return g;
}

} // namespace

HostGraph
makeUniformRandom(std::uint32_t nodes, unsigned avg_degree,
                  std::uint64_t seed)
{
    if (nodes == 0)
        fatal("makeUniformRandom: need at least one node");
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::uint64_t num_edges =
        static_cast<std::uint64_t>(nodes) * avg_degree;
    edges.reserve(num_edges);
    for (std::uint64_t i = 0; i < num_edges; i++) {
        const auto u = static_cast<std::uint32_t>(rng.nextBounded(nodes));
        const auto v = static_cast<std::uint32_t>(rng.nextBounded(nodes));
        edges.emplace_back(u, v);
    }
    return buildCsr(nodes, edges);
}

HostGraph
makeKronecker(unsigned scale, unsigned avg_degree, std::uint64_t seed)
{
    if (scale == 0 || scale > 28)
        fatal("makeKronecker: bad scale %u", scale);
    const std::uint32_t nodes = 1u << scale;
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::uint64_t num_edges =
        static_cast<std::uint64_t>(nodes) * avg_degree;
    edges.reserve(num_edges);
    // The quadrant is r < a ? 0 : r < a + b ? 1 : r < a + b + c ? 2 : 3
    // for r = nextDouble(). Branches on r are random and mispredict
    // often; counting the integer thresholds (Rng::drawThreshold) that
    // the raw draw reaches gives the same quadrant without a branch.
    const std::uint64_t t1 = Rng::drawThreshold(rmatA);
    const std::uint64_t t2 = Rng::drawThreshold(rmatA + rmatB);
    const std::uint64_t t3 = Rng::drawThreshold(rmatA + rmatB + rmatC);
    for (std::uint64_t i = 0; i < num_edges; i++) {
        std::uint32_t u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; bit++) {
            const std::uint64_t k = rng.next() >> 11;
            // 0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right.
            const unsigned q = (k >= t1) + (k >= t2) + (k >= t3);
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        edges.emplace_back(u, v);
    }
    return buildCsr(nodes, edges);
}

HostGraph
makeScaleFree(std::uint32_t nodes, unsigned avg_degree, double alpha,
              std::uint64_t seed)
{
    if (nodes == 0)
        fatal("makeScaleFree: need at least one node");
    Rng rng(seed);
    // Zipf-over-ranks out-degrees: degree(rank r) proportional to
    // (r+1)^(-1/(alpha-1)), normalized to the requested average.
    // Smaller alpha -> heavier tail, as in real social graphs. Low
    // node ids are the hubs (the common degree-sorted CSR layout).
    const double s = 1.0 / std::max(alpha - 1.0, 0.25);
    std::vector<double> weights(nodes);
    double total_w = 0.0;
    for (std::uint32_t u = 0; u < nodes; u++) {
        weights[u] = std::pow(static_cast<double>(u) + 1.0, -s);
        total_w += weights[u];
    }
    const double target_edges =
        static_cast<double>(nodes) * avg_degree;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(static_cast<std::size_t>(target_edges));
    for (std::uint32_t u = 0; u < nodes; u++) {
        auto d = static_cast<std::uint64_t>(
            weights[u] / total_w * target_edges + rng.nextDouble());
        // Keep single hubs from swallowing the whole edge budget.
        d = std::min<std::uint64_t>(d, nodes / 4 + 1);
        for (std::uint64_t j = 0; j < d; j++) {
            const auto v =
                static_cast<std::uint32_t>(rng.nextBounded(nodes));
            edges.emplace_back(u, v);
        }
    }
    return buildCsr(nodes, edges);
}

GraphLayout
layoutGraph(const HostGraph &g, FunctionalMemory &mem)
{
    GraphLayout layout;
    layout.numNodes = g.numNodes;
    layout.numEdges = g.numEdges();
    layout.offsets = mem.alloc(g.offsets.size() * 8, 64);
    mem.writeArray(layout.offsets, g.offsets.data(), g.offsets.size());
    layout.neighbors = mem.alloc(std::max<std::size_t>(
                                     g.neighbors.size(), 1) * 4, 64);
    mem.writeArray(layout.neighbors, g.neighbors.data(),
                   g.neighbors.size());
    return layout;
}

} // namespace svr
