#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace svr
{

namespace
{

/**
 * Edges per generation chunk. Parallel work is split at whole chunks,
 * and the chunk never depends on the job count.
 */
constexpr std::uint64_t chunkEdges = std::uint64_t{1} << 16;

/** One generated edge; trivial, so a buffer of them starts untouched. */
struct Edge
{
    std::uint32_t u, v;
};

/**
 * The CSR of the serial loop `for i < num_edges: edge i = @p draw(rng)`
 * over Rng(@p seed), each draw taking @p draws_per_edge next() calls,
 * with each node's neighbours in edge order (a stable counting sort).
 *
 * Each thread generates one contiguous range of chunks from a
 * jumped-ahead copy of the stream and counts its own degree histogram.
 * Each range then scatters its edges after those of every lower range,
 * node by node, so the neighbour order is the edge order and the bytes
 * do not depend on how many ranges there are.
 */
template <typename Draw>
HostGraph
generateCsr(std::uint32_t nodes, std::uint64_t num_edges,
            std::uint64_t draws_per_edge, std::uint64_t seed, Draw draw)
{
    const std::uint64_t chunks = (num_edges + chunkEdges - 1) / chunkEdges;
    const std::size_t ranges = static_cast<std::size_t>(
        std::min<std::uint64_t>(defaultJobs(), std::max<std::uint64_t>(
                                                   chunks, 1)));
    const auto first_edge = [&](std::size_t r) {
        return std::min(num_edges, r * chunks / ranges * chunkEdges);
    };

    // Range start states, serially: one precomputed stride jump per chunk.
    const Rng::JumpPoly stride = Rng::jumpPoly(chunkEdges * draws_per_edge);
    std::vector<Rng> starts;
    Rng stream(seed);
    for (std::size_t r = 0, chunk = 0; r < ranges; r++) {
        for (; chunk < r * chunks / ranges; chunk++)
            stream.jump(stride);
        starts.push_back(stream);
    }

    // Each range counts its degrees into its own array, the last range
    // into offsets[u + 1]; the counts then become each range's first
    // slot in each node's neighbour list. Scattering moves the last
    // range's cursor on to the end of the node's list: offsets[u + 1].
    HostGraph g;
    g.numNodes = nodes;
    g.offsets.resize(static_cast<std::size_t>(nodes) + 1);
    g.neighbors.resize(num_edges);
    std::vector<std::vector<std::uint64_t>> hist(
        ranges - 1, std::vector<std::uint64_t>(nodes));
    std::vector<std::uint64_t *> cursor;
    for (std::vector<std::uint64_t> &h : hist)
        cursor.push_back(h.data());
    cursor.push_back(g.offsets.data() + 1);

    const auto edges = std::make_unique_for_overwrite<Edge[]>(num_edges);
    parallelFor(ranges, ranges, [&](std::size_t r) {
        Rng rng = starts[r];
        std::uint64_t *count = cursor[r];
        const std::uint64_t end = first_edge(r + 1);
        for (std::uint64_t i = first_edge(r); i < end; i++) {
            edges[i] = draw(rng);
            count[edges[i].u]++;
        }
    });
    std::uint64_t pos = 0;
    for (std::uint32_t u = 0; u < nodes; u++) {
        for (std::uint64_t *c : cursor)
            pos += std::exchange(c[u], pos);
    }
    parallelFor(ranges, ranges, [&](std::size_t r) {
        std::uint64_t *next = cursor[r];
        const std::uint64_t end = first_edge(r + 1);
        for (std::uint64_t i = first_edge(r); i < end; i++)
            g.neighbors[next[edges[i].u]++] = edges[i].v;
    });
    return g;
}

} // namespace

HostGraph
makeUniformRandom(std::uint32_t nodes, unsigned avg_degree,
                  std::uint64_t seed)
{
    if (nodes == 0)
        fatal("makeUniformRandom: need at least one node");
    return generateCsr(
        nodes, static_cast<std::uint64_t>(nodes) * avg_degree, 2, seed,
        [nodes](Rng &rng) {
            const auto u = static_cast<std::uint32_t>(rng.nextBounded(nodes));
            const auto v = static_cast<std::uint32_t>(rng.nextBounded(nodes));
            return Edge{u, v};
        });
}

HostGraph
makeKronecker(unsigned scale, unsigned avg_degree, std::uint64_t seed)
{
    if (scale == 0 || scale > 28)
        fatal("makeKronecker: bad scale %u", scale);
    const std::uint32_t nodes = 1u << scale;
    // The quadrant is r < a ? 0 : r < a + b ? 1 : r < a + b + c ? 2 : 3
    // for r = nextDouble(). Branches on r are random and mispredict
    // often; counting the integer thresholds (Rng::drawThreshold) that
    // the raw draw reaches gives the same quadrant without a branch.
    const std::uint64_t t1 = Rng::drawThreshold(rmatA);
    const std::uint64_t t2 = Rng::drawThreshold(rmatA + rmatB);
    const std::uint64_t t3 = Rng::drawThreshold(rmatA + rmatB + rmatC);
    return generateCsr(
        nodes, static_cast<std::uint64_t>(nodes) * avg_degree, scale, seed,
        [=](Rng &rng) {
            std::uint32_t u = 0, v = 0;
            for (unsigned bit = 0; bit < scale; bit++) {
                const std::uint64_t k = rng.next() >> 11;
                // 0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right.
                const unsigned q = (k >= t1) + (k >= t2) + (k >= t3);
                u = (u << 1) | (q >> 1);
                v = (v << 1) | (q & 1);
            }
            return Edge{u, v};
        });
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
    // Edges come out in source order, so the CSR is written directly.
    // Each degree is below its share of the target plus one, so the
    // reservation holds them all.
    HostGraph g;
    g.numNodes = nodes;
    g.offsets.resize(static_cast<std::size_t>(nodes) + 1);
    g.neighbors.reserve(static_cast<std::size_t>(target_edges) + nodes);
    for (std::uint32_t u = 0; u < nodes; u++) {
        auto d = static_cast<std::uint64_t>(
            weights[u] / total_w * target_edges + rng.nextDouble());
        // Keep single hubs from swallowing the whole edge budget.
        d = std::min<std::uint64_t>(d, nodes / 4 + 1);
        for (std::uint64_t j = 0; j < d; j++) {
            g.neighbors.push_back(
                static_cast<std::uint32_t>(rng.nextBounded(nodes)));
        }
        g.offsets[u + 1] = g.neighbors.size();
    }
    return g;
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
