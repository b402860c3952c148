/**
 * @file
 * Tests for the graph generators and CSR layout: structural validity,
 * determinism, degree-distribution shape, and the in-memory layout
 * matching the paper's Figure 2.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hh"
#include "workloads/graph.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

void
checkCsrValid(const HostGraph &g)
{
    ASSERT_EQ(g.offsets.size(), g.numNodes + 1u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), g.neighbors.size());
    for (std::uint32_t u = 0; u < g.numNodes; u++)
        EXPECT_LE(g.offsets[u], g.offsets[u + 1]);
    for (std::uint32_t v : g.neighbors)
        EXPECT_LT(v, g.numNodes);
}

TEST(Graph, UniformRandomValidCsr)
{
    const HostGraph g = makeUniformRandom(1000, 8, 1);
    checkCsrValid(g);
    EXPECT_EQ(g.numEdges(), 8000u);
}

TEST(Graph, KroneckerValidCsr)
{
    const HostGraph g = makeKronecker(10, 8, 2);
    checkCsrValid(g);
    EXPECT_EQ(g.numNodes, 1024u);
    EXPECT_EQ(g.numEdges(), 8192u);
}

TEST(Graph, ScaleFreeValidCsr)
{
    const HostGraph g = makeScaleFree(1000, 8, 2.2, 3);
    checkCsrValid(g);
    // Edge count is approximate (degree rescaling rounds).
    EXPECT_GT(g.numEdges(), 4000u);
    EXPECT_LT(g.numEdges(), 16000u);
}

TEST(Graph, GeneratorsDeterministic)
{
    const HostGraph a = makeKronecker(10, 8, 42);
    const HostGraph b = makeKronecker(10, 8, 42);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.neighbors, b.neighbors);
}

TEST(Graph, DifferentSeedsDiffer)
{
    const HostGraph a = makeUniformRandom(1000, 8, 1);
    const HostGraph b = makeUniformRandom(1000, 8, 2);
    EXPECT_NE(a.neighbors, b.neighbors);
}

TEST(Graph, KroneckerIsSkewed)
{
    // RMAT graphs concentrate edges on low-id nodes: the maximum
    // degree dwarfs the average.
    const HostGraph g = makeKronecker(12, 16, 7);
    std::uint64_t max_deg = 0;
    for (std::uint32_t u = 0; u < g.numNodes; u++)
        max_deg = std::max<std::uint64_t>(max_deg, g.degree(u));
    EXPECT_GT(max_deg, 10u * 16u);
}

TEST(Graph, UniformRandomIsNotSkewed)
{
    const HostGraph g = makeUniformRandom(1 << 12, 16, 7);
    std::uint64_t max_deg = 0;
    for (std::uint32_t u = 0; u < g.numNodes; u++)
        max_deg = std::max<std::uint64_t>(max_deg, g.degree(u));
    // Poisson-ish: max degree stays within a few multiples of the mean.
    EXPECT_LT(max_deg, 5u * 16u);
}

TEST(Graph, ScaleFreeSkewTracksAlpha)
{
    // Heavier tail (smaller alpha) -> larger maximum degree.
    const HostGraph heavy = makeScaleFree(20000, 16, 1.9, 5);
    const HostGraph light = makeScaleFree(20000, 16, 2.8, 5);
    std::uint64_t max_heavy = 0, max_light = 0;
    for (std::uint32_t u = 0; u < heavy.numNodes; u++)
        max_heavy = std::max<std::uint64_t>(max_heavy, heavy.degree(u));
    for (std::uint32_t u = 0; u < light.numNodes; u++)
        max_light = std::max<std::uint64_t>(max_light, light.degree(u));
    EXPECT_GT(max_heavy, max_light);
}

TEST(Graph, KroneckerThresholdsMatchNextDouble)
{
    // makeKronecker compares the raw 53-bit draw k with
    // T = ceil(p * 2^53) where the definition compares nextDouble(),
    // which is k * 2^-53, with p: k >= T must hold exactly when
    // k * 2^-53 >= p, most of all right at T. A double in [0.5, 1),
    // like each RMAT threshold, is a multiple of 2^-53, so there T is
    // exactly p * 2^53; below 0.5 (rmatB, 0.1) the ceil rounds.
    for (const double p : {rmatA, rmatA + rmatB, rmatA + rmatB + rmatC,
                           rmatB, 0.1}) {
        SCOPED_TRACE(p);
        const std::uint64_t t = Rng::drawThreshold(p);
        ASSERT_GT(t, 0u);
        ASSERT_LT(t, std::uint64_t{1} << 53);
        for (const std::uint64_t k : {t - 1, t, t + 1}) {
            EXPECT_EQ(k >= t, static_cast<double>(k) * 0x1.0p-53 >= p)
                << "k = T" << static_cast<std::int64_t>(k - t);
        }
    }
    EXPECT_EQ(Rng::drawThreshold(0.0), 0u);
    EXPECT_EQ(Rng::drawThreshold(1.0), std::uint64_t{1} << 53);

    // Draw for draw on one stream, the integer compare is the
    // nextDouble() compare.
    const double p = rmatA + rmatB + rmatC;
    const std::uint64_t t = Rng::drawThreshold(p);
    Rng raw(99), ref(99);
    for (int i = 0; i < 100000; i++)
        ASSERT_EQ((raw.next() >> 11) < t, ref.nextDouble() < p) << i;
}

/** SVRSIM_JOBS set to @p jobs for the guard's lifetime. */
class JobsEnv
{
  public:
    explicit JobsEnv(const char *jobs)
    {
        if (const char *old = std::getenv("SVRSIM_JOBS"))
            saved = old;
        ::setenv("SVRSIM_JOBS", jobs, 1);
    }

    ~JobsEnv()
    {
        if (saved.empty())
            ::unsetenv("SVRSIM_JOBS");
        else
            ::setenv("SVRSIM_JOBS", saved.c_str(), 1);
    }

    JobsEnv(const JobsEnv &) = delete;
    JobsEnv &operator=(const JobsEnv &) = delete;

  private:
    std::string saved;
};

/** The serial definition: every edge in stream order, then a stable
 *  counting sort by source. */
HostGraph
referenceCsr(std::uint32_t nodes,
             const std::vector<std::pair<std::uint32_t, std::uint32_t>> &e)
{
    HostGraph g;
    g.numNodes = nodes;
    g.offsets.assign(nodes + 1, 0);
    for (const auto &[u, v] : e)
        g.offsets[u + 1]++;
    for (std::uint32_t u = 0; u < nodes; u++)
        g.offsets[u + 1] += g.offsets[u];
    g.neighbors.resize(e.size());
    std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (const auto &[u, v] : e)
        g.neighbors[cursor[u]++] = v;
    return g;
}

HostGraph
referenceKronecker(unsigned scale, unsigned avg_degree, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> e;
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << scale) * avg_degree;
         i++) {
        std::uint32_t u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; bit++) {
            const double r = rng.nextDouble();
            const unsigned q = r < rmatA                   ? 0
                               : r < rmatA + rmatB         ? 1
                               : r < rmatA + rmatB + rmatC ? 2
                                                           : 3;
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        e.emplace_back(u, v);
    }
    return referenceCsr(1u << scale, e);
}

HostGraph
referenceUniformRandom(std::uint32_t nodes, unsigned avg_degree,
                       std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> e;
    for (std::uint64_t i = 0; i < std::uint64_t{nodes} * avg_degree; i++) {
        const auto u = static_cast<std::uint32_t>(rng.nextBounded(nodes));
        const auto v = static_cast<std::uint32_t>(rng.nextBounded(nodes));
        e.emplace_back(u, v);
    }
    return referenceCsr(nodes, e);
}

void
expectSameGraph(const HostGraph &a, const HostGraph &b)
{
    EXPECT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.neighbors, b.neighbors);
}

TEST(Graph, ChunkParallelGenerationIsTheSerialDefinition)
{
    // Generation splits at 2^16-edge chunks: 4.5 chunks, 3.2 chunks, a
    // fraction of one, and none at all.
    struct Case
    {
        bool kronecker;
        std::uint32_t size; //!< scale or node count
        unsigned degree;
    };
    for (const Case c : {Case{true, 15, 9}, Case{true, 10, 3},
                         Case{false, 70001, 3}, Case{false, 999, 5},
                         Case{false, 7, 0}}) {
        SCOPED_TRACE(testing::Message() << (c.kronecker ? "KR " : "UR ")
                                        << c.size << " x " << c.degree);
        const auto make = [&] {
            return c.kronecker ? makeKronecker(c.size, c.degree, 0x77)
                               : makeUniformRandom(c.size, c.degree, 0x77);
        };
        const HostGraph ref =
            c.kronecker ? referenceKronecker(c.size, c.degree, 0x77)
                        : referenceUniformRandom(c.size, c.degree, 0x77);
        for (const char *jobs : {"1", "3", "4"}) {
            SCOPED_TRACE(jobs);
            const JobsEnv env(jobs);
            expectSameGraph(make(), ref);
        }
    }
}

TEST(Graph, ConcurrentInputRequestsShareOneInstance)
{
    const std::vector<std::string> names = {"KR",  "KR18", "UR",
                                            "LJN", "TW",   "ORK"};
    constexpr unsigned threads = 4;
    std::vector<std::map<std::string, const HostGraph *>> seen(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++) {
        pool.emplace_back([&, t] {
            // Each thread starts at a different name.
            for (std::size_t i = 0; i < names.size(); i++) {
                const std::string &name = names[(i + t) % names.size()];
                seen[t][name] = getGraphInput(name).get();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        ASSERT_NE(seen[0][name], nullptr);
        for (unsigned t = 1; t < threads; t++)
            EXPECT_EQ(seen[t][name], seen[0][name]);
        EXPECT_EQ(getGraphInput(name).get(), seen[0][name]);
    }
}

TEST(Graph, LayoutMatchesFigure2)
{
    // Offsets are 8-byte sequential; neighbors are 4-byte entries whose
    // values index the vertex-data array (paper Figure 2).
    HostGraph g;
    g.numNodes = 5;
    g.offsets = {0, 2, 4, 7, 9, 12};
    g.neighbors = {1, 2, 0, 3, 0, 1, 3, 0, 2, 0, 2, 3};
    FunctionalMemory mem;
    const GraphLayout gl = layoutGraph(g, mem);
    EXPECT_EQ(gl.numNodes, 5u);
    EXPECT_EQ(gl.numEdges, 12u);
    for (std::size_t i = 0; i < g.offsets.size(); i++)
        EXPECT_EQ(mem.read64(gl.offsets + i * 8), g.offsets[i]);
    for (std::size_t i = 0; i < g.neighbors.size(); i++)
        EXPECT_EQ(mem.read(gl.neighbors + i * 4, 4), g.neighbors[i]);
}

TEST(Graph, DegreeAccessor)
{
    HostGraph g;
    g.numNodes = 3;
    g.offsets = {0, 2, 2, 5};
    g.neighbors = {1, 2, 0, 1, 2};
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 3u);
}

} // namespace
} // namespace svr
