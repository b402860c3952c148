#include "bench_suites.hh"

#include <stdexcept>

#include "common/rng.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/suites.hh"

namespace svrbench
{

using namespace svr;

namespace
{

/** getGraphInput()'s table: the shape of each input and its seed. */
struct GraphShape
{
    const char *name;
    enum { Kronecker, Uniform, ScaleFree } kind;
    std::uint32_t size; //!< scale (Kronecker) or node count
    unsigned degree;
    double alpha;
    std::uint64_t builtinSeed;
};

constexpr GraphShape shapes[] = {
    {"KR", GraphShape::Kronecker, 17, 16, 0.0, 0x4b01},
    {"KR18", GraphShape::Kronecker, 18, 16, 0.0, 0x4b18},
    {"UR", GraphShape::Uniform, 1u << 17, 16, 0.0, 0x0601},
    {"LJN", GraphShape::ScaleFree, 120000, 14, 2.2, 0x1c01},
    {"TW", GraphShape::ScaleFree, 160000, 18, 1.9, 0x7301},
    {"ORK", GraphShape::ScaleFree, 120000, 20, 2.4, 0x0a01},
};

const char *const graphKernels[] = {"BC", "BFS", "CC", "PR", "SSSP"};
const char *const graphNames[] = {"KR", "LJN", "ORK", "TW", "UR"};

std::shared_ptr<const HostGraph>
need(const GraphSet &graphs, const std::string &name)
{
    const auto it = graphs.find(name);
    if (it == graphs.end())
        throw std::runtime_error("graph input " + name + " not generated");
    return it->second;
}

std::vector<WorkloadSpec>
graphPart(const GraphSet &graphs)
{
    std::vector<WorkloadSpec> v;
    for (const std::string kernel : graphKernels) {
        for (const std::string input : graphNames) {
            const std::string name = kernel + "_" + input;
            const auto g = need(graphs, input);
            v.push_back({name, "graph", [kernel, input, name, g] {
                WorkloadInstance w;
                if (kernel == "BC")
                    w = makeBc(g, input);
                else if (kernel == "BFS")
                    w = makeBfs(g, input);
                else if (kernel == "CC")
                    w = makeCc(g, input);
                else if (kernel == "PR")
                    w = makePageRank(g, input);
                else
                    w = makeSssp(g, input);
                w.name = name;
                return w;
            }});
        }
    }
    return v;
}

std::vector<WorkloadSpec>
hpcdbPart(const GraphSet &graphs)
{
    // Only G500 has a graph input; the others generate their arrays
    // from kernel-internal constants, exactly as hpcdbSuite() does.
    std::vector<WorkloadSpec> v = hpcdbSuite();
    const auto kr18 = need(graphs, "KR18");
    for (WorkloadSpec &spec : v) {
        if (spec.name == "G500") {
            spec.make = [kr18] {
                auto w = makeGraph500(kr18);
                w.name = "G500";
                return w;
            };
        }
    }
    return v;
}

} // namespace

std::vector<std::string>
graphInputsOf(const std::string &suite)
{
    std::vector<std::string> names;
    if (suite == "full" || suite == "graph" || suite == "quick")
        names.assign(std::begin(graphNames), std::end(graphNames));
    if (suite == "full" || suite == "hpcdb")
        names.push_back("KR18");
    return names;
}

GraphSet
generateGraphs(const std::vector<std::string> &names, std::uint64_t seed)
{
    GraphSet set;
    for (const std::string &name : names) {
        const GraphShape *shape = nullptr;
        for (const GraphShape &s : shapes) {
            if (name == s.name)
                shape = &s;
        }
        if (!shape)
            throw std::runtime_error("unknown graph input " + name);
        const std::uint64_t gseed =
            seed == 0 ? shape->builtinSeed
                      : Rng(shape->builtinSeed).split(seed).next();
        HostGraph g;
        switch (shape->kind) {
          case GraphShape::Kronecker:
            g = makeKronecker(shape->size, shape->degree, gseed);
            break;
          case GraphShape::Uniform:
            g = makeUniformRandom(shape->size, shape->degree, gseed);
            break;
          case GraphShape::ScaleFree:
            g = makeScaleFree(shape->size, shape->degree, shape->alpha,
                              gseed);
            break;
        }
        set[name] = std::make_shared<const HostGraph>(std::move(g));
    }
    return set;
}

std::vector<WorkloadSpec>
seededSuite(const std::string &suite, const GraphSet &graphs)
{
    if (suite == "spec")
        return specSuite();
    if (suite == "graph")
        return graphPart(graphs);
    if (suite == "hpcdb")
        return hpcdbPart(graphs);
    if (suite == "full") {
        std::vector<WorkloadSpec> v = graphPart(graphs);
        const std::vector<WorkloadSpec> h = hpcdbPart(graphs);
        v.insert(v.end(), h.begin(), h.end());
        return v;
    }
    throw std::runtime_error("suite " + suite + " cannot be seeded");
}

} // namespace svrbench
