#include "workloads/suites.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/hpcdb_kernels.hh"
#include "workloads/spec_kernels.hh"

namespace svr
{

std::shared_ptr<const HostGraph>
getGraphInput(const std::string &name)
{
    static const std::pair<const char *, HostGraph (*)()> inputs[] = {
        {"KR", [] { return makeKronecker(17, 16, 0x4b01); }},
        {"KR18", [] { return makeKronecker(18, 16, 0x4b18); }},
        {"UR", [] { return makeUniformRandom(1u << 17, 16, 0x0601); }},
        {"LJN", [] { return makeScaleFree(120000, 14, 2.2, 0x1c01); }},
        {"TW", [] { return makeScaleFree(160000, 18, 1.9, 0x7301); }},
        {"ORK", [] { return makeScaleFree(120000, 20, 2.4, 0x0a01); }},
    };
    const auto input = std::find_if(
        std::begin(inputs), std::end(inputs),
        [&](const auto &in) { return name == in.first; });
    if (input == std::end(inputs))
        fatal("getGraphInput: unknown graph input '%s'", name.c_str());

    // The lock guards only the map: each input generates under its own
    // once-flag, so distinct inputs generate concurrently and a second
    // caller for one input waits for the first and shares its graph.
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const HostGraph> graph;
    };
    static std::map<std::string, Entry> cache;
    static std::mutex mtx;
    Entry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(mtx);
        entry = &cache[name];
    }
    std::call_once(entry->once, [&] {
        entry->graph = std::make_shared<const HostGraph>(input->second());
    });
    return entry->graph;
}

const std::vector<WorkloadSpec> &
graphSuite()
{
    static const std::vector<WorkloadSpec> suite = [] {
        std::vector<WorkloadSpec> v;
        const char *inputs[] = {"KR", "LJN", "ORK", "TW", "UR"};
        const char *kernels[] = {"BC", "BFS", "CC", "PR", "SSSP"};
        for (const char *k : kernels) {
            for (const char *in : inputs) {
                const std::string kernel = k;
                const std::string input = in;
                const std::string name = kernel + "_" + input;
                v.push_back({name, "graph", [kernel, input, name] {
                    auto g = getGraphInput(input);
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
    }();
    return suite;
}

const std::vector<WorkloadSpec> &
hpcdbSuite()
{
    static const std::vector<WorkloadSpec> suite = [] {
        std::vector<WorkloadSpec> v;
        v.push_back({"Camel", "hpcdb", [] {
            auto w = makeCamel();
            w.name = "Camel";
            return w;
        }});
        v.push_back({"G500", "hpcdb", [] {
            auto w = makeGraph500(getGraphInput("KR18"));
            w.name = "G500";
            return w;
        }});
        v.push_back({"HJ2", "hpcdb", [] {
            auto w = makeHashJoin(2);
            w.name = "HJ2";
            return w;
        }});
        v.push_back({"HJ8", "hpcdb", [] {
            auto w = makeHashJoin(8);
            w.name = "HJ8";
            return w;
        }});
        v.push_back({"Kangr", "hpcdb", [] {
            auto w = makeKangaroo();
            w.name = "Kangr";
            return w;
        }});
        v.push_back({"NAS-CG", "hpcdb", [] {
            auto w = makeNasCg();
            w.name = "NAS-CG";
            return w;
        }});
        v.push_back({"NAS-IS", "hpcdb", [] {
            auto w = makeNasIs();
            w.name = "NAS-IS";
            return w;
        }});
        v.push_back({"Randacc", "hpcdb", [] {
            auto w = makeRandacc();
            w.name = "Randacc";
            return w;
        }});
        return v;
    }();
    return suite;
}

std::vector<WorkloadSpec>
fullSuite()
{
    std::vector<WorkloadSpec> v = graphSuite();
    const auto &h = hpcdbSuite();
    v.insert(v.end(), h.begin(), h.end());
    return v;
}

const std::vector<WorkloadSpec> &
specSuite()
{
    static const std::vector<WorkloadSpec> suite = [] {
        std::vector<WorkloadSpec> v;
        for (const std::string &name : specBenchmarkNames()) {
            v.push_back({name, "spec", [name] {
                auto w = makeSpecKernel(name);
                w.name = name;
                return w;
            }});
        }
        return v;
    }();
    return suite;
}

std::vector<WorkloadSpec>
quickSuite()
{
    const char *names[] = {"PR_KR",   "BFS_UR",  "CC_TW",  "SSSP_LJN",
                           "Camel",   "HJ8",     "NAS-IS", "Randacc"};
    std::vector<WorkloadSpec> v;
    for (const char *n : names)
        v.push_back(findWorkload(n));
    return v;
}

std::vector<WorkloadSpec>
suiteByName(const std::string &name)
{
    if (name == "graph")
        return graphSuite();
    if (name == "hpcdb")
        return hpcdbSuite();
    if (name == "full")
        return fullSuite();
    if (name == "spec")
        return specSuite();
    if (name == "quick")
        return quickSuite();
    fatal("unknown suite '%s' (want graph|hpcdb|full|spec|quick)",
          name.c_str());
}

WorkloadSpec
findWorkload(const std::string &name)
{
    for (const auto &w : fullSuite()) {
        if (w.name == name)
            return w;
    }
    for (const auto &w : specSuite()) {
        if (w.name == name)
            return w;
    }
    fatal("findWorkload: unknown workload '%s'", name.c_str());
}

} // namespace svr
