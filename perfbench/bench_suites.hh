/**
 * @file
 * Seeded workload suites for the benchmark. The simulator's own suites
 * (workloads/suites.hh) draw their graph inputs from a fixed-seed
 * cache; the benchmark generates the same inputs itself, with
 * getGraphInput()'s shape parameters and a seed taken from the command
 * line, and hands the simulator only the generated graphs. Seed 0
 * reproduces the built-in inputs bit for bit.
 */

#ifndef SVR_PERFBENCH_BENCH_SUITES_HH
#define SVR_PERFBENCH_BENCH_SUITES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace svrbench
{

using GraphSet =
    std::map<std::string, std::shared_ptr<const svr::HostGraph>>;

/** The graph inputs a suite may need ("KR", "UR", ... and "KR18"). */
std::vector<std::string> graphInputsOf(const std::string &suite);

/** Generate @p names with getGraphInput()'s shapes under @p seed. */
GraphSet generateGraphs(const std::vector<std::string> &names,
                        std::uint64_t seed);

/**
 * The named suite ("full", "graph", "hpcdb" or "spec") with every
 * graph workload bound to @p graphs. Same names and order as
 * suiteByName().
 */
std::vector<svr::WorkloadSpec> seededSuite(const std::string &suite,
                                           const GraphSet &graphs);

} // namespace svrbench

#endif // SVR_PERFBENCH_BENCH_SUITES_HH
