/**
 * @file
 * Workload suites matching the paper's evaluation (section V):
 *  - graph suite: BC/BFS/CC/PR/SSSP x {KR, LJN, ORK, TW, UR}
 *  - HPC-DB suite: Camel, Graph500, HJ2, HJ8, Kangaroo, NAS-CG,
 *    NAS-IS, Randacc
 *  - SPEC-like suite: 23 regular kernels (Figure 14)
 * Graph inputs are generated once and cached host-side; every factory
 * still lays out fresh functional memory per run.
 */

#ifndef SVR_WORKLOADS_SUITES_HH
#define SVR_WORKLOADS_SUITES_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace svr
{

/**
 * Cached graph input by paper name: KR, KR18, UR, LJN, TW, ORK.
 * Distinct inputs generate concurrently; every caller for one name
 * gets the same graph.
 */
std::shared_ptr<const HostGraph> getGraphInput(const std::string &name);

/** The 25 GAP workload/input pairs (BC_KR ... SSSP_UR). */
const std::vector<WorkloadSpec> &graphSuite();

/** The 8 HPC-DB workloads. */
const std::vector<WorkloadSpec> &hpcdbSuite();

/** graphSuite + hpcdbSuite (the 33 pairs of Figures 11/12). */
std::vector<WorkloadSpec> fullSuite();

/** The 23 SPEC-like kernels (Figure 14). */
const std::vector<WorkloadSpec> &specSuite();

/**
 * A small representative subset (one per behaviour class) used by the
 * sensitivity studies (Figures 16-18) to bound bench runtime.
 */
std::vector<WorkloadSpec> quickSuite();

/** Find a workload by name across all suites; fatal if unknown. */
WorkloadSpec findWorkload(const std::string &name);

/**
 * Resolve a suite by CLI name: graph, hpcdb, full, spec, or quick.
 * Fatal on anything else. Both the sweep tool and fabric workers use
 * this, so a worker handed a suite name over the wire reconstructs
 * exactly the cell matrix the coordinator enumerated.
 */
std::vector<WorkloadSpec> suiteByName(const std::string &name);

} // namespace svr

#endif // SVR_WORKLOADS_SUITES_HH
