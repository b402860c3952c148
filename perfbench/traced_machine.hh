/**
 * @file
 * The benchmark's traced path: it builds each cell's machine itself,
 * from the simulator's public parts, so it can time its own calls into
 * each module. Layers the core reaches only through an interface (the
 * SVR engine behind RunaheadEngine, IMP behind DemandObserver) are
 * wrapped in forwarding proxies that time each call and change
 * nothing else; a traced cell must produce the same SimResult as
 * simulate() on the same cell.
 */

#ifndef SVR_PERFBENCH_TRACED_MACHINE_HH
#define SVR_PERFBENCH_TRACED_MACHINE_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace svrbench
{

/** Host time spent behind one layer boundary. */
struct Span
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    Span &
    operator+=(const Span &o)
    {
        ns += o.ns;
        calls += o.calls;
        return *this;
    }
};

/** One full-detail cell run through the traced path. */
struct TracedCell
{
    svr::SimResult result;
    Span make;    //!< WorkloadSpec::make
    Span run;     //!< InOrderCore::run / OoOCore::run, proxies included
    Span proxied; //!< SvrEngine::onIssue or ImpPrefetcher::observeLoad
    /** LLC first-use / evicted-unused prefetch lines of the cell's
     *  runahead or IMP origin (pooled into an accuracy ratio). */
    std::uint64_t llcUsed = 0;
    std::uint64_t llcUnused = 0;
};

/** make() + the cell's machine, exactly as simulate() wires it. */
TracedCell runTracedCell(const svr::WorkloadSpec &spec,
                         const svr::SimConfig &config);

/** Executor::run over @p n instructions of a fresh instance. */
Span probeExecutor(const svr::WorkloadSpec &spec, std::uint64_t n);

/**
 * Record the demand and fetch stream of @p n instructions (via
 * Executor::step on a fresh instance) and time its replay into a
 * standalone MemorySystem. Span::calls counts replayed accesses.
 */
Span probeMemReplay(const svr::WorkloadSpec &spec, std::uint64_t n,
                    const svr::MemParams &params);

} // namespace svrbench

#endif // SVR_PERFBENCH_TRACED_MACHINE_HH
