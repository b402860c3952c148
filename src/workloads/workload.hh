/**
 * @file
 * Workload abstraction: a named factory producing a fresh
 * (program, functional memory) pair, so that every core configuration
 * simulates bit-identical initial state.
 *
 * A sweep builds each workload once and freezes it into a
 * WorkloadImage: the image (its memory pages and Program) is shared
 * and never written, while every cell simulates a private
 * copy-on-write fork of it, which starts from the same bytes as a
 * fresh make().
 */

#ifndef SVR_WORKLOADS_WORKLOAD_HH
#define SVR_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "mem/functional_memory.hh"

namespace svr
{

/** One ready-to-simulate workload instance. */
struct WorkloadInstance
{
    std::string name;
    std::shared_ptr<FunctionalMemory> mem;
    std::shared_ptr<Program> program;
};

/**
 * Factory producing a fresh instance (fresh memory state, held by
 * nothing but the instance).
 */
using WorkloadFactory = std::function<WorkloadInstance()>;

/** A named workload in a suite. */
struct WorkloadSpec
{
    std::string name;
    std::string suite; //!< "graph", "hpcdb", or "spec"
    WorkloadFactory make;
};

/**
 * A built workload frozen for sharing. Immutable, so any thread may
 * fork() it; the forks share its Program, which simulation only ever
 * reads (the Executor takes it as const).
 */
class WorkloadImage
{
  public:
    /** Freeze @p built (a fresh make()); its memory pages move here. */
    explicit WorkloadImage(WorkloadInstance built);

    /** A private instance: a copy-on-write fork of the memory. */
    WorkloadInstance fork() const;

  private:
    std::string name;
    std::shared_ptr<const FunctionalMemory::Image> mem;
    std::shared_ptr<Program> program;
};

/**
 * Helpers for laying out initialized arrays in functional memory. Each
 * allocates a 64-byte-aligned range and fills it a page at a time.
 */
Addr layoutArray64(FunctionalMemory &mem,
                   const std::vector<std::uint64_t> &values);
Addr layoutArray32(FunctionalMemory &mem,
                   const std::vector<std::uint32_t> &values);
Addr layoutDoubles(FunctionalMemory &mem, const std::vector<double> &values);

/** Allocate a zero-filled array of @p count elements of @p bytes. */
Addr layoutZeros(FunctionalMemory &mem, std::uint64_t count, unsigned bytes);

/** Allocate @p count 32-bit elements, each set to @p value. */
Addr layoutFill32(FunctionalMemory &mem, std::uint64_t count,
                  std::uint32_t value);

} // namespace svr

#endif // SVR_WORKLOADS_WORKLOAD_HH
