#include "workloads/workload.hh"

namespace svr
{

WorkloadImage::WorkloadImage(WorkloadInstance built)
    : name(std::move(built.name)),
      mem(built.mem ? std::make_shared<const FunctionalMemory::Image>(
                          std::move(*built.mem))
                    : nullptr),
      program(std::move(built.program))
{
}

WorkloadInstance
WorkloadImage::fork() const
{
    return {name, mem ? std::make_shared<FunctionalMemory>(mem) : nullptr,
            program};
}

Addr
layoutArray64(FunctionalMemory &mem, const std::vector<std::uint64_t> &values)
{
    const Addr base = mem.alloc(values.size() * 8, 64);
    for (std::size_t i = 0; i < values.size(); i++)
        mem.write64(base + i * 8, values[i]);
    return base;
}

Addr
layoutArray32(FunctionalMemory &mem, const std::vector<std::uint32_t> &values)
{
    const Addr base = mem.alloc(values.size() * 4, 64);
    for (std::size_t i = 0; i < values.size(); i++)
        mem.write(base + i * 4, values[i], 4);
    return base;
}

Addr
layoutDoubles(FunctionalMemory &mem, const std::vector<double> &values)
{
    const Addr base = mem.alloc(values.size() * 8, 64);
    for (std::size_t i = 0; i < values.size(); i++)
        mem.writeDouble(base + i * 8, values[i]);
    return base;
}

Addr
layoutZeros(FunctionalMemory &mem, std::uint64_t count, unsigned bytes)
{
    // alloc() zero-fills pages lazily; just reserve the range.
    return mem.alloc(count * bytes, 64);
}

} // namespace svr
