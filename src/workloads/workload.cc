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

namespace
{
template <typename T>
Addr
layoutArray(FunctionalMemory &mem, const std::vector<T> &values)
{
    const Addr base = mem.alloc(values.size() * sizeof(T), 64);
    mem.writeArray(base, values.data(), values.size());
    return base;
}
} // namespace

Addr
layoutArray64(FunctionalMemory &mem, const std::vector<std::uint64_t> &values)
{
    return layoutArray(mem, values);
}

Addr
layoutArray32(FunctionalMemory &mem, const std::vector<std::uint32_t> &values)
{
    return layoutArray(mem, values);
}

Addr
layoutDoubles(FunctionalMemory &mem, const std::vector<double> &values)
{
    return layoutArray(mem, values);
}

Addr
layoutZeros(FunctionalMemory &mem, std::uint64_t count, unsigned bytes)
{
    // alloc() zero-fills pages lazily; just reserve the range.
    return mem.alloc(count * bytes, 64);
}

Addr
layoutFill32(FunctionalMemory &mem, std::uint64_t count, std::uint32_t value)
{
    const Addr base = mem.alloc(count * 4, 64);
    mem.fill32(base, value, count);
    return base;
}

} // namespace svr
