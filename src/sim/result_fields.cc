#include "sim/result_fields.hh"

namespace svr
{

namespace
{

using enum Stitch;
using enum Show;

// Row accessors: a stored field of SimResult, or a derived value.
#define U64(f)                                                             \
    ResultField::U64Field([](SimResult &r) -> auto & { return r.f; })
#define F64(f)                                                             \
    ResultField::F64Field([](SimResult &r) -> auto & { return r.f; })
#define U64_OF(e) ResultField::U64Of([](const SimResult &r) { return e; })
#define F64_OF(e) ResultField::F64Of([](const SimResult &r) { return e; })
// One journal row per PrefetchOrigin (None, Stride, Svr, Imp).
#define PER_ORIGIN(path, stitch, f)                                        \
    {path ".none", nullptr, stitch, U64(f[0]), Journal},                   \
        {path ".stride", nullptr, stitch, U64(f[1]), Journal},             \
        {path ".svr", nullptr, stitch, U64(f[2]), Journal},                \
        {path ".imp", nullptr, stitch, U64(f[3]), Journal}

constexpr ResultField table[] = {
    {"instructions", "instructions", Exact, U64(core.instructions)},
    {"cycles", "cycles", Scaled, U64(core.cycles)},
    {"ipc", "ipc", Derived, F64_OF(r.ipc())},
    {"cpi", "cpi", Derived, F64_OF(r.cpi())},
    {"cpi_stack.base", "stack_base", Derived, U64_OF(r.core.stackBase())},
    {"cpi_stack.l2", "stack_l2", Scaled, U64(core.stackL2)},
    {"cpi_stack.dram", "stack_dram", Scaled, U64(core.stackDram)},
    {"cpi_stack.branch", "stack_branch", Scaled, U64(core.stackBranch)},
    {"cpi_stack.svu", "stack_svu", Scaled, U64(core.stackSvu)},
    {"cpi_stack.other", "stack_other", Scaled, U64(core.stackOther)},
    {"loads", "loads", Scaled, U64(core.loads)},
    {"stores", "stores", Scaled, U64(core.stores)},
    {"branches", "branches", Scaled, U64(core.branches)},
    {"branch_mispredicts", "branch_mispredicts", Scaled,
     U64(core.branchMispredicts)},
    {"l1d_hits", "l1d_hits", Scaled, U64(l1dHits)},
    {"l1d_misses", "l1d_misses", Scaled, U64(l1dMisses)},
    {"l2_hits", "l2_hits", Scaled, U64(l2Hits)},
    {"l2_misses", "l2_misses", Scaled, U64(l2Misses)},
    {"dram_transfers", "dram_transfers", Scaled, U64(dramTransfers)},
    {"dram_traffic.demand_data", nullptr, Scaled, U64(traffic.demandData)},
    {"dram_traffic.demand_ifetch", nullptr, Scaled,
     U64(traffic.demandIfetch)},
    {"dram_traffic.pref_stride", nullptr, Scaled, U64(traffic.prefStride)},
    {"dram_traffic.pref_svr", nullptr, Scaled, U64(traffic.prefSvr)},
    {"dram_traffic.pref_imp", nullptr, Scaled, U64(traffic.prefImp)},
    {"dram_traffic.writebacks", nullptr, Scaled, U64(traffic.writebacks)},
    {"tlb_walks", "tlb_walks", Scaled, U64(tlbWalks)},
    {"svr.rounds", "svr_rounds", Scaled, U64(core.svrRounds)},
    {"svr.transient_scalars", "svr_scalars", Scaled,
     U64(core.transientScalars)},
    {"svr.prefetches", "svr_prefetches", Scaled, U64(core.svrPrefetches)},
    {"svr.llc_accuracy", "svr_llc_accuracy", Recomputed,
     F64(svrAccuracyLlc)},
    {"imp_llc_accuracy", nullptr, Recomputed, F64(impAccuracyLlc)},
    {"stride_llc_accuracy", nullptr, Recomputed, F64(strideAccuracyLlc),
     Journal},
    {"sampled.windows", "sample_windows", Exact, U64(sampleWindows),
     Sampled},
    {"sampled.measured_instructions", "measured_instructions", Exact,
     U64(measuredInstructions), Sampled},
    {"sampled.cpi_stderr", "cpi_stderr", Exact, F64(cpiStderr), Sampled},
    {"sampled.cpi_ci95", nullptr, Derived, F64_OF(1.96 * r.cpiStderr),
     Sampled},
    {"energy.total_nj", nullptr, Derived, F64_OF(r.energy.totalNJ())},
    {"energy.per_instr_nj", "energy_per_instr_nj", Derived,
     F64_OF(r.energyPerInstr())},
    {"energy.core_static_nj", nullptr, Recomputed, F64(energy.coreStatic)},
    {"energy.core_dynamic_nj", nullptr, Recomputed,
     F64(energy.coreDynamic)},
    {"energy.svr_dynamic_nj", nullptr, Recomputed, F64(energy.svrDynamic)},
    {"energy.svr_static_nj", nullptr, Recomputed, F64(energy.svrStatic),
     Journal},
    {"energy.cache_dynamic_nj", nullptr, Recomputed,
     F64(energy.cacheDynamic)},
    {"energy.dram_static_nj", nullptr, Recomputed, F64(energy.dramStatic)},
    {"energy.dram_dynamic_nj", nullptr, Recomputed,
     F64(energy.dramDynamic)},
    PER_ORIGIN("pref_issued", Scaled, prefIssued),
    PER_ORIGIN("llc_pref_first_use", Summed, llcPrefFirstUse),
    PER_ORIGIN("llc_pref_evicted_unused", Summed, llcPrefEvictedUnused),
    {"l1_accesses", nullptr, Scaled, U64(l1Accesses), Journal},
    {"l2_accesses", nullptr, Scaled, U64(l2Accesses), Journal},
};
static_assert(numPrefetchOrigins == 4, "PER_ORIGIN lists four origins");

#undef U64
#undef F64
#undef U64_OF
#undef F64_OF
#undef PER_ORIGIN

} // namespace

std::uint64_t
ResultField::u64(const SimResult &r) const
{
    if (const U64Of *of = std::get_if<U64Of>(&at))
        return (*of)(r);
    // The accessor only locates the field; it does not write it.
    return std::get<U64Field>(at)(const_cast<SimResult &>(r));
}

double
ResultField::f64(const SimResult &r) const
{
    if (const F64Of *of = std::get_if<F64Of>(&at))
        return (*of)(r);
    return std::get<F64Field>(at)(const_cast<SimResult &>(r));
}

std::span<const ResultField>
resultFields()
{
    return table;
}

void
captureMemory(const MemorySystem &mem, SimResult &r)
{
    r.l1dHits = mem.l1d().hits;
    r.l1dMisses = mem.l1d().misses;
    r.l2Hits = mem.l2().hits;
    r.l2Misses = mem.l2().misses;
    r.dramTransfers = mem.dram().transfers();
    r.traffic = mem.dramTraffic();
    r.tlbWalks = mem.translation().walks;
    for (unsigned i = 0; i < numPrefetchOrigins; i++) {
        const auto origin = static_cast<PrefetchOrigin>(i);
        r.prefIssued[i] = mem.prefIssued(origin);
        r.llcPrefFirstUse[i] = mem.llcPrefFirstUse(origin);
        r.llcPrefEvictedUnused[i] = mem.llcPrefEvictedUnused(origin);
    }
    r.l1Accesses = mem.l1d().hits + mem.l1d().misses + mem.l1i().hits +
                   mem.l1i().misses;
    r.l2Accesses = r.l2Hits + r.l2Misses;
}

void
recomputeResult(const SimConfig &config, SimResult &r)
{
    const auto accuracy = [&r](PrefetchOrigin o) {
        const auto i = static_cast<unsigned>(o);
        return prefetchAccuracy(r.llcPrefFirstUse[i],
                                r.llcPrefEvictedUnused[i]);
    };
    r.svrAccuracyLlc = accuracy(PrefetchOrigin::Svr);
    r.impAccuracyLlc = accuracy(PrefetchOrigin::Imp);
    r.strideAccuracyLlc = accuracy(PrefetchOrigin::Stride);

    const MemEnergyEvents ev{r.l1Accesses, r.l2Accesses, r.dramTransfers};
    r.energy = computeEnergy(config.core == CoreType::OutOfOrder
                                 ? CoreKind::OutOfOrder
                                 : CoreKind::InOrder,
                             config.core == CoreType::Svr, r.core, ev,
                             config.energy);
}

void
subtractResult(SimResult &r, const SimResult &base)
{
    for (const ResultField &f : table) {
        if (f.stored() && f.isU64()) {
            const std::uint64_t b = f.u64(base);
            std::uint64_t &v = f.u64Ref(r);
            v = v > b ? v - b : 0;
        }
    }
}

} // namespace svr
