#include "mem/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace svr
{

MemorySystem::MemorySystem(const MemParams &params)
    : p(params),
      l1iCache(params.l1i),
      l1dCache(params.l1d),
      l2Cache(params.l2),
      dramModel(params.dram),
      trans(params.translation),
      stridePf(params.stridePf)
{
}

void
MemorySystem::drainAll(Cycle now)
{
    // Fill completed L2 misses first so L1 fills can hit in L2.
    l2Cache.drainCompletedMisses(now, [&](const EvictResult &ev) {
        if (ev.evictedValid && ev.evictedDirty) {
            dramModel.writeback(now);
            traffic.writebacks++;
        }
    });
    auto l1_evict = [&](const EvictResult &ev) {
        if (ev.evictedValid && ev.evictedDirty) {
            // Dirty L1 victims write back into the (inclusive-ish) L2.
            l2Cache.setDirty(ev.evictedLine);
        }
    };
    l1dCache.drainCompletedMisses(now, l1_evict);
    l1iCache.drainCompletedMisses(now, [](const EvictResult &) {});
}

AccessResult
MemorySystem::demandLine(AccessKind kind, Addr line, Cycle start)
{
    const bool is_store = kind == AccessKind::Store;
    AccessResult result;
    bool first_use = false;
    PrefetchOrigin hit_origin = PrefetchOrigin::None;

    // L1D lookup.
    if (l1dCache.lookup(line, true, first_use, hit_origin)) {
        if (is_store)
            l1dCache.setDirty(line);
        result.done = start + l1dCache.params().hitLatency;
        result.level = HitLevel::L1;
        if (first_use && hit_origin == PrefetchOrigin::Svr)
            result.svrFirstUse = true;
        if (first_use) {
            // Propagate first-use to the LLC copy for the Fig. 13a
            // accuracy metric.
            l2Cache.markPrefetchUsed(line);
        }
        return result;
    }

    // Merged with an outstanding miss? (Single hash probe for the
    // completion/origin/source triple.)
    if (const Cache::PendingInfo pi = l1dCache.pendingInfo(line, start);
        pi.done) {
        result.done = pi.done + l1dCache.params().hitLatency;
        result.level = pi.fromDram ? HitLevel::Dram : HitLevel::L2;
        // A demand merging into an in-flight prefetch is a (late but
        // real) use of that prefetch.
        if (pi.origin != PrefetchOrigin::None) {
            l1dCache.convertPendingToDemand(line);
            l2Cache.convertPendingToDemand(line);
            l2Cache.markPrefetchUsed(line);
            if (pi.origin == PrefetchOrigin::Svr)
                result.svrFirstUse = true;
        }
        if (is_store)
            l1dCache.setPendingFill(line, PrefetchOrigin::None, true,
                                    result.level == HitLevel::Dram);
        return result;
    }
    return missLine(kind, line, start, true, is_store,
                    PrefetchOrigin::None);
}

AccessResult
MemorySystem::missLine(AccessKind kind, Addr line, Cycle start,
                       bool is_demand, bool is_store,
                       PrefetchOrigin fill_origin)
{
    AccessResult result;

    // Allocate an L1 MSHR (a full MSHR file delays the miss).
    const Cycle l1_start =
        l1dCache.mshrAvailable(start + l1dCache.params().hitLatency);

    // L2 lookup.
    bool l2_first_use = false;
    PrefetchOrigin l2_origin = PrefetchOrigin::None;
    Cycle fill_done;
    bool from_dram = false;
    if (l2Cache.lookup(line, is_demand, l2_first_use, l2_origin)) {
        fill_done = l1_start + l2Cache.params().hitLatency;
        result.level = HitLevel::L2;
        if (is_demand && l2_first_use && l2_origin == PrefetchOrigin::Svr)
            result.svrFirstUse = true;
    } else if (const Cache::PendingInfo pi =
                   l2Cache.pendingInfo(line, l1_start);
               pi.done) {
        if (is_demand && pi.origin != PrefetchOrigin::None) {
            l2Cache.convertPendingToDemand(line);
            if (pi.origin == PrefetchOrigin::Svr)
                result.svrFirstUse = true;
        }
        fill_done = pi.done + l2Cache.params().hitLatency;
        result.level = HitLevel::Dram;
        from_dram = true;
    } else {
        const Cycle l2_start =
            l2Cache.mshrAvailable(l1_start + l2Cache.params().hitLatency);
        const Cycle dram_done = dramModel.access(l2_start);
        switch (kind) {
          case AccessKind::Load:
          case AccessKind::Store:
            traffic.demandData++;
            break;
          case AccessKind::Ifetch:
            traffic.demandIfetch++;
            break;
          case AccessKind::PrefStride:
            traffic.prefStride++;
            break;
          case AccessKind::PrefSvr:
            traffic.prefSvr++;
            break;
          case AccessKind::PrefImp:
            traffic.prefImp++;
            break;
        }
        l2Cache.allocateMshr(line, l2_start, dram_done, fill_origin,
                             false, true);
        fill_done = dram_done;
        result.level = HitLevel::Dram;
        from_dram = true;
    }

    l1dCache.allocateMshr(line, l1_start, fill_done, fill_origin,
                          is_store, from_dram);
    result.done = fill_done + l1dCache.params().hitLatency;
    return result;
}

AccessResult
MemorySystem::access(AccessKind kind, Addr pc, Addr addr, Cycle now)
{
    maybeDrain(now);
    if (kind != AccessKind::Load && kind != AccessKind::Store)
        return prefetch(kind, addr, now);

    const AccessResult result =
        demandLine(kind, lineAlign(addr), trans.translateData(addr, now));

    if (kind == AccessKind::Load) {
        const bool l1_hit = result.level == HitLevel::L1;
        // Train the baseline stride prefetcher.
        if (p.enableStridePf) {
            scratchPrefetches.clear();
            stridePf.train(pc, addr, scratchPrefetches);
            issuePrefetches(scratchPrefetches, now, AccessKind::PrefStride);
        }
        // Feed the attached cache-side prefetcher (IMP), if any.
        if (observer) {
            scratchPrefetches.clear();
            observer->observeLoad(pc, addr, l1_hit, scratchPrefetches);
            issuePrefetches(scratchPrefetches, now, AccessKind::PrefImp);
        }
    }
    return result;
}

AccessResult
MemorySystem::prefetch(AccessKind kind, Addr addr, Cycle now)
{
    // Prefetches translate too: they are issued core-side or L1-side
    // and consume walker bandwidth.
    const Cycle trans_done = trans.translateData(addr, now);
    const Addr line = lineAlign(addr);

    // A prefetch to a line already present or pending is dropped
    // without counting as "issued". The probe answers both questions
    // the L1D part of a demand access would ask, so an issued
    // prefetch goes straight to the miss path.
    if (l1dCache.dropsPrefetch(line, now))
        return {trans_done, HitLevel::L1, false};

    PrefetchOrigin fill_origin = PrefetchOrigin::Stride;
    if (kind == AccessKind::PrefSvr)
        fill_origin = PrefetchOrigin::Svr;
    else if (kind == AccessKind::PrefImp)
        fill_origin = PrefetchOrigin::Imp;
    prefIssuedCount[static_cast<unsigned>(fill_origin)]++;
    return missLine(kind, line, trans_done, false, false, fill_origin);
}

void
MemorySystem::issuePrefetches(const std::vector<Addr> &lines, Cycle now,
                              AccessKind kind)
{
    // No drain pass: the demand access that produced these candidates
    // just drained at `now`, and every miss allocated since completes
    // after `now`. No defensive copy either: prefetch() never appends
    // to the scratch vector, so `lines` is stable across the loop.
    for (std::size_t i = 0; i < lines.size(); i++)
        prefetch(kind, lines[i], now);
}

AccessResult
MemorySystem::instrFetch(Addr pc, Cycle now)
{
    maybeDrain(now);
    AccessResult result;
    const Cycle trans_done = trans.translateInstr(pc, now);
    const Addr line = lineAlign(pc);

    bool first_use = false;
    PrefetchOrigin origin = PrefetchOrigin::None;
    if (l1iCache.lookup(line, true, first_use, origin)) {
        result.done = trans_done + l1iCache.params().hitLatency;
        result.level = HitLevel::L1;
        return result;
    }
    if (Cycle pending = l1iCache.outstandingMiss(line, trans_done)) {
        result.done = pending;
        result.level = HitLevel::L2;
        return result;
    }
    const Cycle start = l1iCache.mshrAvailable(
        trans_done + l1iCache.params().hitLatency);
    bool l2_first = false;
    PrefetchOrigin l2_origin = PrefetchOrigin::None;
    Cycle done;
    if (l2Cache.lookup(line, true, l2_first, l2_origin)) {
        done = start + l2Cache.params().hitLatency;
        result.level = HitLevel::L2;
    } else if (Cycle pending = l2Cache.outstandingMiss(line, start)) {
        done = pending;
        result.level = HitLevel::Dram;
    } else {
        const Cycle l2_start =
            l2Cache.mshrAvailable(start + l2Cache.params().hitLatency);
        done = dramModel.access(l2_start);
        traffic.demandIfetch++;
        l2Cache.allocateMshr(line, l2_start, done);
        result.level = HitLevel::Dram;
    }
    l1iCache.allocateMshr(line, start, done);
    result.done = done;
    return result;
}

void
MemorySystem::reset()
{
    l1iCache.reset();
    l1dCache.reset();
    l2Cache.reset();
    dramModel.reset();
    trans.reset();
    stridePf.reset();
    traffic = DramTraffic{};
    for (auto &c : prefIssuedCount)
        c = 0;
}

double
MemorySystem::l1PrefetchAccuracy(PrefetchOrigin origin) const
{
    const auto i = static_cast<unsigned>(origin);
    return prefetchAccuracy(l1dCache.prefetchFirstUse[i],
                            l1dCache.prefetchEvictedUnused[i]);
}

double
MemorySystem::llcPrefetchAccuracy(PrefetchOrigin origin) const
{
    const auto i = static_cast<unsigned>(origin);
    return prefetchAccuracy(l2Cache.prefetchFirstUse[i],
                            l2Cache.prefetchEvictedUnused[i]);
}

std::uint64_t
MemorySystem::l1PrefFirstUse(PrefetchOrigin origin) const
{
    return l1dCache.prefetchFirstUse[static_cast<unsigned>(origin)];
}

std::uint64_t
MemorySystem::l1PrefEvictedUnused(PrefetchOrigin origin) const
{
    return l1dCache.prefetchEvictedUnused[static_cast<unsigned>(origin)];
}

std::uint64_t
MemorySystem::llcPrefFirstUse(PrefetchOrigin origin) const
{
    return l2Cache.prefetchFirstUse[static_cast<unsigned>(origin)];
}

std::uint64_t
MemorySystem::llcPrefEvictedUnused(PrefetchOrigin origin) const
{
    return l2Cache.prefetchEvictedUnused[static_cast<unsigned>(origin)];
}

} // namespace svr
