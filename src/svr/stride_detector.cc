#include "svr/stride_detector.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace svr
{

StrideDetector::StrideDetector(const StrideDetectorParams &params)
    : p(params), hint(2 * std::size_t{params.entries})
{
    if (p.entries == 0)
        fatal("StrideDetector: need at least one entry");
    table.resize(p.entries);
    seenAt.assign(p.entries, 0);
}

StrideEntry &
StrideDetector::install(StrideEntry *victim, Addr pc)
{
    *victim = StrideEntry{};
    victim->pc = pc;
    victim->valid = true;
    seenAt[slotOf(*victim)] = 0;
    hint.set(hintKey(pc), static_cast<std::uint32_t>(slotOf(*victim)));
    return *victim;
}

StrideObservation
StrideDetector::observe(Addr pc, Addr addr)
{
    StrideObservation obs;
    StrideEntry *entry = find(pc);
    if (!entry) {
        // The scan that picks the victim: the last invalid slot, else
        // the least recently used one.
        StrideEntry *victim = &table[0];
        for (auto &e : table) {
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        StrideEntry &fresh = install(victim, pc);
        fresh.prevAddress = addr;
        fresh.lastUse = ++useClock;
        obs.entry = &fresh;
        return obs;
    }
    entry->lastUse = ++useClock;
    obs.entry = entry;

    // Waiting-mode range check *before* updating Previous Address: a
    // load cannot retrigger while its address lies between the range
    // start and Last Prefetch covered by the previous round.
    if (entry->hasLastPrefetch) {
        const Addr lo = entry->stride >= 0 ? entry->prevAddress
                                           : entry->lastPrefetch;
        const Addr hi = entry->stride >= 0 ? entry->lastPrefetch
                                           : entry->prevAddress;
        obs.inWaitRange = addr >= lo && addr <= hi;
        if (!obs.inWaitRange)
            entry->hasLastPrefetch = false; // leave waiting mode
    }

    const auto delta = static_cast<std::int64_t>(addr) -
                       static_cast<std::int64_t>(entry->prevAddress);
    if (delta == entry->stride && delta != 0) {
        obs.matched = true;
        if (entry->satCounter < 3)
            entry->satCounter++;
    } else {
        if (entry->satCounter > 0)
            entry->satCounter--;
        if (entry->satCounter == 0)
            entry->stride = delta;
    }
    entry->prevAddress = addr;

    obs.isStriding = entry->satCounter >= p.confidenceThreshold &&
                     entry->stride != 0 &&
                     std::llabs(entry->stride) <= p.maxStride;
    return obs;
}

void
StrideDetector::clearSeenExcept(Addr except_pc)
{
    const StrideEntry *keep = find(except_pc);
    const bool kept = keep && seen(*keep);
    seenEpoch++;
    if (kept)
        markSeen(*keep);
}

void
StrideDetector::resetUselessness()
{
    for (auto &e : table) {
        if (e.valid)
            e.uselessRounds = 0;
    }
}

void
StrideDetector::reset()
{
    for (auto &e : table)
        e = StrideEntry{};
    useClock = 0;
    hint.clear();
    std::fill(seenAt.begin(), seenAt.end(), 0);
    seenEpoch = 1;
}

std::vector<StrideEntry>
StrideDetector::entries() const
{
    std::vector<StrideEntry> out = table;
    for (std::size_t i = 0; i < out.size(); i++) {
        if (out[i].valid)
            out[i].seen = seenAt[i] == seenEpoch;
    }
    return out;
}

void
StrideDetector::importEntries(const std::vector<StrideEntry> &entries,
                              std::uint64_t clock)
{
    // A valid entry's Seen bit moves into its epoch stamp; an invalid
    // one keeps its field (clearSeenExcept never touched those).
    seenEpoch = 1;
    for (std::size_t i = 0; i < table.size(); i++) {
        table[i] = i < entries.size() ? entries[i] : StrideEntry{};
        seenAt[i] = table[i].valid && table[i].seen ? seenEpoch : 0;
        if (table[i].valid)
            table[i].seen = false;
    }
    useClock = clock;
}

} // namespace svr
