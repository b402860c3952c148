#include "mem/stride_prefetcher.hh"

#include "common/logging.hh"

namespace svr
{

StridePrefetcher::StridePrefetcher(const StridePrefetcherParams &params)
    : p(params), hint(2 * std::size_t{params.tableEntries})
{
    if (p.tableEntries == 0)
        fatal("StridePrefetcher: need at least one table entry");
    table.resize(p.tableEntries);
}

void
StridePrefetcher::train(Addr pc, Addr addr, std::vector<Addr> &out)
{
    Entry *entry = hint.find(table, hintKey(pc), [pc](const Entry &e) {
        return e.valid && e.pc == pc;
    });
    if (!entry) {
        // The scan that picks the victim: the last invalid slot, else
        // the least recently used one.
        Entry *victim = &table[0];
        for (auto &e : table) {
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = Entry{};
        victim->pc = pc;
        victim->valid = true;
        victim->prevAddr = addr;
        victim->lastUse = ++useClock;
        hint.set(hintKey(pc),
                 static_cast<std::uint32_t>(victim - table.data()));
        return;
    }
    entry->lastUse = ++useClock;
    const auto delta = static_cast<std::int64_t>(addr) -
                       static_cast<std::int64_t>(entry->prevAddr);
    if (delta == entry->stride && delta != 0) {
        if (entry->confidence < 3)
            entry->confidence++;
    } else {
        if (entry->confidence > 0)
            entry->confidence--;
        if (entry->confidence == 0)
            entry->stride = delta;
    }
    entry->prevAddr = addr;
    if (entry->confidence >= p.confidenceThreshold && entry->stride != 0 &&
        delta == entry->stride) {
        // Prefetch in line-granular steps: sub-line strides would
        // otherwise never leave the demanded line.
        std::int64_t step = entry->stride;
        if (step > 0 && step < static_cast<std::int64_t>(cacheLineBytes))
            step = cacheLineBytes;
        else if (step < 0 &&
                 -step < static_cast<std::int64_t>(cacheLineBytes))
            step = -static_cast<std::int64_t>(cacheLineBytes);
        for (unsigned d = 0; d < p.degree; d++) {
            const auto target = static_cast<Addr>(
                static_cast<std::int64_t>(addr) +
                step * static_cast<std::int64_t>(p.distance + d));
            out.push_back(lineAlign(target));
            issued++;
        }
    }
}

std::vector<Addr>
StridePrefetcher::residentPcs() const
{
    std::vector<Addr> out;
    out.reserve(table.size());
    for (const Entry &e : table)
        out.push_back(e.valid ? e.pc : ~Addr{0});
    return out;
}

void
StridePrefetcher::reset()
{
    for (auto &e : table)
        e = Entry{};
    hint.clear();
    useClock = 0;
    issued = 0;
}

} // namespace svr
