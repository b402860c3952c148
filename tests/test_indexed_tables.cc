/**
 * @file
 * Differential tests for the hinted lookups (common/slot_hints.hh):
 * the TLB, the SVR stride detector and the loop-bound table each find
 * a hit through a page- or PC-indexed hint before falling back to a
 * scan. Each is driven side by side with a plain scan-and-LRU
 * reference over random streams, including keys that alias in the
 * hint table, and must agree with it after every operation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mem/stride_prefetcher.hh"
#include "mem/tlb.hh"
#include "svr/loop_bound.hh"
#include "svr/stride_detector.hh"

namespace svr
{
namespace
{

/** Every key k * aliasStride aliases in any hint table up to 2^20. */
constexpr Addr aliasStride = Addr{1} << 20;

// ---- TLB ---------------------------------------------------------------

/** The scan-and-LRU TLB the hinted one must match slot for slot. */
class RefTlb
{
  public:
    RefTlb(unsigned entries, unsigned assoc)
        : assoc(assoc), sets(entries / assoc),
          pages(entries, ~Addr{0}), stamps(entries, 0), fill(sets, 0)
    {
    }

    bool
    lookup(Addr addr)
    {
        const Addr page = pageAlign(addr);
        const std::size_t base = setOf(page) * assoc;
        for (std::size_t i = base; i < base + assoc; i++) {
            if (pages[i] == page) {
                stamps[i] = ++clock;
                hits++;
                return true;
            }
        }
        misses++;
        return false;
    }

    void
    insert(Addr addr)
    {
        const Addr page = pageAlign(addr);
        const std::size_t set = setOf(page);
        const std::size_t base = set * assoc;
        std::size_t w = 0;
        if (fill[set] < assoc) {
            w = fill[set]++;
        } else {
            for (std::size_t i = 1; i < assoc; i++) {
                if (stamps[base + i] < stamps[base + w])
                    w = i;
            }
        }
        pages[base + w] = page;
        stamps[base + w] = ++clock;
    }

    unsigned assoc;
    unsigned sets;
    std::vector<Addr> pages;
    std::vector<std::uint64_t> stamps;
    std::vector<unsigned> fill;
    std::uint64_t clock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    std::size_t
    setOf(Addr page) const
    {
        return (page / pageBytes) & (sets - 1);
    }
};

enum class Stream { Local, Random, Aliasing };

/** The @p i-th address of a @p kind stream. */
Addr
streamAddr(Stream kind, Rng &rng, Addr &cursor)
{
    switch (kind) {
      case Stream::Local:
        // A random walk over a few dozen neighbouring pages.
        cursor += (rng.nextBounded(9) - 4) * pageBytes;
        return cursor + rng.nextBounded(pageBytes);
      case Stream::Random:
        return rng.nextBounded(Addr{1} << 40);
      case Stream::Aliasing:
        // Pages that share one hint slot (and often one set), plus
        // page 0 so an empty slot can never pass for a tag.
        return rng.nextBounded(24) * aliasStride * pageBytes +
               rng.nextBounded(pageBytes);
    }
    return 0;
}

class TlbDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbDifferential, MatchesScanReference)
{
    const auto [entries, assoc] = GetParam();
    for (Stream kind : {Stream::Local, Stream::Random, Stream::Aliasing}) {
        Tlb tlb(entries, assoc);
        RefTlb ref(entries, assoc);
        Rng rng(entries * 131 + assoc * 7 + static_cast<unsigned>(kind));
        Addr cursor = Addr{1} << 32;
        for (int op = 0; op < 20000; op++) {
            const Addr addr = streamAddr(kind, rng, cursor);
            const bool hit = tlb.lookup(addr);
            ASSERT_EQ(hit, ref.lookup(addr)) << "op " << op;
            if (!hit) {
                // As TranslationStack does: fill after a failed lookup.
                tlb.insert(addr);
                ref.insert(addr);
            }
            ASSERT_EQ(tlb.hits, ref.hits) << "op " << op;
            ASSERT_EQ(tlb.misses, ref.misses) << "op " << op;
            ASSERT_EQ(tlb.residentPages(), ref.pages) << "op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(4u, 2u),
                      std::make_tuple(16u, 16u),
                      std::make_tuple(2048u, 8u)),
    [](const auto &info) {
        const unsigned entries = std::get<0>(info.param);
        const unsigned assoc = std::get<1>(info.param);
        return std::to_string(entries / assoc) + "x" +
               std::to_string(assoc);
    });

TEST(TlbDifferential, ResetForgetsEveryPage)
{
    Tlb tlb(16, 16);
    for (Addr p = 0; p < 16; p++)
        tlb.insert(p * pageBytes);
    EXPECT_TRUE(tlb.lookup(3 * pageBytes));
    tlb.reset();
    EXPECT_FALSE(tlb.lookup(3 * pageBytes));
    EXPECT_FALSE(tlb.lookup(0));
    EXPECT_EQ(tlb.hits, 0u);
    EXPECT_EQ(tlb.misses, 2u);
}

// ---- Baseline stride prefetcher ----------------------------------------

/** The scan-only prefetcher table; candidates as StridePrefetcher. */
class RefStridePrefetcher
{
  public:
    explicit RefStridePrefetcher(const StridePrefetcherParams &params)
        : p(params), table(params.tableEntries)
    {
    }

    void
    train(Addr pc, Addr addr, std::vector<Addr> &out)
    {
        Entry *entry = nullptr;
        Entry *victim = &table[0];
        for (auto &e : table) {
            if (e.valid && e.pc == pc) {
                entry = &e;
                break;
            }
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        if (!entry) {
            *victim = Entry{};
            victim->pc = pc;
            victim->valid = true;
            victim->prevAddr = addr;
            victim->lastUse = ++clock;
            return;
        }
        entry->lastUse = ++clock;
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
        if (entry->confidence >= p.confidenceThreshold &&
            entry->stride != 0 && delta == entry->stride) {
            std::int64_t step = entry->stride;
            const auto line = static_cast<std::int64_t>(cacheLineBytes);
            if (step > 0 && step < line)
                step = line;
            else if (step < 0 && -step < line)
                step = -line;
            for (unsigned d = 0; d < p.degree; d++) {
                out.push_back(lineAlign(static_cast<Addr>(
                    static_cast<std::int64_t>(addr) +
                    step * static_cast<std::int64_t>(p.distance + d))));
            }
        }
    }

    std::vector<Addr>
    residentPcs() const
    {
        std::vector<Addr> out;
        for (const Entry &e : table)
            out.push_back(e.valid ? e.pc : ~Addr{0});
        return out;
    }

  private:
    struct Entry
    {
        Addr pc = 0;
        bool valid = false;
        Addr prevAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        std::uint64_t lastUse = 0;
    };

    StridePrefetcherParams p;
    std::vector<Entry> table;
    std::uint64_t clock = 0;
};

TEST(StridePrefetcherDifferential, CandidatesMatchScanReference)
{
    for (unsigned entries : {1u, 4u, 64u}) {
        StridePrefetcherParams params;
        params.tableEntries = entries;
        StridePrefetcher pf(params);
        RefStridePrefetcher ref(params);
        Rng rng(entries + 7);
        std::vector<Addr> pcs;
        for (unsigned i = 0; i < entries + 8; i++) {
            pcs.push_back(i % 3 == 0 ? i * aliasStride * 4
                                     : 0x400000 + 4 * i);
        }
        std::vector<Addr> next(pcs.size(), 0x100000);
        std::vector<Addr> got, want;
        for (int op = 0; op < 30000; op++) {
            // PC 0 first (see StrideDetectorDifferential).
            const std::size_t k = op == 0 ? 0 : rng.nextBounded(pcs.size());
            next[k] += rng.nextBounded(8) != 0 ? 8 : rng.nextBounded(4096);
            got.clear();
            want.clear();
            pf.train(pcs[k], next[k], got);
            ref.train(pcs[k], next[k], want);
            ASSERT_EQ(got, want) << "op " << op;
            ASSERT_EQ(pf.residentPcs(), ref.residentPcs()) << "op " << op;
        }
    }
}

// ---- Stride detector ---------------------------------------------------

/** The scan-only stride detector, with plain Seen flags. */
class RefStrideDetector
{
  public:
    explicit RefStrideDetector(const StrideDetectorParams &params)
        : p(params), table(params.entries)
    {
    }

    StrideEntry *
    find(Addr pc)
    {
        for (auto &e : table) {
            if (e.valid && e.pc == pc)
                return &e;
        }
        return nullptr;
    }

    StrideObservation
    observe(Addr pc, Addr addr)
    {
        StrideObservation obs;
        StrideEntry *entry = nullptr;
        StrideEntry *victim = &table[0];
        for (auto &e : table) {
            if (e.valid && e.pc == pc) {
                entry = &e;
                break;
            }
            if (!e.valid || e.lastUse < victim->lastUse)
                victim = &e;
        }
        if (!entry) {
            *victim = StrideEntry{};
            victim->pc = pc;
            victim->valid = true;
            victim->prevAddress = addr;
            victim->lastUse = ++clock;
            obs.entry = victim;
            return obs;
        }
        entry->lastUse = ++clock;
        obs.entry = entry;
        if (entry->hasLastPrefetch) {
            const Addr lo = entry->stride >= 0 ? entry->prevAddress
                                               : entry->lastPrefetch;
            const Addr hi = entry->stride >= 0 ? entry->lastPrefetch
                                               : entry->prevAddress;
            obs.inWaitRange = addr >= lo && addr <= hi;
            if (!obs.inWaitRange)
                entry->hasLastPrefetch = false;
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
        obs.isStriding = striding(*entry);
        return obs;
    }

    /** The naive clear: every valid entry but @p except_pc's. */
    void
    clearSeenExcept(Addr except_pc)
    {
        for (auto &e : table) {
            if (e.valid && e.pc != except_pc)
                e.seen = false;
        }
    }

    StrideDetectorParams p;
    std::vector<StrideEntry> table;
    std::uint64_t clock = 0;

  private:
    bool
    striding(const StrideEntry &e) const
    {
        return e.satCounter >= p.confidenceThreshold && e.stride != 0 &&
               std::llabs(e.stride) <= p.maxStride;
    }
};

void
expectSameEntries(const std::vector<StrideEntry> &got,
                  const std::vector<StrideEntry> &want, int op)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); i++) {
        const StrideEntry &x = got[i];
        const StrideEntry &y = want[i];
        ASSERT_EQ(x.valid, y.valid) << "op " << op << " slot " << i;
        ASSERT_EQ(x.pc, y.pc) << "op " << op << " slot " << i;
        ASSERT_EQ(x.prevAddress, y.prevAddress) << "op " << op;
        ASSERT_EQ(x.stride, y.stride) << "op " << op;
        ASSERT_EQ(x.satCounter, y.satCounter) << "op " << op;
        ASSERT_EQ(x.lastPrefetch, y.lastPrefetch) << "op " << op;
        ASSERT_EQ(x.hasLastPrefetch, y.hasLastPrefetch) << "op " << op;
        ASSERT_EQ(x.seen, y.seen) << "op " << op << " slot " << i;
        ASSERT_EQ(x.uselessRounds, y.uselessRounds) << "op " << op;
        ASSERT_EQ(x.lastUse, y.lastUse) << "op " << op;
    }
}

TEST(StrideDetectorDifferential, MatchesScanReference)
{
    for (unsigned entries : {1u, 4u, 32u}) {
        StrideDetectorParams params;
        params.entries = entries;
        StrideDetector sd(params);
        RefStrideDetector ref(params);
        Rng rng(entries);
        // PCs that share hint slots (and PC 0, which an empty slot
        // must never match), a few more than the table holds.
        std::vector<Addr> pcs;
        for (unsigned i = 0; i < entries + 6; i++) {
            pcs.push_back(i % 3 == 0 ? i * aliasStride * 4
                                     : 0x400000 + 4 * i);
        }
        std::vector<Addr> next(pcs.size(), 0x100000);
        // PC 0 first: every hint starts out naming slot 0, which holds
        // an invalid entry whose PC field is 0.
        EXPECT_EQ(sd.find(0), nullptr);
        for (int op = 0; op < 30000; op++) {
            const std::size_t k = op == 0 ? 0 : rng.nextBounded(pcs.size());
            const Addr pc = pcs[k];
            const unsigned what =
                op == 0 ? 1 : static_cast<unsigned>(rng.nextBounded(15));
            if (what < 11) {
                // Mostly striding addresses, sometimes a jump.
                next[k] += what < 9 ? 8 : rng.nextBounded(1 << 16);
                const StrideObservation a = sd.observe(pc, next[k]);
                const StrideObservation b = ref.observe(pc, next[k]);
                ASSERT_EQ(a.matched, b.matched) << "op " << op;
                ASSERT_EQ(a.isStriding, b.isStriding) << "op " << op;
                ASSERT_EQ(a.inWaitRange, b.inWaitRange) << "op " << op;
                ASSERT_EQ(a.entry->pc, b.entry->pc) << "op " << op;
                if (what == 0) {
                    // The engine arms waiting mode through the entry.
                    a.entry->lastPrefetch = b.entry->lastPrefetch =
                        next[k] + 64;
                    a.entry->hasLastPrefetch = b.entry->hasLastPrefetch =
                        true;
                }
            } else if (what < 13) {
                StrideEntry *a = sd.find(pc);
                StrideEntry *b = ref.find(pc);
                ASSERT_EQ(a == nullptr, b == nullptr) << "op " << op;
                if (a) {
                    sd.markSeen(*a);
                    b->seen = true;
                }
            } else {
                sd.clearSeenExcept(pc);
                ref.clearSeenExcept(pc);
            }
            expectSameEntries(sd.entries(), ref.table, op);
            ASSERT_EQ(sd.clock(), ref.clock);
        }
    }
}

TEST(StrideDetectorDifferential, SeenBitsSurviveExportImport)
{
    StrideDetectorParams params;
    params.entries = 8;
    StrideDetector sd(params);
    for (Addr i = 0; i < 8; i++)
        sd.observe(0x400000 + 4 * i, 0x1000);
    sd.markSeen(*sd.find(0x400004));
    sd.markSeen(*sd.find(0x400010));
    sd.clearSeenExcept(0x400010);
    sd.markSeen(*sd.find(0x400018));

    StrideDetector back(params);
    back.importEntries(sd.entries(), sd.clock());
    expectSameEntries(back.entries(), sd.entries(), 0);
    EXPECT_FALSE(back.seen(*back.find(0x400004)));
    EXPECT_TRUE(back.seen(*back.find(0x400010)));
    EXPECT_TRUE(back.seen(*back.find(0x400018)));
    // A clear after the import still keeps exactly the named entry.
    back.clearSeenExcept(0x400018);
    EXPECT_FALSE(back.seen(*back.find(0x400010)));
    EXPECT_TRUE(back.seen(*back.find(0x400018)));
}

// ---- Loop-bound table --------------------------------------------------

/**
 * Which load PC each loop-bound slot holds under scan-and-LRU: the
 * allocating calls (stride matches, loop-branch training) touch or
 * allocate, the others only look up.
 */
class RefLoopBoundSlots
{
  public:
    explicit RefLoopBoundSlots(unsigned entries)
        : pcs(entries, ~Addr{0}), stamps(entries, 0)
    {
    }

    void
    touchOrAllocate(Addr pc)
    {
        std::size_t victim = 0;
        for (std::size_t i = 0; i < pcs.size(); i++) {
            if (pcs[i] == pc) {
                stamps[i] = ++clock;
                return;
            }
            const bool valid = pcs[i] != ~Addr{0};
            if (!valid || stamps[i] < stamps[victim])
                victim = i;
        }
        pcs[victim] = pc;
        stamps[victim] = ++clock;
    }

    std::vector<Addr> pcs;
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
};

TEST(LoopBoundDifferential, SlotsMatchScanReference)
{
    for (unsigned entries : {1u, 2u, 8u}) {
        LoopBoundParams params;
        params.entries = entries;
        LoopBoundPredictor lbp(params);
        RefLoopBoundSlots ref(entries);
        Rng rng(entries + 99);
        std::vector<Addr> pcs;
        for (unsigned i = 0; i < entries + 4; i++) {
            pcs.push_back(i % 2 == 0 ? i * aliasStride * 4
                                     : 0x400000 + 4 * i);
        }
        for (int op = 0; op < 20000; op++) {
            // PC 0 first (see StrideDetectorDifferential).
            const Addr pc = op == 0 ? 0 : pcs[rng.nextBounded(pcs.size())];
            switch (op == 0 ? 0 : rng.nextBounded(4)) {
              case 0:
                lbp.onStrideMatch(pc);
                ref.touchOrAllocate(pc);
                break;
              case 1:
                lbp.onStrideDiscontinuity(pc);
                break;
              case 2: {
                LcRegister lc;
                lc.valid = rng.nextBounded(4) != 0;
                lc.pc = 0x500000 + 4 * rng.nextBounded(3);
                lc.valA = rng.nextBounded(64);
                lc.valB = 100;
                lc.regA = 3;
                lbp.trainFromBranch(pc, lc);
                if (lc.valid)
                    ref.touchOrAllocate(pc);
                break;
              }
              default:
                lbp.predict(pc, 16, LoopBoundMode::Tournament,
                            [](RegId r) { return RegVal{r}; });
                break;
            }
            ASSERT_EQ(lbp.residentPcs(), ref.pcs) << "op " << op;
        }
    }
}

} // namespace
} // namespace svr
