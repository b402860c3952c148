/**
 * @file
 * Address translation: first-level TLBs, a shared second-level TLB,
 * and a pool of page-table walkers (Table III: 16-entry fully
 * associative D-TLB/I-TLB, 2048-entry 8-way S-TLB, 4 PTWs).
 */

#ifndef SVR_MEM_TLB_HH
#define SVR_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/slot_hints.hh"
#include "common/types.hh"

namespace svr
{

/** A single TLB level (fully associative when numSets == 1). */
class Tlb
{
  public:
    /**
     * @param entries total entries
     * @param assoc   associativity (entries for fully associative)
     */
    Tlb(unsigned entries, unsigned assoc);

    /** Probe for the page containing @p addr; updates LRU on hit. */
    bool
    lookup(Addr addr)
    {
        const Addr page = pageAlign(addr);
        const std::size_t slot = hint.get(page / pageBytes);
        if (pages[slot] != page)
            return lookupScan(page);
        lastUse[slot] = ++useClock;
        hits++;
        return true;
    }

    /** Install the translation for @p addr's page. */
    void insert(Addr addr);

    /** Drop all entries and statistics. */
    void reset();

    /** The page held in each slot, set-major (~0 when empty), for tests. */
    const std::vector<Addr> &residentPages() const { return pages; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    /**
     * Tag value no valid entry can carry (page-aligned tags have zero
     * low bits), so unfilled ways never match a lookup and the scan
     * needs no valid flags.
     */
    static constexpr Addr emptyTag = ~static_cast<Addr>(0);

    unsigned setOf(Addr page) const;
    /** lookup() behind a wrong hint: scan @p page's set. */
    bool lookupScan(Addr page);

    unsigned assoc;
    unsigned numSets;
    /**
     * Structure-of-arrays layout: page tags in one array, LRU stamps in
     * a parallel one. Ways fill front-to-back (fillCount per set), so
     * "first invalid way" is just the fill cursor and eviction is an
     * argmin over unique lastUse stamps.
     *
     * A hit costs one compare: `hint` maps the page number to the slot
     * that last held it, and lookup() checks that slot's tag before it
     * scans the set. Tags are unique within a set and never equal to
     * emptyTag, so a matching hinted slot is exactly the way the scan
     * would find; a stale or aliased hint only falls back to the scan.
     * Victim choice, LRU stamps and hits/misses never read the hints.
     */
    std::vector<Addr> pages;              // numSets * assoc tags
    std::vector<std::uint64_t> lastUse;   // parallel LRU stamps
    std::vector<std::uint16_t> fillCount; // valid ways per set
    SlotHints hint;                       // page number -> slot guess
    std::uint64_t useClock = 0;
};

/** Parameters for the translation stack. */
struct TranslationParams
{
    unsigned dtlbEntries = 16;
    unsigned itlbEntries = 16;
    unsigned stlbEntries = 2048;
    unsigned stlbAssoc = 8;
    unsigned numWalkers = 4;
    unsigned stlbHitLatency = 4;   //!< extra cycles on D-TLB miss, S-TLB hit
    unsigned walkLatency = 50;     //!< cycles per page-table walk
};

/**
 * The full translation stack: D-TLB -> S-TLB -> walker pool.
 * translateData() returns the cycle at which translation completes
 * (equal to @p now on a first-level hit).
 */
class TranslationStack
{
  public:
    explicit TranslationStack(const TranslationParams &params);

    /** Translate a data access starting at @p now. */
    Cycle
    translateData(Addr addr, Cycle now)
    {
        return dtlbImpl.lookup(addr) ? now : refill(dtlbImpl, addr, now);
    }

    /** Translate an instruction fetch starting at @p now. */
    Cycle
    translateInstr(Addr addr, Cycle now)
    {
        return itlbImpl.lookup(addr) ? now : refill(itlbImpl, addr, now);
    }

    /** Reset all TLB and walker state. */
    void reset();

    std::uint64_t walks = 0;

    const Tlb &dtlb() const { return dtlbImpl; }
    const Tlb &itlb() const { return itlbImpl; }
    const Tlb &stlb() const { return stlbImpl; }

  private:
    Cycle walk(Cycle now);
    /** A first-level miss in @p l1: S-TLB, else a walk; fills @p l1. */
    Cycle refill(Tlb &l1, Addr addr, Cycle now);

    TranslationParams p;
    Tlb dtlbImpl;
    Tlb itlbImpl;
    Tlb stlbImpl;
    std::vector<Cycle> walkerFreeAt;
};

} // namespace svr

#endif // SVR_MEM_TLB_HH
