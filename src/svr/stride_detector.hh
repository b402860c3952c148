/**
 * @file
 * SVR's stride detector: a reference-prediction table indexed by load
 * PC (paper Figure 6). Identifies striding loads, implements waiting
 * mode via the Last Prefetch field, tracks inner loops via the Seen
 * bit, and remembers the last indirect load (LIL) of each chain.
 */

#ifndef SVR_SVR_STRIDE_DETECTOR_HH
#define SVR_SVR_STRIDE_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "common/slot_hints.hh"
#include "common/types.hh"

namespace svr
{

/** One stride-detector entry (Figure 6). */
struct StrideEntry
{
    Addr pc = 0;
    bool valid = false;
    Addr prevAddress = 0;
    std::int64_t stride = 0;
    unsigned satCounter = 0;       //!< 2-bit confidence
    Addr lastPrefetch = 0;         //!< end of the range covered last round
    bool hasLastPrefetch = false;  //!< waiting-mode range is armed
    /**
     * Seen bit, for nested/independent loop handling. Exported entries
     * (StrideDetector::entries()) carry it; a live detector keeps a
     * valid entry's bit as an epoch stamp, so clearing every other
     * entry's bit is O(1). Read and set it on a live entry with
     * StrideDetector::seen()/markSeen().
     */
    bool seen = false;
    std::uint16_t lil = 0;         //!< 16 LSBs of the last indirect load PC
    unsigned lilConfidence = 0;    //!< 2-bit confidence in the LIL
    bool hasLil = false;
    /**
     * Chain-utility score: rounds at this PC with no dependent-load
     * misses ("no appropriate loop to vectorize", Figure 14) raise it
     * by 1; useful rounds lower it by 2. When it saturates high, the
     * PC stops triggering runahead until the periodic governor reset.
     * The asymmetric drift keeps divergent chains (where the real
     * path frequently skips the indirect load) from being banned.
     */
    unsigned uselessRounds = 0;
    std::uint64_t lastUse = 0;     //!< LRU state
};

/** Outcome of observing one load at the detector. */
struct StrideObservation
{
    StrideEntry *entry = nullptr;
    bool matched = false;   //!< address == previous + stride
    bool isStriding = false; //!< confidence at threshold with valid stride
    bool inWaitRange = false; //!< address inside [prev, lastPrefetch]
};

/** Stride-detector parameters (Table II: 32 entries, 8-bit stride). */
struct StrideDetectorParams
{
    unsigned entries = 32;
    unsigned confidenceThreshold = 2;
    std::int64_t maxStride = 127; //!< 8-bit signed stride field
};

/**
 * Fully associative, LRU-replaced stride detector. observe() performs
 * the per-load lookup/update; the engine reads the resulting entry to
 * decide whether to trigger piggyback runahead mode.
 */
class StrideDetector
{
  public:
    explicit StrideDetector(const StrideDetectorParams &params);

    /**
     * Observe a load at @p pc accessing @p addr. Updates the entry's
     * stride/confidence and reports whether it is a striding load and
     * whether the address falls inside the waiting-mode range.
     */
    StrideObservation observe(Addr pc, Addr addr);

    /** Find an entry without modifying it (nullptr if absent). */
    StrideEntry *
    find(Addr pc)
    {
        return hint.find(table, hintKey(pc), [pc](const StrideEntry &e) {
            return e.valid && e.pc == pc;
        });
    }

    /** The Seen bit of live entry @p e (one of this detector's). */
    bool
    seen(const StrideEntry &e) const
    {
        return seenAt[slotOf(e)] == seenEpoch;
    }

    /** Set the Seen bit of live entry @p e. */
    void markSeen(const StrideEntry &e) { seenAt[slotOf(e)] = seenEpoch; }

    /** Clear all Seen bits except the one for @p except_pc (O(1)). */
    void clearSeenExcept(Addr except_pc);

    /** Give useless-round-suppressed entries another chance. */
    void resetUselessness();

    /** Drop all entries. */
    void reset();

    /** Confidence threshold for "is striding". */
    unsigned confidenceThreshold() const { return p.confidenceThreshold; }

    // ---- Warm-state transfer (sampled simulation) ----

    /**
     * A copy of the full table, slot by slot (invalid entries
     * included), with each entry's Seen bit filled in.
     */
    std::vector<StrideEntry> entries() const;

    /** Current LRU clock (monotone lastUse source). */
    std::uint64_t clock() const { return useClock; }

    /**
     * Replace the table with @p entries (excess slots cleared, excess
     * source entries dropped — only meaningful across equal-sized
     * detectors) and resume the LRU clock at @p clock.
     */
    void importEntries(const std::vector<StrideEntry> &entries,
                       std::uint64_t clock);

  private:
    std::size_t
    slotOf(const StrideEntry &e) const
    {
        return static_cast<std::size_t>(&e - table.data());
    }

    /** Reset slot @p victim to a fresh entry for @p pc. */
    StrideEntry &install(StrideEntry *victim, Addr pc);

    /** Hint key of a load PC (instructions are 4-byte aligned). */
    static std::uint64_t hintKey(Addr pc) { return pc >> 2; }

    StrideDetectorParams p;
    std::vector<StrideEntry> table;
    std::uint64_t useClock = 0;
    /**
     * Load PC -> slot guess, checked against the slot's valid bit and
     * PC before use (see common/slot_hints.hh): a hit skips the
     * fully associative scan, a miss falls back to it, and victim
     * choice never reads the hints.
     */
    SlotHints hint;
    /**
     * Seen bits as epoch stamps: an entry is Seen iff its stamp equals
     * seenEpoch. clearSeenExcept() advances the epoch (clearing every
     * bit at once) and re-stamps the kept entry. A fresh entry's stamp
     * is 0, which no epoch equals.
     */
    std::vector<std::uint64_t> seenAt;
    std::uint64_t seenEpoch = 1;
};

} // namespace svr

#endif // SVR_SVR_STRIDE_DETECTOR_HH
