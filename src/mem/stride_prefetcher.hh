/**
 * @file
 * Baseline L1D stride prefetcher (reference prediction table, after
 * Chen & Baer). Table III gives every evaluated core this prefetcher.
 */

#ifndef SVR_MEM_STRIDE_PREFETCHER_HH
#define SVR_MEM_STRIDE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/slot_hints.hh"
#include "common/types.hh"

namespace svr
{

/** Stride prefetcher parameters. */
struct StridePrefetcherParams
{
    unsigned tableEntries = 64;
    unsigned confidenceThreshold = 2; //!< 2-bit counter value to act
    unsigned degree = 4;              //!< lines prefetched per trigger
    unsigned distance = 4;            //!< how many strides ahead to start
};

/**
 * PC-indexed reference prediction table. train() observes a demand
 * load and appends any prefetch candidate line addresses to @p out.
 */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(const StridePrefetcherParams &params);

    /** Observe a demand load; fills @p out with candidate line addrs. */
    void train(Addr pc, Addr addr, std::vector<Addr> &out);

    /** Drop all table state. */
    void reset();

    /** The load PC held in each slot (~0 when empty), for tests. */
    std::vector<Addr> residentPcs() const;

    std::uint64_t issued = 0;

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

    /** Hint key of a load PC (instructions are 4-byte aligned). */
    static std::uint64_t hintKey(Addr pc) { return pc >> 2; }

    StridePrefetcherParams p;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;
    /**
     * Load PC -> slot guess, checked before use (common/slot_hints.hh),
     * so the common trained-PC case skips the fully associative scan
     * (entries install from the back of the table, so hot PCs would
     * otherwise pay a full scan on every load). Victim choice still
     * scans, so behavior is unchanged.
     */
    SlotHints hint;
};

} // namespace svr

#endif // SVR_MEM_STRIDE_PREFETCHER_HH
