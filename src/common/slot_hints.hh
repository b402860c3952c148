/**
 * @file
 * Direct-mapped key -> slot hints for a small table that is otherwise
 * searched by a scan: the TLBs (keyed by page number), the baseline
 * stride prefetcher, the SVR stride detector and the loop-bound table
 * (keyed by load PC).
 *
 * A hint is only a guess. The caller checks the slot it names against
 * its own tag and falls back to the scan when the slot holds something
 * else, so a stale or aliased hint can cost a scan but never change a
 * result. Hints are never erased, only overwritten.
 */

#ifndef SVR_COMMON_SLOT_HINTS_HH
#define SVR_COMMON_SLOT_HINTS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace svr
{

class SlotHints
{
  public:
    /** At least @p min_entries hints, rounded up to a power of two. */
    explicit SlotHints(std::size_t min_entries)
        : hints(std::bit_ceil(std::max<std::size_t>(1, min_entries)), 0),
          mask(hints.size() - 1)
    {
    }

    /** The slot last recorded for @p key (or for a key aliasing it). */
    std::uint32_t get(std::uint64_t key) const { return hints[key & mask]; }

    /** Record that @p key lives in @p slot. */
    void set(std::uint64_t key, std::uint32_t slot) { hints[key & mask] = slot; }

    /**
     * The entry of @p table that @p matches (at most one does: tags are
     * unique): the hinted slot if it matches, else the one a scan finds,
     * which becomes @p key's hint. nullptr when none matches.
     */
    template <typename Entry, typename Match>
    Entry *
    find(std::vector<Entry> &table, std::uint64_t key, Match &&matches)
    {
        Entry &guess = table[get(key)];
        if (matches(guess))
            return &guess;
        for (std::size_t i = 0; i < table.size(); i++) {
            if (matches(table[i])) {
                set(key, static_cast<std::uint32_t>(i));
                return &table[i];
            }
        }
        return nullptr;
    }

    /** Point every hint at slot 0 (any slot is a valid guess). */
    void clear() { std::fill(hints.begin(), hints.end(), 0); }

  private:
    std::vector<std::uint32_t> hints;
    std::size_t mask;
};

} // namespace svr

#endif // SVR_COMMON_SLOT_HINTS_HH
