/**
 * @file
 * The result field table: every SimResult stat, declared once, in the
 * order the JSON report prints it. The reports, the sweep journal (and
 * so every fabric RESULT), the sampled simulator's per-window stitching
 * and the warmup rebaseline all loop over it. It is static: nothing
 * registers at run time, and the counters stay plain struct fields the
 * hot paths increment directly. A new stat costs one row here plus its
 * producer (a core, captureMemory() or recomputeResult()).
 */

#ifndef SVR_SIM_RESULT_FIELDS_HH
#define SVR_SIM_RESULT_FIELDS_HH

#include <cstdint>
#include <span>
#include <variant>

#include "sim/simulator.hh"

namespace svr
{

/** How simulateSampled() builds a row's whole-region value. */
enum class Stitch : std::uint8_t
{
    Exact,      //!< set by simulateSampled() itself (instructions, provenance)
    Scaled,     //!< window deltas, each scaled to its period, summed
    Summed,     //!< window deltas summed unscaled (ratio inputs)
    Recomputed, //!< from the stitched rows, by recomputeResult()
    Derived,    //!< a read-only function of other rows, never stored
};

/** Where a row appears. The journal carries every stored row shown. */
enum class Show : std::uint8_t
{
    Always,  //!< JSON (and CSV when it has a column), journal
    Sampled, //!< as Always, but only for sampled results
    Journal, //!< the journal only: no report prints it
};

/** One row of the table. */
struct ResultField
{
    using U64Field = std::uint64_t &(*)(SimResult &);
    using F64Field = double &(*)(SimResult &);
    using U64Of = std::uint64_t (*)(const SimResult &);
    using F64Of = double (*)(const SimResult &);

    const char *path; //!< JSON key; "group.key" inside a group object
    const char *csv;  //!< CSV column, or nullptr
    Stitch stitch;
    /** The accessor; its type gives the kind (u64, or %.17g double). */
    std::variant<U64Field, F64Field, U64Of, F64Of> at;
    Show show = Show::Always;

    bool isU64() const { return at.index() % 2 == 0; }
    bool stored() const { return at.index() < 2; }

    /** The stored field in @p r. */
    std::uint64_t &
    u64Ref(SimResult &r) const
    {
        return std::get<U64Field>(at)(r);
    }
    double &
    f64Ref(SimResult &r) const
    {
        return std::get<F64Field>(at)(r);
    }

    /** The row's value in @p r, stored or derived. */
    std::uint64_t u64(const SimResult &r) const;
    double f64(const SimResult &r) const;
};

/** The table, in JSON order. */
std::span<const ResultField> resultFields();

/** Read every memory-side counter of @p mem into @p r. */
void captureMemory(const MemorySystem &mem, SimResult &r);

/** Compute the Recomputed rows of @p r from its other rows. */
void recomputeResult(const SimConfig &config, SimResult &r);

/** Every stored u64 row of @p r becomes r - base, floored at 0. */
void subtractResult(SimResult &r, const SimResult &base);

} // namespace svr

#endif // SVR_SIM_RESULT_FIELDS_HH
