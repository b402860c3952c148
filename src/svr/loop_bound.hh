/**
 * @file
 * SVR's loop-bound prediction (paper section IV-B2, Figure 10): an
 * EWMA of observed contiguous-stride run lengths, a loop-bound
 * detector (LBD) that learns the compare/branch pair closing the
 * loop, current-value (CV) register scavenging, and a tournament
 * chooser between the EWMA and the LBD.
 */

#ifndef SVR_SVR_LOOP_BOUND_HH
#define SVR_SVR_LOOP_BOUND_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slot_hints.hh"
#include "common/types.hh"

namespace svr
{

/** Which loop-bound mechanism drives runahead length (Figure 15). */
enum class LoopBoundMode : std::uint8_t
{
    LbdWait,      //!< DVR-discovery-like: wait until the LBD is trained
    Maxlength,    //!< always issue the full vector length
    LbdMaxlength, //!< LBD when trained this loop, else max length
    LbdCv,        //!< LBD, scavenging register current values when stale
    Ewma,         //!< EWMA of past run lengths only
    Tournament,   //!< 2-bit tournament between EWMA and LBD+CV (default)
};

/** Printable name of a loop-bound mode. */
const char *loopBoundModeName(LoopBoundMode mode);

/** The Last Compare (LC) register (paper Figure 5/10). */
struct LcRegister
{
    bool valid = false;
    Addr pc = 0;
    RegVal valA = 0;
    RegVal valB = 0;
    RegId regA = invalidReg;
    RegId regB = invalidReg; //!< invalidReg when operand B is an immediate
};

/** Loop-bound predictor parameters (Table II: 8 entries). */
struct LoopBoundParams
{
    unsigned entries = 8;
    unsigned ewmaShift = 3;     //!< 7/8 old + 1/8 new
    unsigned ewmaMax = 511;     //!< 9-bit EWMA register
    unsigned iterFold = 512;    //!< fold into EWMA at this streak length
};

/**
 * Per-load-PC loop-bound state. The SVR engine reports stride
 * matches/discontinuities and backward-taken loop branches; predict()
 * returns the number of scalars to issue in a new runahead round.
 */
class LoopBoundPredictor
{
  public:
    explicit LoopBoundPredictor(const LoopBoundParams &params);

    /** The observed address continued the stride run at @p load_pc. */
    void onStrideMatch(Addr load_pc);

    /** The stride run at @p load_pc broke (train EWMA + tournament). */
    void onStrideDiscontinuity(Addr load_pc);

    /**
     * A backward conditional-taken branch closing the loop around the
     * HSLR load @p hslr_pc was observed, with @p lc holding the most
     * recent compare's operands (trains the LBD).
     */
    void trainFromBranch(Addr hslr_pc, const LcRegister &lc);

    /**
     * Predict how many scalars a new round at @p load_pc should issue.
     * @param max_lanes  the configured vector length N
     * @param mode       which mechanism to use
     * @param read_reg   reads a live architectural register (CV
     *                   scavenging); may be empty for modes that do
     *                   not scavenge
     * @return lanes in [0, max_lanes]; 0 means "do not runahead yet"
     *         (only LbdWait returns 0).
     */
    unsigned predict(Addr load_pc, unsigned max_lanes, LoopBoundMode mode,
                     const std::function<RegVal(RegId)> &read_reg);

    /** Drop all state. */
    void reset();

    /** The load PC held in each slot (~0 when empty), for tests. */
    std::vector<Addr> residentPcs() const;

    /** Statistics. */
    std::uint64_t lbdTrainings = 0;
    std::uint64_t cvScavenges = 0;
    std::uint64_t tournamentChoseLbd = 0;
    std::uint64_t tournamentChoseEwma = 0;

  private:
    struct Entry
    {
        Addr pc = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;

        // EWMA side.
        unsigned iterCounter = 0;
        unsigned ewma = 0;
        bool ewmaTrained = false;

        // LBD side.
        Addr compPc = 0;
        RegVal sA = 0;
        RegVal sB = 0;
        RegId regA = invalidReg;
        RegId regB = invalidReg;
        std::uint64_t increment = 0; //!< induction-variable step
        bool changingIsA = false;    //!< which operand is the induction var
        unsigned confidence = 0;     //!< 2-bit compare-PC confidence
        bool lbdReady = false;       //!< increment/bound learned
        bool lbdFresh = false;       //!< trained within the current run

        // Tournament (2-bit; >=2 prefers the LBD).
        unsigned tournament = 1;
        bool havePreds = false;
        unsigned lastEwmaPred = 0;
        unsigned lastLbdPred = 0;
        unsigned iterAtPred = 0;
    };

    Entry &lookupOrAllocate(Addr pc);

    Entry *
    find(Addr pc)
    {
        return hint.find(table, hintKey(pc), [pc](const Entry &e) {
            return e.valid && e.pc == pc;
        });
    }
    void foldEwma(Entry &e, unsigned sample);
    unsigned ewmaPrediction(const Entry &e, unsigned max_lanes) const;
    unsigned lbdPrediction(const Entry &e, unsigned max_lanes,
                           bool scavenge,
                           const std::function<RegVal(RegId)> &read_reg,
                           bool &ok);

    /** Hint key of a load PC (instructions are 4-byte aligned). */
    static std::uint64_t hintKey(Addr pc) { return pc >> 2; }

    LoopBoundParams p;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;
    /**
     * Load PC -> slot guess, checked before use (common/slot_hints.hh);
     * the scan stays as the fallback and alone picks victims.
     */
    SlotHints hint;
};

} // namespace svr

#endif // SVR_SVR_LOOP_BOUND_HH
