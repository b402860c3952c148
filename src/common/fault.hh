/**
 * @file
 * Deterministic fault injection. A FaultPlan — parsed from the
 * SVRSIM_FAULT environment variable or built directly in tests —
 * names simulation cells (or artifact paths) at which the engine must
 * fail and the network faults the fabric's wire must survive, so
 * every error-handling path (structured throws, watchdog trips, IO
 * failures, crash-safe resume, lost or corrupted frames) is exercised
 * by real tests rather than in theory. SVRSIM_FAULT is the only fault
 * variable.
 *
 * Grammar (items separated by ';'). Cell and artifact rules are
 * KIND@TARGET:
 *
 *   throw@WORKLOAD/CONFIG[:K][:pP]   throw SimError(InternalInvariant)
 *                                    in that cell; ':K' limits the
 *                                    fault to the first K attempts
 *                                    (retry testing); ':pP' applies it
 *                                    with probability P drawn from the
 *                                    cell RNG stream (deterministic
 *                                    per cell for any job count)
 *   hang@WORKLOAD/CONFIG             livelock the cell's core model so
 *                                    the watchdog must trip
 *   kill@WORKLOAD/CONFIG             raise SIGKILL right after the
 *                                    cell's completion record is
 *                                    journaled (crash-safe --resume
 *                                    testing)
 *   ckill@WORKLOAD/CONFIG            fabric only: the COORDINATOR
 *                                    raises SIGKILL right after that
 *                                    cell's record is journaled
 *                                    (coordinator crash-recovery
 *                                    testing; workers ignore it)
 *   io@SUBSTRING                     fail atomic artifact writes whose
 *                                    target path contains SUBSTRING
 *
 * WORKLOAD / CONFIG / SUBSTRING may be '*' (match anything).
 *
 * Network faults for the fabric's wire (common/wire.hh) are KEY=VALUE
 * items; any of them arms the seeded injector in every process that
 * opens a fabric connection:
 *
 *   seed=N          RNG seed for the schedule (default 1). Each
 *                   connection draws from its own substream keyed by
 *                   a process-wide connection counter, so the same
 *                   plan over the same connection/frame sequence
 *                   injects the same faults.
 *   drop=P          silently discard an outgoing frame with
 *                   probability P (the peer sees only silence and
 *                   must time out)
 *   corrupt=P       flip one payload/CRC bit after the checksum is
 *                   computed (the receiver must reject the frame)
 *   trunc=P         send a torn frame — header plus a payload prefix
 *                   — then hard-close the socket
 *   delay=P/MS      sleep MS milliseconds before sending, with
 *                   probability P (straggler/jitter injection)
 *   part=S+D[,S+D]  partition windows: for D ms starting S ms after
 *                   the plan was armed in this process, every send
 *                   fails with SimError(IoError) and closes the
 *                   connection
 *   after=N         exempt the first N frames of each connection from
 *                   every fault kind, partitions included (lets a
 *                   (re)connecting peer complete its handshake, so
 *                   chaos runs converge instead of starving)
 *
 * Examples:
 *
 *   SVRSIM_FAULT='throw@BFS_UR/SVR16:2;io@results.json'
 *   SVRSIM_FAULT='kill@HJ8/SVR16;seed=7;drop=0.05;part=200+300'
 */

#ifndef SVR_COMMON_FAULT_HH
#define SVR_COMMON_FAULT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svr
{

/**
 * The network half of a FaultPlan: the wire injector's schedule
 * (see the KEY=VALUE items above).
 */
struct NetFaultPlan
{
    std::uint64_t seed = 1;
    double dropP = 0.0;
    double corruptP = 0.0;
    double truncP = 0.0;
    double delayP = 0.0;
    int delayMs = 0;
    unsigned skipFirst = 0;

    struct Window
    {
        std::uint64_t startMs = 0;
        std::uint64_t durMs = 0;
    };
    std::vector<Window> partitions;

    bool
    enabled() const
    {
        return dropP > 0.0 || corruptP > 0.0 || truncP > 0.0 ||
               delayP > 0.0 || !partitions.empty();
    }
};

/** A deterministic fault-injection plan (empty = no faults). */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parse @p spec; throws SimError(ConfigInvalid) on bad grammar. */
    static FaultPlan parse(std::string_view spec);

    /** Plan from the SVRSIM_FAULT environment variable (empty if unset). */
    static FaultPlan fromEnv();

    /** No cell, artifact or network fault. */
    bool empty() const { return rules.empty() && !netPlan.enabled(); }

    /** The network-fault schedule (disabled when no net item given). */
    const NetFaultPlan &net() const { return netPlan; }

    /**
     * Should attempt @p attempt (1-based) of this cell throw? @p
     * base_seed feeds the per-cell RNG stream for probabilistic rules.
     */
    bool shouldThrow(std::string_view workload, std::string_view config,
                     unsigned attempt, std::uint64_t base_seed) const;

    /** Should this cell's core model be livelocked? */
    bool shouldHang(std::string_view workload,
                    std::string_view config) const;

    /** Should the process SIGKILL itself after journaling this cell? */
    bool shouldKill(std::string_view workload,
                    std::string_view config) const;

    /** Should the fabric COORDINATOR SIGKILL itself after journaling
     *  this cell? (Crash-recovery testing; see ckill@ above.) */
    bool shouldCoordKill(std::string_view workload,
                         std::string_view config) const;

    /** Should an atomic write to @p path fail with IoError? */
    bool shouldFailIo(std::string_view path) const;

  private:
    enum class Kind : std::uint8_t { Throw, Hang, Kill, CoordKill, Io };

    struct Rule
    {
        Kind kind;
        std::string a;          //!< workload pattern / path substring
        std::string b;          //!< config pattern (cell kinds only)
        unsigned attempts = 0;  //!< throw: first K attempts only (0 = all)
        double probability = -1.0; //!< throw/hang: <0 = always
    };

    /** Does any @p kind rule fire for this cell attempt? */
    bool matchCell(Kind kind, std::string_view workload,
                   std::string_view config, unsigned attempt,
                   std::uint64_t base_seed) const;

    /** Apply one KEY=VALUE network item to netPlan. */
    void parseNetItem(std::string_view item);

    std::vector<Rule> rules;
    NetFaultPlan netPlan;
};

} // namespace svr

#endif // SVR_COMMON_FAULT_HH
