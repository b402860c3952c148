/**
 * @file
 * Length-prefixed, checksummed wire protocol for the distributed
 * sweep fabric (sim/fabric.hh). One frame is an 8-byte little-endian
 * header — 4 bytes payload length, 4 bytes CRC32 of the payload —
 * followed by the payload bytes; payloads are short text lines, so
 * the protocol stays greppable in a packet dump. Transports are Unix
 * domain sockets ("unix:/path/to.sock") and TCP ("tcp:host:port");
 * both sides speak through the same WireConn.
 *
 * The CRC turns silent corruption into a hard failure: a frame whose
 * payload does not hash to its header CRC throws SimError(IoError)
 * instead of being parsed, and the caller treats the connection as
 * lost (the fabric's reconnect/lease-reclaim machinery takes over).
 * It doubles as a framing-version guard — a pre-CRC peer's frames
 * fail the checksum immediately instead of desynchronizing the
 * stream.
 *
 * Error model: every transport failure throws SimError(IoError) with
 * errno detail, except the two conditions a caller must handle inline
 * — clean EOF at a frame boundary and a receive timeout — which recv()
 * reports as statuses. A frame larger than maxFramePayload is treated
 * as protocol corruption and throws.
 *
 * Chaos testing: the network items of SVRSIM_FAULT (or an explicit
 * armNetFaults() call) install a deterministic, seeded network fault
 * injector that drops, delays, truncates, or bit-flips outgoing
 * frames and simulates timed partition windows — see common/fault.hh
 * for the grammar. Every injected fault surfaces through the normal
 * error model above, so chaos runs exercise exactly the recovery
 * paths real faults would.
 */

#ifndef SVR_COMMON_WIRE_HH
#define SVR_COMMON_WIRE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.hh"

namespace svr
{

/** Largest accepted frame payload (journal lines are < 1 KiB). */
constexpr std::uint32_t maxFramePayload = 1u << 20;

/** CRC32 (IEEE 802.3 polynomial) of @p payload, as sent on the wire. */
std::uint32_t wireCrc32(std::string_view payload);

/** A parsed "unix:PATH" or "tcp:HOST:PORT" endpoint. */
struct WireAddr
{
    bool isUnix = true;
    std::string path;        //!< unix: filesystem socket path
    std::string host;        //!< tcp: numeric or resolvable host
    std::uint16_t port = 0;  //!< tcp: 0 = ephemeral (listen only)

    /** Parse an endpoint spec; throws SimError(ConfigInvalid). */
    static WireAddr parse(const std::string &spec);

    /** Canonical "unix:..." / "tcp:..." form (reparseable). */
    std::string str() const;
};

/** Running totals of injected faults (process-wide, for tests). */
struct NetFaultCounters
{
    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t truncations = 0;
    std::uint64_t delays = 0;
    std::uint64_t partitionHits = 0;

    std::uint64_t
    total() const
    {
        return drops + corruptions + truncations + delays + partitionHits;
    }
};

/**
 * Install @p plan process-wide: connections adopted from now on draw
 * their fault schedule from it (partition windows are measured from
 * this call). Arming resets the connection counter and the fault
 * counters, so the schedule replays identically after a re-arm.
 */
void armNetFaults(const NetFaultPlan &plan);

/** Remove the injector; subsequent connections run clean. */
void disarmNetFaults();

/** Injected-fault totals since the last arm (zeros when disarmed). */
NetFaultCounters netFaultCounters();

namespace detail
{
struct NetFaultState;
}

/** One connected frame stream (either side). Move-only. */
class WireConn
{
  public:
    enum class RecvStatus
    {
        Ok,      //!< one whole frame delivered
        Eof,     //!< peer closed cleanly at a frame boundary
        Timeout, //!< no frame within the deadline
    };

    WireConn() = default;
    /** Adopt a connected socket fd (takes ownership). */
    explicit WireConn(int fd);
    ~WireConn();

    WireConn(WireConn &&other) noexcept;
    WireConn &operator=(WireConn &&other) noexcept;
    WireConn(const WireConn &) = delete;
    WireConn &operator=(const WireConn &) = delete;

    bool valid() const { return sock >= 0; }
    int fd() const { return sock; }
    void close();

    /** Write one frame (blocking until fully sent). */
    void send(std::string_view payload);

    /**
     * Read one frame into @p out. @p timeout_ms < 0 blocks forever.
     * EOF mid-frame (a torn frame) throws IoError; EOF between frames
     * is the clean shutdown status. A checksum mismatch throws
     * IoError — corruption is rejected, never parsed.
     */
    RecvStatus recv(std::string &out, int timeout_ms = -1);

  private:
    /** Read exactly @p n bytes; false = clean EOF before byte one. */
    bool readExact(void *buf, std::size_t n, int timeout_ms,
                   bool eof_ok);

    /**
     * Consult the armed fault plan for this outgoing frame. Returns
     * false when the frame must be silently dropped; may corrupt
     * @p frame in place (headerBytes..end), send a truncated prefix
     * and close, sleep, or throw IoError for a partition window.
     */
    bool injectSendFaults(std::string &frame);

    int sock = -1;
    std::shared_ptr<detail::NetFaultState> chaos; //!< null = clean
    std::uint64_t chaosStream = 0; //!< RNG substream for this conn
    std::uint64_t framesSent = 0;
};

/** A listening endpoint accepting WireConns. Move-only. */
class WireListener
{
  public:
    /**
     * Bind + listen on @p addr. For tcp with port 0 the kernel picks
     * an ephemeral port, reported back by addr(). For unix, a stale
     * socket file at the path is unlinked first and the file is
     * removed again on destruction.
     */
    explicit WireListener(const WireAddr &addr);
    ~WireListener();

    WireListener(const WireListener &) = delete;
    WireListener &operator=(const WireListener &) = delete;

    /** Actual bound endpoint (tcp port resolved). */
    const WireAddr &addr() const { return bound; }

    /**
     * Accept one connection; an invalid WireConn on timeout.
     * @p timeout_ms < 0 blocks forever.
     */
    WireConn accept(int timeout_ms = -1);

  private:
    int sock = -1;
    WireAddr bound;
};

/**
 * Connect to @p addr, retrying until @p timeout_ms expires (covers the
 * worker-starts-before-coordinator-listens race); throws IoError when
 * the deadline passes without a connection.
 */
WireConn wireConnect(const WireAddr &addr, int timeout_ms = 10000);

} // namespace svr

#endif // SVR_COMMON_WIRE_HH
