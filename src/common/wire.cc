#include "common/wire.hh"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace svr
{

namespace detail
{

/** Process-wide injector state shared by every faulted connection. */
struct NetFaultState
{
    NetFaultPlan plan;
    std::chrono::steady_clock::time_point armedAt;
    std::atomic<std::uint64_t> connCounter{0};
    std::atomic<std::uint64_t> drops{0};
    std::atomic<std::uint64_t> corruptions{0};
    std::atomic<std::uint64_t> truncations{0};
    std::atomic<std::uint64_t> delays{0};
    std::atomic<std::uint64_t> partitionHits{0};
};

} // namespace detail

namespace
{

using detail::NetFaultState;

[[noreturn]] void
wireError(const char *op, const std::string &what, int err)
{
    throw simErrorf(ErrCode::IoError, {}, "wire: %s %s failed: %s", op,
                    what.c_str(), std::strerror(err));
}

/** Wait for @p events on @p fd; false on timeout. Throws on error. */
bool
waitFd(int fd, short events, int timeout_ms)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return true;
        if (rc == 0)
            return false;
        if (errno != EINTR)
            wireError("poll", "socket", errno);
    }
}

sockaddr_un
unixSockaddr(const std::string &path)
{
    sockaddr_un sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "wire: unix socket path '%s' exceeds %zu bytes",
                        path.c_str(), sizeof(sa.sun_path) - 1);
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

sockaddr_in
tcpSockaddr(const std::string &host, std::uint16_t port)
{
    sockaddr_in sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
        // Not a numeric address: resolve it (workers name coordinator
        // hosts, so plain gethostbyname-level resolution is enough).
        struct addrinfo hints;
        std::memset(&hints, 0, sizeof(hints));
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        struct addrinfo *res = nullptr;
        const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
        if (rc != 0 || !res) {
            throw simErrorf(ErrCode::IoError, {},
                            "wire: cannot resolve host '%s': %s",
                            host.c_str(), ::gai_strerror(rc));
        }
        sa.sin_addr =
            reinterpret_cast<sockaddr_in *>(res->ai_addr)->sin_addr;
        ::freeaddrinfo(res);
    }
    return sa;
}

// ---------------------------------------------------------------- //
// Network fault injector                                           //
// ---------------------------------------------------------------- //

std::mutex g_faultMtx;
std::shared_ptr<NetFaultState> g_faultState; // null = clean
bool g_faultEnvChecked = false;

void
installNetFaults(const NetFaultPlan &plan)
{
    auto state = std::make_shared<NetFaultState>();
    state->plan = plan;
    state->armedAt = std::chrono::steady_clock::now();
    g_faultState = plan.enabled() ? state : nullptr;
    if (plan.enabled()) {
        inform("wire: net-fault injector armed (seed=%llu drop=%.3g "
               "corrupt=%.3g trunc=%.3g delay=%.3g/%dms partitions=%zu "
               "after=%u)",
               static_cast<unsigned long long>(plan.seed), plan.dropP,
               plan.corruptP, plan.truncP, plan.delayP, plan.delayMs,
               plan.partitions.size(), plan.skipFirst);
    }
}

/** Current injector, arming lazily from SVRSIM_FAULT's net items once. */
std::shared_ptr<NetFaultState>
currentNetFaults()
{
    std::lock_guard<std::mutex> lock(g_faultMtx);
    if (!g_faultEnvChecked) {
        g_faultEnvChecked = true;
        installNetFaults(FaultPlan::fromEnv().net());
    }
    return g_faultState;
}

/** SplitMix64 step: the injector's per-connection RNG stream. */
std::uint64_t
mix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
mixDouble(std::uint64_t &state)
{
    return static_cast<double>(mix64(state) >> 11) * 0x1.0p-53;
}

} // namespace

WireAddr
WireAddr::parse(const std::string &spec)
{
    WireAddr a;
    if (spec.rfind("unix:", 0) == 0) {
        a.isUnix = true;
        a.path = spec.substr(5);
        if (a.path.empty()) {
            throw simErrorf(ErrCode::ConfigInvalid, {},
                            "wire: empty unix socket path in '%s'",
                            spec.c_str());
        }
        return a;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= rest.size()) {
            throw simErrorf(ErrCode::ConfigInvalid, {},
                            "wire: want tcp:HOST:PORT, got '%s'",
                            spec.c_str());
        }
        a.isUnix = false;
        a.host = rest.substr(0, colon);
        if (!tryParseNumber(std::string_view(rest).substr(colon + 1),
                            a.port)) {
            throw simErrorf(ErrCode::ConfigInvalid, {},
                            "wire: bad port in '%s'", spec.c_str());
        }
        return a;
    }
    throw simErrorf(ErrCode::ConfigInvalid, {},
                    "wire: endpoint '%s' must start with unix: or tcp:",
                    spec.c_str());
}

std::string
WireAddr::str() const
{
    if (isUnix)
        return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

std::uint32_t
wireCrc32(std::string_view payload)
{
    // IEEE 802.3 reflected polynomial, nibble-at-a-time table.
    static const std::uint32_t table[16] = {
        0x00000000, 0x1db71064, 0x3b6e20c8, 0x26d930ac,
        0x76dc4190, 0x6b6b51f4, 0x4db26158, 0x5005713c,
        0xedb88320, 0xf00f9344, 0xd6d6a3e8, 0xcb61b38c,
        0x9b64c2b0, 0x86d3d2d4, 0xa00ae278, 0xbdbdf21c,
    };
    std::uint32_t crc = 0xffffffffu;
    for (unsigned char c :
         std::string_view(payload.data(), payload.size())) {
        crc ^= c;
        crc = table[crc & 0x0f] ^ (crc >> 4);
        crc = table[crc & 0x0f] ^ (crc >> 4);
    }
    return crc ^ 0xffffffffu;
}

void
armNetFaults(const NetFaultPlan &plan)
{
    std::lock_guard<std::mutex> lock(g_faultMtx);
    g_faultEnvChecked = true; // explicit arm overrides the env
    installNetFaults(plan);
}

void
disarmNetFaults()
{
    std::lock_guard<std::mutex> lock(g_faultMtx);
    g_faultEnvChecked = true;
    g_faultState = nullptr;
}

NetFaultCounters
netFaultCounters()
{
    std::lock_guard<std::mutex> lock(g_faultMtx);
    NetFaultCounters c;
    if (g_faultState) {
        c.drops = g_faultState->drops.load();
        c.corruptions = g_faultState->corruptions.load();
        c.truncations = g_faultState->truncations.load();
        c.delays = g_faultState->delays.load();
        c.partitionHits = g_faultState->partitionHits.load();
    }
    return c;
}

WireConn::WireConn(int fd) : sock(fd), chaos(currentNetFaults())
{
    if (chaos) {
        // Per-connection RNG substream: mix the plan seed with a
        // process-wide connection ordinal so each connection replays
        // its own deterministic schedule.
        std::uint64_t s = chaos->plan.seed;
        const std::uint64_t ordinal =
            chaos->connCounter.fetch_add(1, std::memory_order_relaxed);
        for (std::uint64_t i = 0; i <= ordinal % 17; i++)
            mix64(s);
        chaosStream = s ^ (0xa076bc9b00c5e511ULL * (ordinal + 1));
    }
}

WireConn::~WireConn() { close(); }

WireConn::WireConn(WireConn &&other) noexcept
    : sock(other.sock), chaos(std::move(other.chaos)),
      chaosStream(other.chaosStream), framesSent(other.framesSent)
{
    other.sock = -1;
}

WireConn &
WireConn::operator=(WireConn &&other) noexcept
{
    if (this != &other) {
        close();
        sock = other.sock;
        chaos = std::move(other.chaos);
        chaosStream = other.chaosStream;
        framesSent = other.framesSent;
        other.sock = -1;
    }
    return *this;
}

void
WireConn::close()
{
    if (sock >= 0) {
        ::close(sock);
        sock = -1;
    }
}

bool
WireConn::injectSendFaults(std::string &frame)
{
    const NetFaultPlan &plan = chaos->plan;

    // The exemption covers every fault kind, so a freshly (re)opened
    // connection can always complete its handshake — without it a
    // partition window would starve reconnecting workers into
    // exhausting the respawn budget instead of riding the window out.
    const std::uint64_t frame_idx = framesSent++;
    if (frame_idx < plan.skipFirst)
        return true;

    // Timed partition windows: every send inside one fails hard and
    // drops the connection, like a mid-route cable pull.
    if (!plan.partitions.empty()) {
        const auto since_arm =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - chaos->armedAt)
                .count();
        for (const NetFaultPlan::Window &w : plan.partitions) {
            if (since_arm >= 0 &&
                static_cast<std::uint64_t>(since_arm) >= w.startMs &&
                static_cast<std::uint64_t>(since_arm) <
                    w.startMs + w.durMs) {
                chaos->partitionHits.fetch_add(
                    1, std::memory_order_relaxed);
                close();
                throw simErrorf(ErrCode::IoError, {},
                                "wire: injected partition window "
                                "(chaos)");
            }
        }
    }

    // Fixed draw order keeps the schedule deterministic per frame.
    if (plan.dropP > 0.0 && mixDouble(chaosStream) < plan.dropP) {
        chaos->drops.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (plan.truncP > 0.0 && mixDouble(chaosStream) < plan.truncP) {
        chaos->truncations.fetch_add(1, std::memory_order_relaxed);
        // Send a torn prefix (header plus half the payload), then
        // hard-close: the peer sees EOF mid-frame.
        const std::size_t keep = 8 + (frame.size() - 8) / 2;
        std::size_t off = 0;
        while (off < keep) {
            const ssize_t n = ::send(sock, frame.data() + off,
                                     keep - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break; // peer already gone; the tear still happened
            }
            off += static_cast<std::size_t>(n);
        }
        close();
        return false;
    }
    if (plan.corruptP > 0.0 && mixDouble(chaosStream) < plan.corruptP) {
        chaos->corruptions.fetch_add(1, std::memory_order_relaxed);
        // Flip one bit past the length field (CRC or payload): the
        // receiver must reject the frame by checksum, never parse it.
        const std::uint64_t span = (frame.size() - 4) * 8;
        const std::uint64_t bit = mix64(chaosStream) % span;
        frame[4 + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    if (plan.delayP > 0.0 && mixDouble(chaosStream) < plan.delayP) {
        chaos->delays.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan.delayMs));
    }
    return true;
}

void
WireConn::send(std::string_view payload)
{
    if (sock < 0)
        wireError("send", "closed connection", EBADF);
    if (payload.size() > maxFramePayload) {
        throw simErrorf(ErrCode::InternalInvariant, {},
                        "wire: frame payload %zu exceeds limit",
                        payload.size());
    }
    // 8-byte little-endian header (length, CRC32), then the payload.
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = wireCrc32(payload);
    unsigned char hdr[8];
    hdr[0] = len & 0xff;
    hdr[1] = (len >> 8) & 0xff;
    hdr[2] = (len >> 16) & 0xff;
    hdr[3] = (len >> 24) & 0xff;
    hdr[4] = crc & 0xff;
    hdr[5] = (crc >> 8) & 0xff;
    hdr[6] = (crc >> 16) & 0xff;
    hdr[7] = (crc >> 24) & 0xff;
    std::string frame(reinterpret_cast<char *>(hdr), 8);
    frame.append(payload);

    if (chaos && chaos->plan.enabled() && !injectSendFaults(frame))
        return; // frame dropped or torn by the injector

    std::size_t off = 0;
    while (off < frame.size()) {
        // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not SIGPIPE.
        const ssize_t n = ::send(sock, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            wireError("send", "frame", errno);
        }
        off += static_cast<std::size_t>(n);
    }
}

bool
WireConn::readExact(void *buf, std::size_t n, int timeout_ms, bool eof_ok)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point::max();
    std::size_t off = 0;
    while (off < n) {
        int wait_ms = -1;
        if (timeout_ms >= 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            wait_ms = left > 0 ? static_cast<int>(left) : 0;
        }
        if (!waitFd(sock, POLLIN, wait_ms)) {
            if (off == 0 && eof_ok)
                return false; // reported as Timeout by recv()
            wireError("recv", "frame (timeout mid-frame)", ETIMEDOUT);
        }
        const ssize_t r =
            ::recv(sock, static_cast<char *>(buf) + off, n - off, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            wireError("recv", "frame", errno);
        }
        if (r == 0) {
            if (off == 0 && eof_ok)
                return false;
            wireError("recv", "frame (peer died mid-frame)", ECONNRESET);
        }
        off += static_cast<std::size_t>(r);
    }
    return true;
}

WireConn::RecvStatus
WireConn::recv(std::string &out, int timeout_ms)
{
    if (sock < 0)
        wireError("recv", "closed connection", EBADF);

    unsigned char hdr[8];
    // Distinguish timeout from EOF: peek readiness first. waitFd()
    // returning true with a zero-byte read is EOF; false is timeout.
    if (!waitFd(sock, POLLIN, timeout_ms))
        return RecvStatus::Timeout;
    if (!readExact(hdr, 8, timeout_ms, /*eof_ok=*/true))
        return RecvStatus::Eof;
    const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                              (static_cast<std::uint32_t>(hdr[1]) << 8) |
                              (static_cast<std::uint32_t>(hdr[2]) << 16) |
                              (static_cast<std::uint32_t>(hdr[3]) << 24);
    const std::uint32_t crc = static_cast<std::uint32_t>(hdr[4]) |
                              (static_cast<std::uint32_t>(hdr[5]) << 8) |
                              (static_cast<std::uint32_t>(hdr[6]) << 16) |
                              (static_cast<std::uint32_t>(hdr[7]) << 24);
    if (len > maxFramePayload) {
        throw simErrorf(ErrCode::IoError, {},
                        "wire: frame length %u exceeds limit (corrupt "
                        "or non-fabric peer)",
                        len);
    }
    out.resize(len);
    if (len > 0)
        readExact(out.data(), len, timeout_ms, /*eof_ok=*/false);
    if (wireCrc32(out) != crc) {
        throw simErrorf(ErrCode::IoError, {},
                        "wire: frame checksum mismatch (%u bytes; "
                        "corrupt stream or pre-CRC peer)",
                        len);
    }
    return RecvStatus::Ok;
}

WireListener::WireListener(const WireAddr &addr) : bound(addr)
{
    const int family = addr.isUnix ? AF_UNIX : AF_INET;
    // CLOEXEC: spawned workers must not inherit the listening socket,
    // or a SIGKILLed coordinator's port stays bound by its orphaned
    // children and a crash-recovery restart cannot re-listen.
    sock = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (sock < 0)
        wireError("socket", addr.str(), errno);

    if (addr.isUnix) {
        // A previous run's socket file would make bind() fail; it is
        // dead weight once no process listens on it.
        ::unlink(addr.path.c_str());
        sockaddr_un sa = unixSockaddr(addr.path);
        if (::bind(sock, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) <
            0) {
            const int err = errno;
            ::close(sock);
            sock = -1;
            wireError("bind", addr.str(), err);
        }
    } else {
        const int one = 1;
        ::setsockopt(sock, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in sa = tcpSockaddr(addr.host, addr.port);
        if (::bind(sock, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) <
            0) {
            const int err = errno;
            ::close(sock);
            sock = -1;
            wireError("bind", addr.str(), err);
        }
        if (addr.port == 0) {
            sockaddr_in actual;
            socklen_t len = sizeof(actual);
            if (::getsockname(sock, reinterpret_cast<sockaddr *>(&actual),
                              &len) == 0) {
                bound.port = ntohs(actual.sin_port);
            }
        }
    }
    if (::listen(sock, 64) < 0) {
        const int err = errno;
        ::close(sock);
        sock = -1;
        wireError("listen", addr.str(), err);
    }
}

WireListener::~WireListener()
{
    if (sock >= 0)
        ::close(sock);
    if (bound.isUnix)
        ::unlink(bound.path.c_str());
}

WireConn
WireListener::accept(int timeout_ms)
{
    if (!waitFd(sock, POLLIN, timeout_ms))
        return WireConn{};
    const int fd = ::accept4(sock, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED)
            return WireConn{};
        wireError("accept", bound.str(), errno);
    }
    if (!bound.isUnix) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return WireConn{fd};
}

WireConn
wireConnect(const WireAddr &addr, int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    int last_err = 0;
    do {
        const int family = addr.isUnix ? AF_UNIX : AF_INET;
        const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            wireError("socket", addr.str(), errno);
        int rc;
        if (addr.isUnix) {
            sockaddr_un sa = unixSockaddr(addr.path);
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                           sizeof(sa));
        } else {
            sockaddr_in sa = tcpSockaddr(addr.host, addr.port);
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                           sizeof(sa));
        }
        if (rc == 0) {
            if (!addr.isUnix) {
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            return WireConn{fd};
        }
        last_err = errno;
        ::close(fd);
        // The coordinator may not be listening yet (spawned workers
        // race its listener setup); retry until the deadline.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (Clock::now() < deadline);
    wireError("connect", addr.str(), last_err ? last_err : ETIMEDOUT);
}

} // namespace svr
