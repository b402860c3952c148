#include "sim/fabric.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/wire.hh"
#include "sim/config.hh"
#include "sim/ledger.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

namespace svr
{

namespace
{

using RecvStatus = WireConn::RecvStatus;

/** Worker-side patience: connecting, and waiting for any reply [ms]. */
constexpr int workerConnectTimeoutMs = 15000;
constexpr int workerReplyTimeoutMs = 30000;

} // namespace

std::string
SweepSpec::encode() const
{
    std::ostringstream os;
    os << escapeField(key.suite) << ' ' << escapeField(key.configs)
       << ' ' << key.window << ' ' << key.seed << ' '
       << escapeField(key.sampling) << ' ' << (keepGoing ? 1 : 0) << ' '
       << retries;
    return os.str();
}

bool
SweepSpec::decode(const std::string &text, SweepSpec &out)
{
    TokenReader t(text);
    SweepSpec s;
    s.key.suite = t.str();
    s.key.configs = t.str();
    s.key.window = t.u64();
    s.key.seed = t.u64();
    s.key.sampling = t.str();
    s.keepGoing = t.u64() != 0;
    s.retries = static_cast<unsigned>(t.u64());
    if (!t.ok || s.key.suite.empty() || s.key.configs.empty() ||
        s.retries == 0) {
        return false;
    }
    out = std::move(s);
    return true;
}

void
SweepSpec::setSampling(const SamplingParams &sampling)
{
    key.sampling.clear();
    if (sampling.enabled()) {
        key.sampling = std::to_string(sampling.sampleEvery) + "/" +
                       std::to_string(sampling.sampleWindow) + "/" +
                       std::to_string(sampling.warmup);
    }
}

void
SweepSpec::materialize(std::vector<WorkloadSpec> &workloads,
                       std::vector<SimConfig> &configs) const
{
    // Under ScopedErrorCapture a bad suite/config name from a
    // mismatched peer throws instead of exiting the process.
    ScopedErrorCapture scope(ErrCode::ConfigInvalid);

    SamplingParams sampling;
    if (!key.sampling.empty()) {
        unsigned long long e = 0, w = 0, u = 0;
        if (std::sscanf(key.sampling.c_str(), "%llu/%llu/%llu", &e, &w,
                        &u) != 3) {
            throw simErrorf(ErrCode::ConfigInvalid, {},
                            "fabric: bad sampling spec '%s'",
                            key.sampling.c_str());
        }
        sampling.sampleEvery = e;
        sampling.sampleWindow = w;
        sampling.warmup = u;
    }

    workloads = suiteByName(key.suite);

    configs.clear();
    for (const std::string &name : splitList(key.configs, ',')) {
        SimConfig c = presets::byName(name);
        c.maxInstructions = key.window;
        c.sampling = sampling;
        configs.push_back(std::move(c));
    }
    if (workloads.empty() || configs.empty()) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "fabric: sweep spec yields an empty matrix");
    }
}

LeaseQueue::LeaseQueue(std::size_t num_cells, unsigned chunk,
                       unsigned max_attempts,
                       const std::vector<std::size_t> &already_done,
                       std::uint64_t epoch_base)
    : cells(num_cells), nextLease(epoch_base + 1),
      chunkSize(chunk > 0 ? chunk : 1),
      maxAttempts(max_attempts > 0 ? max_attempts : 1)
{
    for (std::size_t idx : already_done) {
        if (idx < cells.size() && cells[idx].state == CellState::Pending) {
            cells[idx].state = CellState::Done;
            numDone++;
        }
    }
    // Seed the pending list in reverse so the LIFO hands out cell 0
    // first — purely cosmetic (progress reads naturally), never
    // correctness: results are keyed by cell index.
    pending.reserve(num_cells - numDone);
    for (std::size_t i = num_cells; i-- > 0;) {
        if (cells[i].state == CellState::Pending)
            pending.push_back(i);
    }
}

std::uint64_t
LeaseQueue::take(std::vector<std::size_t> &out, std::uint64_t now_ms)
{
    out.clear();
    while (out.size() < chunkSize && !pending.empty()) {
        const std::size_t idx = pending.back();
        pending.pop_back();
        // A cell can complete while sitting in pending (a reclaimed
        // lease's worker turned out to be alive and reported it).
        if (cells[idx].state != CellState::Pending)
            continue;
        cells[idx].state = CellState::Leased;
        cells[idx].attempts++;
        out.push_back(idx);
    }
    if (out.empty())
        return 0;
    const std::uint64_t id = nextLease++;
    active[id] = LeaseInfo{out, now_ms, false};
    return id;
}

std::uint64_t
LeaseQueue::hedge(std::vector<std::size_t> &out, std::uint64_t now_ms,
                  std::uint64_t overdue_ms)
{
    out.clear();
    const LeaseInfo *victim = nullptr;
    std::uint64_t victim_id = 0;
    for (const auto &entry : active) {
        const LeaseInfo &info = entry.second;
        if (info.hedged || info.bornMs + overdue_ms > now_ms)
            continue;
        bool open = false;
        for (std::size_t idx : info.cells)
            open |= cells[idx].state == CellState::Leased;
        if (!open)
            continue;
        if (!victim || info.bornMs < victim->bornMs) {
            victim = &info;
            victim_id = entry.first;
        }
    }
    if (!victim)
        return 0;
    for (std::size_t idx : victim->cells) {
        if (cells[idx].state == CellState::Leased) {
            cells[idx].attempts++;
            out.push_back(idx);
        }
    }
    active[victim_id].hedged = true;
    const std::uint64_t id = nextLease++;
    // The hedge twin is born pre-hedged so a straggling hedge never
    // spawns a third copy of the same cells.
    active[id] = LeaseInfo{out, now_ms, true};
    return id;
}

bool
LeaseQueue::complete(std::size_t cell)
{
    if (cell >= cells.size() || cells[cell].state == CellState::Done ||
        cells[cell].state == CellState::Poisoned) {
        return false;
    }
    cells[cell].state = CellState::Done;
    numDone++;
    return true;
}

bool
LeaseQueue::leasedElsewhere(std::size_t idx, std::uint64_t lease_id) const
{
    for (const auto &entry : active) {
        if (entry.first == lease_id)
            continue;
        for (std::size_t other : entry.second.cells) {
            if (other == idx)
                return true;
        }
    }
    return false;
}

std::size_t
LeaseQueue::reclaim(std::uint64_t lease_id,
                    std::vector<std::size_t> &poisoned)
{
    poisoned.clear();
    const auto it = active.find(lease_id);
    if (it == active.end())
        return 0;
    std::size_t requeued = 0;
    for (std::size_t idx : it->second.cells) {
        if (cells[idx].state != CellState::Leased)
            continue; // already completed (result beat the death)
        if (leasedElsewhere(idx, lease_id))
            continue; // a hedge twin still works on it
        if (cells[idx].attempts >= maxAttempts) {
            cells[idx].state = CellState::Poisoned;
            numPoisoned++;
            poisoned.push_back(idx);
        } else {
            cells[idx].state = CellState::Pending;
            pending.push_back(idx);
            requeued++;
        }
    }
    active.erase(it);
    return requeued;
}

void
LeaseQueue::release(std::uint64_t lease_id)
{
    active.erase(lease_id);
}

bool
LeaseQueue::leaseActive(std::uint64_t lease_id) const
{
    return active.find(lease_id) != active.end();
}

bool
LeaseQueue::allDone() const
{
    return numDone + numPoisoned == cells.size();
}

namespace
{

// ---------------------------------------------------------------- //
// Coordinator                                                      //
// ---------------------------------------------------------------- //

/** Shared coordinator state; mtx guards everything mutable. */
struct Coord
{
    const FabricOptions &opts;
    const SweepSpec &spec;
    std::string specEnc;
    std::int64_t hedgeMs;   //!< overdue threshold; < 0 = disabled
    std::chrono::steady_clock::time_point t0;

    std::mutex mtx;
    CellLedger &ledger;
    LeaseQueue leases;
    bool abort = false;
    std::unique_ptr<SimError> fatal;
    unsigned workerIds = 0;
    unsigned workersSeen = 0;
    std::atomic<unsigned> activeHandlers{0};

    Coord(const FabricOptions &o, const SweepSpec &s, CellLedger &l,
          unsigned chunk)
        : opts(o), spec(s), specEnc(s.encode()),
          hedgeMs(o.hedgeMs < 0
                      ? -1
                      : (o.hedgeMs > 0 ? o.hedgeMs
                                       : o.leaseTimeoutMs / 2)),
          t0(std::chrono::steady_clock::now()), ledger(l),
          // Lease ids carry a pid-derived epoch, so a restarted
          // coordinator can never re-grant an id a previous
          // incarnation handed out (lease fencing across restarts).
          leases(l.numCells(), chunk, o.maxCellAttempts,
                 l.doneIndices(),
                 static_cast<std::uint64_t>(::getpid()) << 32)
    {
    }

    /** Milliseconds since this coordinator started (lease clock). */
    std::uint64_t
    nowMs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }

    /** Record a fatal sweep error once; first one wins. (mtx held) */
    void
    setFatal(const SimError &e)
    {
        if (!fatal)
            fatal = std::make_unique<SimError>(e);
        abort = true;
    }

    /** Record one completed cell in the ledger. (mtx held) */
    void
    store(std::size_t idx, SimResult r)
    {
        try {
            if (ledger.record(idx, std::move(r)))
                leases.complete(idx);
        } catch (const SimError &e) {
            setFatal(e); // the journal append failed
        }
    }

    /** A worker left holding @p lease: requeue or poison its cells. */
    void
    reclaim(std::uint64_t lease, unsigned worker_id, const char *why)
    {
        std::vector<std::size_t> poisoned;
        std::lock_guard<std::mutex> lock(mtx);
        const std::size_t requeued = leases.reclaim(lease, poisoned);
        if (opts.progress && (requeued > 0 || !poisoned.empty())) {
            inform("fabric: worker %u lost (%s); reassigning %zu "
                   "cell(s)%s",
                   worker_id, why, requeued,
                   poisoned.empty() ? "" : ", poisoning the rest");
        }
        poisonCells(poisoned);
    }

    /**
     * Cells whose workers died maxCellAttempts times: record the
     * deterministic WorkerLost failure (keep-going) or abort the
     * sweep with it (fail-fast). (mtx held)
     */
    void
    poisonCells(const std::vector<std::size_t> &poisoned)
    {
        for (std::size_t idx : poisoned) {
            ErrContext ctx;
            ctx.workload = ledger.workload(idx);
            ctx.config = ledger.config(idx);
            const SimError err = simErrorf(
                ErrCode::WorkerLost, ctx,
                "lease abandoned after %u lost workers",
                opts.maxCellAttempts);
            if (!spec.keepGoing) {
                setFatal(err);
                return;
            }
            store(idx, failureRecord(ctx.workload, ctx.config, err,
                                     opts.maxCellAttempts));
        }
    }
};

/** Serve one worker connection until it finishes or is lost. */
void
serveWorker(Coord &C, WireConn conn)
{
    C.activeHandlers.fetch_add(1, std::memory_order_relaxed);
    struct Depart
    {
        Coord &c;
        ~Depart() { c.activeHandlers.fetch_sub(1, std::memory_order_relaxed); }
    } depart{C};

    std::string msg;
    unsigned workerId = 0;
    std::uint64_t currentLease = 0;

    try {
        if (conn.recv(msg, 15000) != RecvStatus::Ok)
            return;
        TokenReader hello(msg);
        if (hello.raw() != "HELLO")
            return;
        const std::uint64_t proto = hello.u64();
        const std::uint64_t jobs = hello.u64();
        const bool hello_ok = hello.ok;
        // Optional rejoin token: the worker id a previous session (of
        // this or an earlier coordinator incarnation) assigned.
        const std::string rejoin = hello_ok ? hello.raw() : std::string();
        if (!hello_ok || proto != fabricProtocolVersion) {
            conn.send("REJECT protocol-version");
            return;
        }
        {
            std::lock_guard<std::mutex> lock(C.mtx);
            workerId = ++C.workerIds;
            // A rejoining worker is the same machine coming back, not
            // new capacity: don't count it twice in the summary.
            if (rejoin.empty())
                C.workersSeen++;
        }
        conn.send("WELCOME " + std::to_string(workerId) + " " +
                  std::to_string(C.opts.leaseTimeoutMs) + " " + C.specEnc);
        if (C.opts.progress) {
            if (rejoin.empty()) {
                inform("fabric: worker %u joined (%llu jobs)", workerId,
                       static_cast<unsigned long long>(jobs));
            } else {
                inform("fabric: worker %u rejoined (was worker %s)",
                       workerId, rejoin.c_str());
            }
        }

        const char *loss = nullptr;
        std::vector<std::size_t> cells;
        for (;;) {
            const RecvStatus st =
                conn.recv(msg, C.opts.leaseTimeoutMs);
            if (st == RecvStatus::Timeout) {
                loss = "lease timeout";
                break;
            }
            if (st == RecvStatus::Eof) {
                // EOF without an outstanding lease is a clean exit.
                loss = currentLease != 0 ? "connection closed" : nullptr;
                break;
            }
            TokenReader t(msg);
            const std::string verb = t.raw();
            if (verb == "LEASE?") {
                std::lock_guard<std::mutex> lock(C.mtx);
                if (C.abort || C.leases.allDone()) {
                    conn.send("FIN");
                } else {
                    const std::uint64_t now = C.nowMs();
                    std::uint64_t id = C.leases.take(cells, now);
                    if (id == 0 && C.hedgeMs >= 0) {
                        id = C.leases.hedge(
                            cells, now,
                            static_cast<std::uint64_t>(C.hedgeMs));
                        if (id != 0 && C.opts.progress) {
                            inform("fabric: hedging %zu overdue "
                                   "cell(s) as lease %llu for worker "
                                   "%u",
                                   cells.size(),
                                   static_cast<unsigned long long>(id),
                                   workerId);
                        }
                    }
                    if (id == 0) {
                        conn.send("WAIT");
                    } else {
                        currentLease = id;
                        std::ostringstream os;
                        os << "LEASE " << id << ' ' << cells.size();
                        for (std::size_t idx : cells)
                            os << ' ' << idx;
                        conn.send(os.str());
                    }
                }
            } else if (verb == "RESULT") {
                const std::uint64_t lease = t.u64();
                const std::uint64_t idx = t.u64();
                const std::string line = t.rest();
                SimResult r;
                bool stop;
                bool stale;
                {
                    std::lock_guard<std::mutex> lock(C.mtx);
                    // Lease fencing: a result under a lease that is no
                    // longer live (reclaimed after a presumed death,
                    // released, or granted by a previous coordinator
                    // incarnation) is rejected — its cells are owned
                    // by someone else now.
                    stale = !C.leases.leaseActive(lease);
                    if (stale) {
                        warn("fabric: fencing stale result from "
                             "worker %u (lease %llu, cell %llu)",
                             workerId,
                             static_cast<unsigned long long>(lease),
                             static_cast<unsigned long long>(idx));
                    } else if (t.ok && parseJournalLine(line, r)) {
                        C.store(static_cast<std::size_t>(idx),
                                std::move(r));
                    } else {
                        warn("fabric: worker %u sent a malformed "
                             "result record",
                             workerId);
                    }
                    stop = C.abort;
                }
                conn.send(stop ? "STOP" : (stale ? "STALE" : "OK"));
            } else if (verb == "DONE") {
                const std::uint64_t lease = t.u64();
                bool stop;
                {
                    std::lock_guard<std::mutex> lock(C.mtx);
                    C.leases.release(lease);
                    if (lease == currentLease)
                        currentLease = 0;
                    stop = C.abort;
                }
                conn.send(stop ? "STOP" : "OK");
            } else if (verb == "PING") {
                std::lock_guard<std::mutex> lock(C.mtx);
                conn.send(C.abort ? "STOP" : "OK");
            } else if (verb == "ERROR") {
                // A fail-fast cell failure on the worker: surface it
                // from the coordinator exactly like the thread engine
                // rethrows the first cell error.
                const std::string codeName = t.str();
                const std::string what = t.str();
                ErrContext ctx;
                ctx.workload = t.str();
                ctx.config = t.str();
                ErrCode code = ErrCode::InternalInvariant;
                errCodeFromName(codeName, code);
                {
                    std::lock_guard<std::mutex> lock(C.mtx);
                    C.setFatal(SimError(code, what, ctx));
                }
                conn.send("STOP");
                loss = nullptr;
                currentLease = 0;
                break;
            } else {
                loss = "protocol violation";
                break;
            }
        }

        if (currentLease != 0)
            C.reclaim(currentLease, workerId, loss ? loss : "unknown");
        else if (loss && C.opts.progress)
            inform("fabric: worker %u disconnected (%s)", workerId, loss);
    } catch (const SimError &e) {
        // Transport failure on this connection: reclaim and move on;
        // the sweep only dies when cells exhaust their attempts.
        if (currentLease != 0)
            C.reclaim(currentLease, workerId, e.message().c_str());
    }
}

std::string
workerBinaryPath()
{
    if (const char *env = std::getenv("SVRSIM_WORKER_BIN"))
        return env;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        const std::string self(buf);
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            return self.substr(0, slash + 1) + "svrsim_worker";
    }
    return "svrsim_worker";
}

pid_t
spawnWorker(const std::string &binary, const std::string &addr,
            unsigned jobs, int heartbeat_ms)
{
    const std::string jobs_str = std::to_string(jobs);
    const std::string hb_str = std::to_string(heartbeat_ms);
    const pid_t pid = ::fork();
    if (pid < 0) {
        throw simErrorf(ErrCode::IoError, {},
                        "fabric: fork failed: %s", std::strerror(errno));
    }
    if (pid == 0) {
        // Child: only async-signal-safe work between fork and exec.
        ::execl(binary.c_str(), "svrsim_worker", "--connect",
                addr.c_str(), "--jobs", jobs_str.c_str(),
                "--heartbeat", hb_str.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

std::string
autoSocketPath(const std::string &scratch_dir)
{
    std::string dir = scratch_dir;
    if (dir.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        dir = tmp && *tmp ? tmp : "/tmp";
    }
    std::string path = dir + "/.svrsim-fabric-" +
                       std::to_string(::getpid()) + ".sock";
    if (path.size() >= 100) {
        // sockaddr_un caps the path around 107 bytes; deep build
        // trees fall back to the system tmp dir.
        path = std::string("/tmp/.svrsim-fabric-") +
               std::to_string(::getpid()) + ".sock";
    }
    return path;
}

} // namespace

std::vector<SimResult>
runFabricSweep(const std::vector<WorkloadSpec> &workloads,
               const std::vector<SimConfig> &configs,
               const SweepSpec &spec, const FabricOptions &fopts,
               const JournalCells &restored, SweepJournal *journal,
               MatrixTiming *timing)
{
    using Clock = std::chrono::steady_clock;
    const auto t_start = Clock::now();

    const std::size_t num_cells = workloads.size() * configs.size();
    if (num_cells == 0)
        return {};
    if (fopts.spawnWorkers == 0 && fopts.listen.empty()) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "fabric: need --workers N and/or an explicit "
                        "--coordinator endpoint");
    }
    if (fopts.heartbeatMs <= 0 ||
        fopts.heartbeatMs * 3 >= fopts.leaseTimeoutMs) {
        // A worker must fit several heartbeats into one lease-timeout
        // window, or a healthy-but-quiet worker gets declared dead.
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "fabric: heartbeat period %d ms must be "
                        "positive and < leaseTimeout/3 (%d ms)",
                        fopts.heartbeatMs, fopts.leaseTimeoutMs / 3);
    }

    // Restored cells (journal resume, shards) are born complete;
    // extra journal cells, e.g. from a superset sweep, are ignored.
    const FaultPlan faults = FaultPlan::fromEnv();
    CellLedger ledger(workloads, configs, restored, journal, faults,
                      spec.key.seed, CellLedger::Engine::Fabric);

    // Auto lease size: a few leases per worker wave so reassignment
    // after a death stays cheap, floor 1, cap 64.
    unsigned chunk = fopts.chunk;
    if (chunk == 0) {
        const unsigned workers_hint =
            fopts.spawnWorkers > 0 ? fopts.spawnWorkers : 4;
        const std::size_t open_cells =
            num_cells - ledger.doneIndices().size();
        chunk = static_cast<unsigned>(
            open_cells / (static_cast<std::size_t>(workers_hint) * 4));
        if (chunk < 1)
            chunk = 1;
        if (chunk > 64)
            chunk = 64;
    }

    Coord C(fopts, spec, ledger, chunk);

    const std::string listen_spec =
        !fopts.listen.empty() ? fopts.listen
                              : "unix:" + autoSocketPath(fopts.scratchDir);
    WireListener listener(WireAddr::parse(listen_spec));
    if (fopts.progress)
        inform("fabric: listening on %s", listener.addr().str().c_str());

    // Spawn local workers before any handler thread exists, so fork()
    // happens while this process is still single-threaded.
    std::vector<pid_t> children;
    const std::string worker_bin = workerBinaryPath();
    const std::string connect_spec = listener.addr().str();
    for (unsigned i = 0; i < fopts.spawnWorkers; i++)
        children.push_back(spawnWorker(worker_bin, connect_spec,
                                       fopts.workerJobs,
                                       fopts.heartbeatMs));

    unsigned respawn_budget = 3 * fopts.spawnWorkers;
    const bool expect_external = !fopts.listen.empty();

    std::vector<std::thread> handlers;
    std::size_t live_children = children.size();
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(C.mtx);
            if (C.abort || C.leases.allDone())
                break;
        }

        // Reap dead local workers; respawn crashed ones while budget
        // lasts (clean exit 0 means the worker saw FIN — no respawn).
        for (pid_t &pid : children) {
            if (pid <= 0)
                continue;
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) != pid)
                continue;
            pid = -1;
            live_children--;
            const bool crashed =
                WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0);
            bool want_respawn = false;
            {
                std::lock_guard<std::mutex> lock(C.mtx);
                want_respawn = crashed && !C.abort &&
                               !C.leases.allDone() && respawn_budget > 0;
            }
            if (want_respawn) {
                respawn_budget--;
                if (fopts.progress)
                    inform("fabric: respawning a crashed local worker "
                           "(%u respawn(s) left)",
                           respawn_budget);
                pid = spawnWorker(worker_bin, connect_spec,
                                  fopts.workerJobs, fopts.heartbeatMs);
                live_children++;
            }
        }

        // All local workers dead, nothing to respawn, nobody
        // connected, and no external workers expected: the sweep can
        // never finish — fail instead of waiting forever.
        if (!expect_external && fopts.spawnWorkers > 0 &&
            live_children == 0 && respawn_budget == 0 &&
            C.activeHandlers.load(std::memory_order_relaxed) == 0) {
            std::lock_guard<std::mutex> lock(C.mtx);
            C.setFatal(SimError(ErrCode::WorkerLost,
                                "all local workers died and the "
                                "respawn budget is exhausted"));
            break;
        }

        WireConn conn = listener.accept(100);
        if (conn.valid())
            handlers.emplace_back(
                [&C](WireConn c) { serveWorker(C, std::move(c)); },
                std::move(conn));
    }

    bool aborted;
    {
        std::lock_guard<std::mutex> lock(C.mtx);
        aborted = C.abort;
    }
    if (aborted) {
        // Handler threads unblock when their peers die.
        for (pid_t pid : children) {
            if (pid > 0)
                ::kill(pid, SIGKILL);
        }
    }
    for (auto &h : handlers)
        h.join();

    // Graceful shutdown: every worker got FIN and exits on its own;
    // insist with SIGKILL if one lingers past the grace window.
    const auto grace_deadline =
        Clock::now() + std::chrono::milliseconds(10000);
    for (pid_t &pid : children) {
        if (pid <= 0)
            continue;
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (Clock::now() > grace_deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        pid = -1;
    }

    {
        std::lock_guard<std::mutex> lock(C.mtx);
        if (C.fatal)
            throw *C.fatal;
        if (!C.leases.allDone()) {
            throw simErrorf(ErrCode::InternalInvariant, {},
                            "fabric: coordinator loop ended with "
                            "incomplete cells");
        }
    }

    const std::chrono::duration<double> elapsed = Clock::now() - t_start;
    const MatrixTiming t = ledger.summarize(
        elapsed.count(), C.workersSeen > 0 ? C.workersSeen : 1,
        fopts.progress);
    if (timing)
        *timing = t;
    return flattenMatrix(ledger.takeRows());
}

// ---------------------------------------------------------------- //
// Worker                                                           //
// ---------------------------------------------------------------- //

int
runFabricWorker(const WorkerOptions &opts)
{
    using Clock = std::chrono::steady_clock;

    std::mutex sock_mtx; // serializes request/response exchanges
    WireConn conn;
    std::atomic<bool> dead{false};
    std::atomic<bool> stop{false};

    // Session identity, pinned across reconnects.
    std::uint64_t worker_id = 0;
    std::string rejoin_token;  //!< previous worker id; "" on first join
    std::string pinned_spec;   //!< sweep spec from the first WELCOME
    SweepSpec spec;
    std::atomic<int> hb_period{opts.heartbeatMs > 0 ? opts.heartbeatMs
                                                    : 1000};

    // Heartbeat machinery (started after the first WELCOME).
    std::mutex hb_mtx;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread hb;
    const auto stopHeartbeat = [&]() {
        {
            std::lock_guard<std::mutex> lock(hb_mtx);
            hb_stop = true;
        }
        hb_cv.notify_all();
        if (hb.joinable())
            hb.join();
    };

    // One request/response exchange; false when the coordinator is
    // gone (also flags `dead` so concurrent cells stop early).
    const auto exchange = [&](const std::string &req, std::string &rep) {
        std::lock_guard<std::mutex> lock(sock_mtx);
        if (dead.load(std::memory_order_relaxed))
            return false;
        try {
            conn.send(req);
            if (conn.recv(rep, workerReplyTimeoutMs) != RecvStatus::Ok) {
                dead.store(true, std::memory_order_relaxed);
                return false;
            }
        } catch (const SimError &) {
            dead.store(true, std::memory_order_relaxed);
            return false;
        }
        if (rep == "STOP")
            stop.store(true, std::memory_order_relaxed);
        return true;
    };

    /**
     * HELLO/WELCOME over an already-connected conn (caller owns the
     * socket exclusively). 0 = welcomed, 1 = permanent rejection
     * (wrong protocol or a different sweep), 2 = transport trouble
     * (worth retrying).
     */
    const auto handshake = [&]() -> int {
        std::string msg;
        try {
            conn.send("HELLO " + std::to_string(fabricProtocolVersion) +
                      " " + std::to_string(opts.jobs) +
                      (rejoin_token.empty() ? std::string()
                                            : " " + rejoin_token));
            if (conn.recv(msg, workerReplyTimeoutMs) != RecvStatus::Ok)
                return 2;
        } catch (const SimError &) {
            return 2;
        }
        TokenReader wt(msg);
        if (wt.raw() != "WELCOME") {
            warn("worker: rejected by coordinator: %s", msg.c_str());
            return 1;
        }
        const std::uint64_t id = wt.u64();
        const std::uint64_t lease_timeout = wt.u64();
        SweepSpec got;
        if (!wt.ok || !SweepSpec::decode(wt.rest(), got)) {
            warn("worker: malformed WELCOME");
            return 1;
        }
        if (pinned_spec.empty()) {
            pinned_spec = got.encode();
            spec = got;
        } else if (got.encode() != pinned_spec) {
            // The endpoint answers, but with a different sweep — a
            // new campaign reused the address. Joining it would mean
            // simulating cells this process was never asked to run.
            warn("worker: coordinator now runs a different sweep; "
                 "not rejoining");
            return 1;
        }
        worker_id = id;
        rejoin_token = std::to_string(id);
        // Heartbeat coherence: several heartbeats must fit into one
        // lease-timeout window, or the coordinator declares a busy
        // worker dead between PINGs.
        const int requested =
            opts.heartbeatMs > 0 ? opts.heartbeatMs : 1000;
        int effective = requested;
        if (lease_timeout > 0 &&
            static_cast<std::uint64_t>(effective) * 3 >= lease_timeout) {
            effective = static_cast<int>(lease_timeout / 4);
            if (effective < 1)
                effective = 1;
            warn("worker: clamping heartbeat %d -> %d ms (lease "
                 "timeout %llu ms)",
                 requested, effective,
                 static_cast<unsigned long long>(lease_timeout));
        }
        hb_period.store(effective, std::memory_order_relaxed);
        return 0;
    };

    /**
     * The connection died: retry with exponential backoff + jitter
     * inside the opts.reconnectMs window, re-handshaking each time
     * (the coordinator may itself be restarting and replaying its
     * journal). Holds sock_mtx throughout, so lease tasks and the
     * heartbeat queue up behind it instead of racing the new socket.
     */
    // Flap damping: a connection that dies shortly after a successful
    // reconnect resumes the previous backoff instead of restarting at
    // 50 ms — hammering a partitioned link with instant retries burns
    // one lease attempt per cycle at the coordinator and can poison
    // cells before the partition even lifts.
    int backoff_carry = 50;
    Clock::time_point last_reconnect{};

    const auto reconnect = [&]() -> bool {
        if (opts.reconnectMs <= 0)
            return false;
        std::lock_guard<std::mutex> lock(sock_mtx);
        conn.close();
        // Deterministic per-process jitter decorrelates a worker
        // fleet's retry storms without nondeterministic seeds.
        Rng jitter(0x7ec0417e00000000ULL +
                   static_cast<std::uint64_t>(::getpid()));
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(opts.reconnectMs);
        // A flapping link (died again < 3 s after the last successful
        // reconnect) resumes the grown backoff AND waits before the
        // first retry — the handshake itself may succeed mid-partition
        // (it is fault-exempt), so without the up-front wait the cycle
        // time would collapse back to zero.
        const bool flapping =
            last_reconnect != Clock::time_point{} &&
            Clock::now() - last_reconnect < std::chrono::seconds(3);
        int backoff = flapping ? backoff_carry : 50;
        bool retry = flapping;
        while (Clock::now() < deadline) {
            if (retry) {
                const int wait =
                    backoff / 2 +
                    static_cast<int>(jitter.nextBounded(
                        static_cast<std::uint64_t>(backoff / 2) + 1));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(wait));
                backoff = backoff >= 1000 ? 2000 : backoff * 2;
            }
            retry = true;
            try {
                conn = wireConnect(WireAddr::parse(opts.connect), 1000);
                const int hs = handshake();
                if (hs == 0) {
                    dead.store(false, std::memory_order_relaxed);
                    backoff_carry = backoff;
                    last_reconnect = Clock::now();
                    inform("worker %llu: reconnected to %s",
                           static_cast<unsigned long long>(worker_id),
                           opts.connect.c_str());
                    return true;
                }
                if (hs == 1)
                    return false;
            } catch (const SimError &) {
                // Endpoint not back yet; keep backing off.
            }
            conn.close();
        }
        warn("worker %llu: gave up reconnecting after %d ms",
             static_cast<unsigned long long>(worker_id),
             opts.reconnectMs);
        return false;
    };

    try {
        conn = wireConnect(WireAddr::parse(opts.connect),
                           workerConnectTimeoutMs);
        {
            const int hs = handshake();
            if (hs != 0) {
                if (hs == 2)
                    warn("worker: coordinator vanished during "
                         "handshake");
                return 2;
            }
        }

        std::vector<WorkloadSpec> workloads;
        std::vector<SimConfig> configs;
        spec.materialize(workloads, configs);
        const std::size_t num_cells = workloads.size() * configs.size();

        MatrixOptions mopts;
        mopts.baseSeed = spec.key.seed;
        mopts.keepGoing = spec.keepGoing;
        mopts.maxAttempts = spec.retries;
        mopts.faultPlan = FaultPlan::fromEnv();

        inform("worker %llu: connected to %s (%zu-cell matrix)",
               static_cast<unsigned long long>(worker_id),
               opts.connect.c_str(), num_cells);

        hb = std::thread([&] {
            std::unique_lock<std::mutex> lock(hb_mtx);
            while (!hb_cv.wait_for(
                lock,
                std::chrono::milliseconds(
                    hb_period.load(std::memory_order_relaxed)),
                [&] { return hb_stop; })) {
                // While the link is down the main loop owns recovery;
                // pinging would only pile onto the reconnect mutex.
                if (dead.load(std::memory_order_relaxed))
                    continue;
                lock.unlock();
                std::string rep;
                exchange("PING", rep);
                lock.lock();
            }
        });

        std::vector<std::size_t> cells;
        for (;;) {
            if (dead.load(std::memory_order_relaxed)) {
                if (!reconnect()) {
                    stopHeartbeat();
                    return 2;
                }
                continue;
            }
            if (stop.load(std::memory_order_relaxed))
                break;

            std::string reply;
            if (!exchange("LEASE?", reply))
                continue; // dead now; the loop head reconnects
            TokenReader t(reply);
            const std::string verb = t.raw();
            if (verb == "FIN" || verb == "STOP")
                break;
            if (verb == "WAIT") {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                continue;
            }
            if (verb != "LEASE") {
                warn("worker %llu: unexpected reply '%s'",
                     static_cast<unsigned long long>(worker_id),
                     reply.c_str());
                stopHeartbeat();
                return 2;
            }
            const std::uint64_t lease_id = t.u64();
            const std::uint64_t n = t.u64();
            cells.clear();
            for (std::uint64_t i = 0; i < n && t.ok; i++)
                cells.push_back(static_cast<std::size_t>(t.u64()));
            if (!t.ok || cells.size() != n) {
                stopHeartbeat();
                return 2;
            }

            for (const std::size_t idx : cells) {
                if (idx >= num_cells) {
                    throw simErrorf(ErrCode::InternalInvariant, {},
                                    "fabric: leased cell %zu out of "
                                    "range",
                                    idx);
                }
            }

            // Simulate the lease's cells — in parallel when jobs > 1 —
            // on the engine's per-cell path: each row of the lease is
            // built once. parallelFor() rethrows the first error, so a
            // fail-fast SimError surfaces here exactly like it
            // surfaces from runMatrix().
            CellRows rows(workloads, configs, mopts, cells);
            std::atomic<bool> lease_stale{false};
            parallelFor(cells.size(), opts.jobs, [&](std::size_t k) {
                const std::size_t idx = cells[k];
                if (dead.load(std::memory_order_relaxed) ||
                    stop.load(std::memory_order_relaxed) ||
                    lease_stale.load(std::memory_order_relaxed)) {
                    return;
                }
                const SimResult res = rows.run(idx);
                rows.finish(idx);
                if (lease_stale.load(std::memory_order_relaxed))
                    return;
                std::string rep;
                if (!exchange("RESULT " + std::to_string(lease_id) +
                                  " " + std::to_string(idx) + " " +
                                  journalLine(res),
                              rep)) {
                    return;
                }
                if (rep == "STALE") {
                    // Lease fencing: the coordinator reassigned this
                    // lease (or restarted). The remaining cells are
                    // someone else's now — stop computing them.
                    lease_stale.store(true, std::memory_order_relaxed);
                    return;
                }
                if (mopts.faultPlan.shouldKill(res.workload,
                                               res.config)) {
                    // Crash-safety hook, mirroring the single-process
                    // sweep: die like an external SIGKILL right after
                    // the coordinator acknowledged this cell.
                    warn("worker %llu: injected kill after cell %s/%s",
                         static_cast<unsigned long long>(worker_id),
                         res.workload.c_str(), res.config.c_str());
                    std::raise(SIGKILL);
                }
            });

            if (dead.load(std::memory_order_relaxed) ||
                lease_stale.load(std::memory_order_relaxed)) {
                // Abandon the lease: no DONE. The coordinator either
                // reclaimed it already (stale) or will when it
                // notices the dead link; the loop head handles the
                // reconnect in the dead case.
                continue;
            }

            std::string rep;
            if (!exchange("DONE " + std::to_string(lease_id), rep))
                continue;
        }

        stopHeartbeat();
        inform("worker %llu: finished",
               static_cast<unsigned long long>(worker_id));
        return 0;
    } catch (const SimError &e) {
        // Fail-fast cell error (or setup failure): report it so the
        // coordinator aborts the sweep with this exact error, then
        // exit nonzero like the serial tool would.
        stopHeartbeat();
        try {
            if (conn.valid()) {
                std::lock_guard<std::mutex> lock(sock_mtx);
                conn.send(std::string("ERROR ") +
                          escapeField(errCodeName(e.code())) + " " +
                          escapeField(e.message()) + " " +
                          escapeField(e.context().workload) + " " +
                          escapeField(e.context().config));
                std::string rep;
                conn.recv(rep, 2000);
            }
        } catch (const SimError &) {
            // Coordinator already gone; nothing left to tell it.
        }
        warn("worker: fatal: %s", e.what());
        return 1;
    }
}

std::size_t
runSweep(const SweepSpec &spec, const SweepOutput &out, unsigned jobs,
         const FabricOptions *fabric)
{
    if (out.resume && out.path.empty()) {
        throw simErrorf(ErrCode::ConfigInvalid, {},
                        "--resume requires --out PATH (the journal "
                        "lives at PATH.journal)");
    }
    std::vector<WorkloadSpec> workloads;
    std::vector<SimConfig> configs;
    spec.materialize(workloads, configs);
    const FaultPlan faults = FaultPlan::fromEnv();

    const std::string journal_path = out.path + ".journal";
    JournalCells restored;
    if (out.resume && ::access(journal_path.c_str(), F_OK) == 0) {
        restored = loadJournal(journal_path, spec.key);
        inform("resume: %zu cell(s) already journaled in '%s'",
               restored.size(), journal_path.c_str());
    } else if (out.resume) {
        inform("resume: no journal at '%s'; starting fresh",
               journal_path.c_str());
    }
    // Shard cells (e.g. journals shipped from another host) count as
    // completed too. Cells in more than one journal are identical by
    // the determinism contract, so duplicates are counted, not compared.
    JournalCells from_shards;
    std::size_t dups = 0;
    for (const std::string &shard : out.shards) {
        for (auto &kv : loadJournal(shard, spec.key)) {
            if (restored.count(kv.first) ||
                !from_shards.insert(std::move(kv)).second)
                dups++;
        }
    }
    if (!out.shards.empty()) {
        inform("shards: %zu cell(s) restored from %zu shard(s) "
               "(%zu duplicate record(s))",
               from_shards.size(), out.shards.size(), dups);
    }
    std::unique_ptr<SweepJournal> journal;
    if (!out.path.empty()) {
        journal = std::make_unique<SweepJournal>(journal_path, spec.key,
                                                 out.fsync);
        // Shard cells are not in PATH.journal yet; append them so it
        // alone can resume the sweep.
        for (const auto &kv : from_shards)
            journal->append(kv.second);
    }
    restored.merge(from_shards);

    MatrixTiming timing;
    std::vector<SimResult> results;
    if (fabric) {
        results = runFabricSweep(workloads, configs, spec, *fabric,
                                 restored, journal.get(), &timing);
    } else {
        MatrixOptions opts;
        opts.jobs = jobs;
        opts.baseSeed = spec.key.seed;
        opts.keepGoing = spec.keepGoing;
        opts.maxAttempts = spec.retries;
        opts.faultPlan = faults;
        opts.restored = std::move(restored);
        opts.journal = journal.get();
        results = flattenMatrix(runMatrix(workloads, configs, opts, &timing));
    }

    const bool sampled = !spec.key.sampling.empty();
    std::string content;
    if (out.json) {
        content = toJson(results);
    } else {
        content = csvHeader(sampled) + "\n";
        for (const SimResult &r : results)
            content += csvRow(r, sampled) + "\n";
    }
    if (out.path.empty()) {
        std::fputs(content.c_str(), stdout);
    } else {
        writeFileAtomic(out.path, content, faults, out.fsync);
        journal.reset();
        // The artifact is durable; the journal is now redundant.
        if (!out.keepJournal)
            std::remove(journal_path.c_str());
    }
    return timing.failedCells;
}

} // namespace svr
