/**
 * @file
 * Distributed sweep fabric: a coordinator process enumerates the
 * (workload x config) cell matrix into leases and hands them to N
 * worker processes over the length-prefixed wire protocol
 * (common/wire.hh); workers simulate their cells with the exact
 * per-cell fault-isolation path runMatrix() uses and stream each
 * completed cell back as a journal record.
 *
 * Determinism contract: the merged artifact is byte-identical to a
 * serial single-process run of the same sweep. Each cell's RNG stream
 * is derived from (seed, workload, config) — never from scheduling —
 * and the journal-record serialization round-trips every reported
 * field exactly (integers verbatim, doubles as %.17g), so it does not
 * matter which process simulated a cell or in what order results
 * arrived: the coordinator reassembles them into workload-major order
 * and emits the same bytes the serial loop would.
 *
 * Fault tolerance: a worker that dies (SIGKILL, crash, network loss)
 * or goes silent past the lease timeout has the incomplete cells of
 * its lease reassigned to surviving workers; locally spawned workers
 * are respawned within a bounded budget. A cell whose workers die
 * maxCellAttempts times is declared poisoned: under keep-going it
 * becomes a deterministic SimError(WorkerLost) failure record, else
 * the sweep aborts with that error — the same isolation semantics the
 * thread-level engine gives a throwing cell.
 *
 * Chaos hardening (protocol v2):
 *  - Lease-epoch fencing: lease ids are monotonic and never reused
 *    (after a coordinator restart they start from a fresh pid-derived
 *    epoch), and a RESULT for a lease that is no longer active — the
 *    worker was declared dead and its cells reassigned, or the lease
 *    was granted by a previous coordinator incarnation — is answered
 *    with STALE and never stored. First-result-wins therefore always
 *    means "first result under a live lease".
 *  - Worker reconnect: a worker that loses its connection retries
 *    with exponential backoff + jitter inside a bounded window,
 *    re-handshakes (carrying its previous worker id so the rejoin is
 *    visible), verifies the sweep spec is unchanged, abandons any
 *    in-flight lease, and resumes taking leases.
 *  - Coordinator crash-recovery: the per-cell journal plus --resume
 *    is the recovery protocol — a restarted coordinator replays the
 *    journal, re-opens the same endpoint, and surviving workers
 *    reconnect; old-epoch results are fenced as STALE.
 *  - Straggler hedging: when the pending queue is empty, an idle
 *    worker is speculatively handed the still-incomplete cells of the
 *    oldest overdue lease (a hedge lease); whichever copy reports
 *    first wins, the other is a fenced/duplicate no-op.
 *
 * Wire grammar (text payloads inside frames; tokens are journal-
 * escaped, rest-of-line fields come last):
 *   worker -> coord:  HELLO <proto> <jobs> [<prevWorkerId>]
 *   coord  -> worker: WELCOME <workerId> <leaseTimeoutMs> <sweep-spec...>
 *   worker -> coord:  LEASE?
 *   coord  -> worker: LEASE <id> <n> <cell-idx>*n | WAIT | FIN
 *   worker -> coord:  RESULT <leaseId> <cellIdx> <journal-line...>
 *   coord  -> worker: OK | STALE | STOP  (reply to RESULT)
 *   worker -> coord:  DONE <leaseId>   |  PING
 *   coord  -> worker: OK | STOP        (reply to DONE/PING)
 *   worker -> coord:  ERROR <errCode> <message> <workload> <config>
 */

#ifndef SVR_SIM_FABRIC_HH
#define SVR_SIM_FABRIC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace svr
{

/**
 * Bumped on any incompatible wire-grammar change. v2: CRC32-framed
 * transport (common/wire.hh), WELCOME carries the lease timeout,
 * HELLO carries an optional rejoin token, RESULT can be answered
 * STALE (lease fencing). v3: RESULT carries a J2 journal record, its
 * fields in result field table order (sim/result_fields.hh).
 */
constexpr unsigned fabricProtocolVersion = 3;

/**
 * Everything a worker needs to rebuild the coordinator's exact cell
 * matrix: the sweep identity (suite, config list, window, seed,
 * sampling) plus the fault-isolation knobs. Ships inside WELCOME, so
 * an external worker needs nothing but the coordinator's address.
 */
struct SweepSpec
{
    SweepKey key;
    bool keepGoing = false;
    unsigned retries = 1;

    /** Wire form: space-separated journal-escaped tokens. */
    std::string encode() const;
    /** Parse encode() output; false on a malformed spec. */
    static bool decode(const std::string &text, SweepSpec &out);

    /** Set key.sampling from @p sampling ("" when it is off). */
    void setSampling(const SamplingParams &sampling);

    /**
     * Rebuild the cell matrix: suiteByName(key.suite) workloads and
     * presets::byName() configs with window/sampling applied — the
     * same construction the sweep tool performs, so coordinator and
     * workers agree on every cell index.
     */
    void materialize(std::vector<WorkloadSpec> &workloads,
                     std::vector<SimConfig> &configs) const;
};

/**
 * Lease bookkeeping over cell indices 0..numCells-1 (workload-major,
 * the flattenMatrix() order). Not thread-safe — the coordinator holds
 * its own mutex; exposed here so the policy is unit-testable.
 */
class LeaseQueue
{
  public:
    /**
     * @p chunk cells max per lease; @p max_attempts worker deaths
     * before a cell is poisoned. Cells in @p already_done (e.g.
     * restored from a journal) are born completed and never leased.
     * @p epoch_base offsets every lease id — a restarted coordinator
     * passes a fresh epoch so ids granted by a previous incarnation
     * can never collide with (and thus never impersonate) live ones.
     */
    LeaseQueue(std::size_t num_cells, unsigned chunk,
               unsigned max_attempts,
               const std::vector<std::size_t> &already_done = {},
               std::uint64_t epoch_base = 0);

    /**
     * Take up to chunk pending cells as a new lease born at
     * @p now_ms (coordinator clock, used for hedging). Returns the
     * lease id (> 0) with the cells in @p out, or 0 when nothing is
     * pending (either all leased out elsewhere or all complete).
     */
    std::uint64_t take(std::vector<std::size_t> &out,
                       std::uint64_t now_ms = 0);

    /**
     * Straggler hedging: when nothing is pending, speculatively
     * re-lease the still-incomplete cells of the oldest overdue lease
     * (born more than @p overdue_ms before @p now_ms) that has not
     * been hedged yet. Returns the new (hedge) lease id, or 0 when no
     * lease qualifies. The hedge lease itself is never hedged again.
     */
    std::uint64_t hedge(std::vector<std::size_t> &out,
                        std::uint64_t now_ms, std::uint64_t overdue_ms);

    /**
     * Record one completed cell (results can arrive from a worker
     * whose lease was already reclaimed). False = duplicate, ignored.
     */
    bool complete(std::size_t cell);

    /**
     * A worker died holding @p lease_id: its incomplete cells go back
     * to the pending queue with one more attempt charged, except
     * cells that exhausted max_attempts, which are returned in
     * @p poisoned, and cells also held by another active (hedge)
     * lease, which stay leased there. Returns the requeued count.
     */
    std::size_t reclaim(std::uint64_t lease_id,
                        std::vector<std::size_t> &poisoned);

    /** A lease finished cleanly (DONE): drop its bookkeeping. */
    void release(std::uint64_t lease_id);

    /**
     * Lease fencing: is @p lease_id still live? A RESULT under a
     * reclaimed, released, or previous-epoch lease must be rejected.
     */
    bool leaseActive(std::uint64_t lease_id) const;

    /** All cells completed or poisoned. */
    bool allDone() const;
    std::size_t completedCells() const { return numDone; }
    std::size_t poisonedCells() const { return numPoisoned; }

  private:
    enum class CellState : std::uint8_t { Pending, Leased, Done, Poisoned };

    struct Cell
    {
        CellState state = CellState::Pending;
        unsigned attempts = 0; //!< lease assignments so far
    };

    struct LeaseInfo
    {
        std::vector<std::size_t> cells;
        std::uint64_t bornMs = 0;
        bool hedged = false; //!< already hedged, or itself a hedge
    };

    bool leasedElsewhere(std::size_t idx, std::uint64_t lease_id) const;

    std::vector<Cell> cells;
    std::vector<std::size_t> pending; //!< LIFO of leasable cell indices
    std::map<std::uint64_t, LeaseInfo> active;
    std::uint64_t nextLease = 1;
    unsigned chunkSize;
    unsigned maxAttempts;
    std::size_t numDone = 0;
    std::size_t numPoisoned = 0;
};

/** Coordinator-side knobs. */
struct FabricOptions
{
    /**
     * Endpoint to listen on ("unix:PATH" or "tcp:HOST:PORT"); empty
     * picks a private unix socket under @p scratchDir (or TMPDIR).
     */
    std::string listen;
    /** Directory for the auto unix socket (e.g. the artifact's dir). */
    std::string scratchDir;
    /** Worker processes to spawn locally (0 = external workers only). */
    unsigned spawnWorkers = 0;
    /** --jobs forwarded to each spawned worker (intra-worker threads). */
    unsigned workerJobs = 1;
    /** Cells per lease; 0 = auto from matrix size and worker count. */
    unsigned chunk = 0;
    /** Silence window after which a worker is declared dead [ms]. */
    int leaseTimeoutMs = 60000;
    /**
     * Heartbeat period forwarded to spawned workers and shipped to
     * external ones via WELCOME. Validated against the lease timeout:
     * a heartbeat period >= leaseTimeout/3 is rejected, because a
     * healthy worker must fit several heartbeats into one timeout
     * window before it can be declared dead.
     */
    int heartbeatMs = 1000;
    /**
     * Straggler hedging: a lease older than this with incomplete
     * cells may be speculatively re-leased to an idle worker.
     * 0 = auto (leaseTimeoutMs / 2), < 0 disables hedging.
     */
    int hedgeMs = 0;
    /**
     * Worker deaths before a cell is poisoned (>= 1). Crashed local
     * workers are respawned up to 3 x spawnWorkers times; the worker
     * binary is SVRSIM_WORKER_BIN, else svrsim_worker next to this
     * executable.
     */
    unsigned maxCellAttempts = 3;
    /** Emit progress lines (worker joins/losses, respawns). */
    bool progress = true;
};

/**
 * Run the sweep as fabric coordinator: lease cells to workers, record
 * streamed results in the cell ledger (sim/ledger.hh) — which
 * journals each newly completed cell to @p journal (may be null) —
 * and return the results in workload-major order, byte-for-byte what
 * flattenMatrix(runMatrix(...)) would produce. @p restored cells are
 * taken as already complete and never leased (lease-aware resume),
 * exactly as runMatrix() takes MatrixOptions::restored. Throws
 * SimError on a fail-fast cell failure, a poisoned lease without
 * keep-going, or a transport breakdown.
 * @p timing receives the wall-clock summary (jobs = workers seen).
 */
std::vector<SimResult>
runFabricSweep(const std::vector<WorkloadSpec> &workloads,
               const std::vector<SimConfig> &configs,
               const SweepSpec &spec, const FabricOptions &fopts,
               const JournalCells &restored, SweepJournal *journal,
               MatrixTiming *timing);

/** Worker-side knobs. */
struct WorkerOptions
{
    std::string connect;         //!< coordinator endpoint (required)
    unsigned jobs = 1;           //!< threads over the cells of a lease
    int heartbeatMs = 1000;      //!< PING period while simulating
    /**
     * Total window for reconnect attempts after a lost connection
     * (exponential backoff + jitter inside it); the worker gives up
     * with exit code 2 when it closes. 0 disables reconnecting.
     */
    int reconnectMs = 30000;
};

/**
 * Run as fabric worker: connect, receive the sweep spec, simulate
 * leased cells (parallelFor() within the lease when jobs > 1),
 * stream results, repeat until FIN. Returns a process exit code:
 * 0 = completed/FIN, 1 = fatal SimError (also reported to the
 * coordinator as ERROR), 2 = transport loss.
 */
int runFabricWorker(const WorkerOptions &opts);

/** Where a sweep writes its artifact and journal. */
struct SweepOutput
{
    /** Artifact path, written atomically; empty = stdout, no journal. */
    std::string path;
    bool json = false;        //!< JSON artifact instead of CSV
    bool resume = false;      //!< restore cells already in PATH.journal
    bool keepJournal = false; //!< keep PATH.journal after success
    bool fsync = false;       //!< fsync journal records and the artifact
    /** Journal shards whose cells count as already completed. */
    std::vector<std::string> shards;
};

/**
 * The sweep tool's one call: materialize @p spec's cell matrix, run it
 * on @p jobs local threads (runMatrix()) or, when @p fabric is set, on
 * fabric workers (runFabricSweep()), and write the artifact. With
 * out.path every finished cell is journaled to PATH.journal, which
 * goes away once the artifact is durable unless out.keepJournal.
 * SVRSIM_FAULT applies throughout. Returns the number of failed cells
 * (keep-going); throws SimError on a fail-fast failure.
 */
std::size_t runSweep(const SweepSpec &spec, const SweepOutput &out,
                     unsigned jobs, const FabricOptions *fabric);

} // namespace svr

#endif // SVR_SIM_FABRIC_HH
