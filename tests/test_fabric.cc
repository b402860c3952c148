/**
 * Distributed sweep fabric tests: wire framing over socketpairs and
 * real listeners (unix + tcp loopback), SweepSpec round trips,
 * LeaseQueue policy (chunking, reclaim, poisoning, restored cells),
 * one build per row of a lease, and in-process coordinator/worker
 * end-to-end runs checked cell-for-cell against the thread-pool
 * engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/wire.hh"
#include "sim/experiment.hh"
#include "sim/fabric.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

using RecvStatus = WireConn::RecvStatus;

/** A connected socketpair wrapped as two WireConns. */
struct ConnPair
{
    WireConn a, b;

    ConnPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = WireConn(fds[0]);
        b = WireConn(fds[1]);
    }
};

std::string
testSocketPath(const char *tag)
{
    return "/tmp/.svrsim-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

/** Raw 8-byte wire header (4B LE length + 4B LE CRC32). */
std::string
rawHeader(std::uint32_t len, std::uint32_t crc)
{
    std::string hdr(8, '\0');
    for (int i = 0; i < 4; i++) {
        hdr[i] = static_cast<char>((len >> (8 * i)) & 0xff);
        hdr[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    return hdr;
}

void
writeRaw(const WireConn &c, const std::string &bytes)
{
    ASSERT_EQ(::write(c.fd(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

} // namespace

// ------------------------------------------------------------------ //
// WireAddr                                                           //
// ------------------------------------------------------------------ //

TEST(WireAddr, ParsesUnixAndTcpSpecs)
{
    const WireAddr u = WireAddr::parse("unix:/tmp/x.sock");
    EXPECT_TRUE(u.isUnix);
    EXPECT_EQ(u.path, "/tmp/x.sock");
    EXPECT_EQ(u.str(), "unix:/tmp/x.sock");

    const WireAddr t = WireAddr::parse("tcp:127.0.0.1:7707");
    EXPECT_FALSE(t.isUnix);
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 7707);
    EXPECT_EQ(t.str(), "tcp:127.0.0.1:7707");
}

TEST(WireAddr, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "unix:", "tcp:", "tcp:host", "tcp::123", "tcp:h:notaport",
          "tcp:h:70000", "http:x", "/plain/path"}) {
        EXPECT_THROW(WireAddr::parse(bad), SimError) << bad;
    }
}

// ------------------------------------------------------------------ //
// Framing                                                            //
// ------------------------------------------------------------------ //

TEST(WireFraming, RoundTripsFramesInOrder)
{
    ConnPair p;
    p.a.send("HELLO 1 4");
    p.a.send("");
    const std::string big(100000, 'x');
    p.a.send(big);

    std::string msg;
    ASSERT_EQ(p.b.recv(msg, 1000), RecvStatus::Ok);
    EXPECT_EQ(msg, "HELLO 1 4");
    ASSERT_EQ(p.b.recv(msg, 1000), RecvStatus::Ok);
    EXPECT_EQ(msg, "");
    ASSERT_EQ(p.b.recv(msg, 1000), RecvStatus::Ok);
    EXPECT_EQ(msg, big);
}

TEST(WireFraming, CleanCloseIsEofTornFrameThrows)
{
    {
        ConnPair p;
        p.a.send("last");
        p.a.close();
        std::string msg;
        ASSERT_EQ(p.b.recv(msg, 1000), RecvStatus::Ok);
        EXPECT_EQ(msg, "last");
        EXPECT_EQ(p.b.recv(msg, 1000), RecvStatus::Eof);
    }
    {
        ConnPair p;
        // Header promising 100 bytes, then close with none sent.
        writeRaw(p.a, rawHeader(100, 0));
        p.a.close();
        std::string msg;
        EXPECT_THROW(p.b.recv(msg, 1000), SimError);
    }
}

TEST(WireFraming, TimesOutWithoutDataAndRejectsOversizeFrames)
{
    ConnPair p;
    std::string msg;
    EXPECT_EQ(p.b.recv(msg, 50), RecvStatus::Timeout);

    // A length prefix beyond maxFramePayload is protocol corruption.
    writeRaw(p.a, rawHeader(maxFramePayload + 1, 0));
    EXPECT_THROW(p.b.recv(msg, 1000), SimError);
}

TEST(WireFraming, ZeroLengthPayloadCarriesAValidCrc)
{
    // A hand-built empty frame with the right CRC parses; the same
    // frame with a wrong CRC is rejected, not treated as empty.
    {
        ConnPair p;
        writeRaw(p.a, rawHeader(0, wireCrc32("")));
        std::string msg = "sentinel";
        ASSERT_EQ(p.b.recv(msg, 1000), RecvStatus::Ok);
        EXPECT_EQ(msg, "");
    }
    {
        ConnPair p;
        writeRaw(p.a, rawHeader(0, wireCrc32("") ^ 1u));
        std::string msg;
        EXPECT_THROW(p.b.recv(msg, 1000), SimError);
    }
}

TEST(WireFraming, ExactlyMaxPayloadRoundTrips)
{
    // The 1 MiB boundary is legal; it exceeds any socket buffer, so
    // the sender must run concurrently with the receiver.
    ConnPair p;
    std::string big(maxFramePayload, 'm');
    big[0] = 'a';
    big[maxFramePayload - 1] = 'z';
    std::thread sender([&] { p.a.send(big); });
    std::string msg;
    EXPECT_EQ(p.b.recv(msg, 10000), RecvStatus::Ok);
    sender.join();
    EXPECT_EQ(msg, big);
}

TEST(WireFraming, DeadlineExpiryMidFrameThrows)
{
    {
        // Half a header, then silence: the deadline passes mid-frame,
        // which is a hard error, not a clean Timeout status.
        ConnPair p;
        writeRaw(p.a, rawHeader(4, 0).substr(0, 4));
        std::string msg;
        EXPECT_THROW(p.b.recv(msg, 100), SimError);
    }
    {
        // Whole header promising bytes that never come.
        ConnPair p;
        writeRaw(p.a, rawHeader(64, wireCrc32("x")));
        std::string msg;
        EXPECT_THROW(p.b.recv(msg, 100), SimError);
    }
}

TEST(WireFraming, ChecksumCorruptFrameIsRejected)
{
    // A full frame whose payload was flipped in flight must throw,
    // never be delivered.
    ConnPair p;
    const std::string payload = "RESULT 7 3 tampered";
    std::string tampered = payload;
    tampered[0] ^= 0x20;
    writeRaw(p.a, rawHeader(static_cast<std::uint32_t>(payload.size()),
                            wireCrc32(payload)) +
                      tampered);
    std::string msg;
    EXPECT_THROW(p.b.recv(msg, 1000), SimError);

    // CRC values are the standard IEEE ones, pinned so both ends of a
    // mixed-version fabric agree.
    EXPECT_EQ(wireCrc32(""), 0u);
    EXPECT_EQ(wireCrc32("123456789"), 0xCBF43926u);
}

TEST(WireListener, AcceptTimesOutThenDeliversUnixConnection)
{
    const std::string path = testSocketPath("listen");
    WireListener listener(WireAddr::parse("unix:" + path));
    EXPECT_FALSE(listener.accept(50).valid());

    WireConn client = wireConnect(listener.addr(), 2000);
    WireConn server = listener.accept(2000);
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(server.valid());
    client.send("ping");
    std::string msg;
    ASSERT_EQ(server.recv(msg, 1000), RecvStatus::Ok);
    EXPECT_EQ(msg, "ping");
}

TEST(WireListener, TcpEphemeralPortIsReportedAndConnectable)
{
    WireListener listener(WireAddr::parse("tcp:127.0.0.1:0"));
    ASSERT_NE(listener.addr().port, 0);

    WireConn client = wireConnect(listener.addr(), 2000);
    WireConn server = listener.accept(2000);
    ASSERT_TRUE(server.valid());
    server.send("hi");
    std::string msg;
    ASSERT_EQ(client.recv(msg, 1000), RecvStatus::Ok);
    EXPECT_EQ(msg, "hi");
}

TEST(WireConnect, FailsAfterDeadlineWhenNobodyListens)
{
    const WireAddr addr =
        WireAddr::parse("unix:" + testSocketPath("nobody"));
    EXPECT_THROW(wireConnect(addr, 100), SimError);
}

// ------------------------------------------------------------------ //
// SweepSpec                                                          //
// ------------------------------------------------------------------ //

TEST(SweepSpec, EncodeDecodeRoundTrip)
{
    SweepSpec s;
    s.key = {"quick", "ino,svr16", 123456, 0xdeadbeefULL,
             "1000000/40000/20000"};
    s.keepGoing = true;
    s.retries = 4;

    SweepSpec d;
    ASSERT_TRUE(SweepSpec::decode(s.encode(), d));
    EXPECT_TRUE(d.key == s.key);
    EXPECT_EQ(d.keepGoing, s.keepGoing);
    EXPECT_EQ(d.retries, s.retries);

    // Empty sampling survives too (escaped as "-").
    s.key.sampling.clear();
    s.keepGoing = false;
    ASSERT_TRUE(SweepSpec::decode(s.encode(), d));
    EXPECT_TRUE(d.key == s.key);
    EXPECT_FALSE(d.keepGoing);
}

TEST(SweepSpec, DecodeRejectsMalformedText)
{
    SweepSpec d;
    EXPECT_FALSE(SweepSpec::decode("", d));
    EXPECT_FALSE(SweepSpec::decode("quick ino", d));
    EXPECT_FALSE(SweepSpec::decode("quick ino notanum 7 - 0 1", d));
    // retries == 0 can never simulate a cell.
    EXPECT_FALSE(SweepSpec::decode("quick ino 1000 7 - 0 0", d));
}

TEST(SweepSpec, MaterializeRebuildsTheMatrixAndRejectsUnknownNames)
{
    SweepSpec s;
    s.key = {"quick", "ino,svr16", 5000, 1, ""};

    std::vector<WorkloadSpec> w;
    std::vector<SimConfig> c;
    s.materialize(w, c);
    EXPECT_EQ(w.size(), suiteByName("quick").size());
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].label, "InO");
    EXPECT_EQ(c[1].label, "SVR16");
    EXPECT_EQ(c[0].maxInstructions, 5000u);

    s.key.suite = "nosuchsuite";
    EXPECT_THROW(s.materialize(w, c), SimError);
    s.key.suite = "quick";
    s.key.configs = "nosuchconfig";
    EXPECT_THROW(s.materialize(w, c), SimError);
}

// ------------------------------------------------------------------ //
// LeaseQueue                                                         //
// ------------------------------------------------------------------ //

TEST(LeaseQueue, LeasesEveryCellOnceThenCompletes)
{
    LeaseQueue q(10, 3, 2);
    std::vector<std::size_t> seen;
    std::vector<std::size_t> cells;
    std::vector<std::uint64_t> leases;
    while (std::uint64_t id = q.take(cells)) {
        leases.push_back(id);
        seen.insert(seen.end(), cells.begin(), cells.end());
        EXPECT_LE(cells.size(), 3u);
    }
    // All 10 cells leased exactly once: 3+3+3+1.
    ASSERT_EQ(seen.size(), 10u);
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < 10; i++)
        EXPECT_EQ(seen[i], i);
    EXPECT_FALSE(q.allDone());

    for (std::size_t i = 0; i < 10; i++)
        EXPECT_TRUE(q.complete(i));
    EXPECT_TRUE(q.allDone());
    EXPECT_EQ(q.completedCells(), 10u);
    // Completing again is a duplicate.
    EXPECT_FALSE(q.complete(0));
    for (std::uint64_t id : leases)
        q.release(id);
}

TEST(LeaseQueue, AlreadyDoneCellsAreNeverLeased)
{
    LeaseQueue q(6, 8, 2, {1, 3, 5});
    EXPECT_EQ(q.completedCells(), 3u);
    std::vector<std::size_t> cells;
    ASSERT_NE(q.take(cells), 0u);
    std::sort(cells.begin(), cells.end());
    EXPECT_EQ(cells, (std::vector<std::size_t>{0, 2, 4}));
    EXPECT_EQ(q.take(cells), 0u);
}

TEST(LeaseQueue, ReclaimRequeuesThenPoisonsAtMaxAttempts)
{
    LeaseQueue q(2, 8, 2);
    std::vector<std::size_t> cells, poisoned;

    const std::uint64_t first = q.take(cells);
    ASSERT_EQ(cells.size(), 2u);
    // Worker died: both cells go back (attempt 1 of 2 charged).
    EXPECT_EQ(q.reclaim(first, poisoned), 2u);
    EXPECT_TRUE(poisoned.empty());

    const std::uint64_t second = q.take(cells);
    ASSERT_EQ(cells.size(), 2u);
    // One cell completed before the second worker died: only the
    // other is at its limit and becomes poisoned.
    EXPECT_TRUE(q.complete(cells[0]));
    EXPECT_EQ(q.reclaim(second, poisoned), 0u);
    ASSERT_EQ(poisoned.size(), 1u);
    EXPECT_EQ(poisoned[0], cells[1]);
    EXPECT_EQ(q.poisonedCells(), 1u);
    EXPECT_TRUE(q.allDone());
}

TEST(LeaseQueue, LateResultAfterReclaimStillCounts)
{
    LeaseQueue q(1, 1, 3);
    std::vector<std::size_t> cells, poisoned;
    const std::uint64_t lease = q.take(cells);
    ASSERT_EQ(cells.size(), 1u);

    // Presumed-dead worker's result arrives after the reclaim: the
    // completion wins and the requeued copy must not be leased again.
    EXPECT_EQ(q.reclaim(lease, poisoned), 1u);
    EXPECT_TRUE(q.complete(cells[0]));
    EXPECT_TRUE(q.allDone());
    EXPECT_EQ(q.take(cells), 0u);
}

// ------------------------------------------------------------------ //
// End to end (in-process coordinator + worker clients)               //
// ------------------------------------------------------------------ //

namespace
{

/**
 * Reference + fabric run over the quick suite (ino unless @p names
 * says otherwise); compare via journal lines.
 */
struct E2E
{
    std::vector<WorkloadSpec> workloads = suiteByName("quick");
    std::vector<SimConfig> configs;
    SweepSpec spec;
    unsigned chunk = 0; //!< cells per lease; 0 = auto

    explicit E2E(const std::string &names = "ino")
    {
        spec.key = {"quick", names, 4000, 0x5eed5eed5eed5eedULL, ""};
        spec.keepGoing = false;
        spec.retries = 1;
        std::vector<WorkloadSpec> unused;
        spec.materialize(unused, configs);
    }

    std::vector<SimResult>
    reference() const
    {
        MatrixOptions opts;
        opts.jobs = 1;
        opts.progress = false;
        opts.summary = false;
        return flattenMatrix(runMatrix(workloads, configs, opts));
    }

    std::vector<SimResult>
    fabric(unsigned num_workers, const JournalCells &restored,
           const char *tag, MatrixTiming *timing = nullptr) const
    {
        FabricOptions fopts;
        fopts.listen = "unix:" + testSocketPath(tag);
        fopts.spawnWorkers = 0; // workers are in-process threads
        fopts.progress = false;
        fopts.chunk = chunk;

        std::vector<std::thread> workers;
        std::vector<int> rcs(num_workers, -1);
        for (unsigned i = 0; i < num_workers; i++) {
            workers.emplace_back([&, i] {
                WorkerOptions w;
                w.connect = fopts.listen;
                w.jobs = 1;
                rcs[i] = runFabricWorker(w);
            });
        }
        std::vector<SimResult> results;
        try {
            results = runFabricSweep(workloads, configs, spec, fopts,
                                     restored, nullptr, timing);
        } catch (...) {
            for (auto &w : workers)
                w.join();
            throw;
        }
        for (auto &w : workers)
            w.join();
        for (unsigned i = 0; i < num_workers; i++)
            EXPECT_EQ(rcs[i], 0) << "worker " << i;
        return results;
    }
};

} // namespace

TEST(FabricEndToEnd, MatchesThreadEngineCellForCell)
{
    E2E e;
    const std::vector<SimResult> ref = e.reference();
    MatrixTiming timing;
    const std::vector<SimResult> fab =
        e.fabric(2, {}, "e2e", &timing);

    ASSERT_EQ(fab.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_EQ(journalLine(fab[i]), journalLine(ref[i])) << i;
    EXPECT_EQ(timing.cells, ref.size());
    EXPECT_EQ(timing.jobs, 2u);
    EXPECT_EQ(timing.failedCells, 0u);
}

TEST(FabricEndToEnd, LeasesSpanningRowsMatchThreadEngine)
{
    // Leases of 3 cells over 2 configs: each lease holds a whole row
    // and part of another, whose cells then share one build.
    E2E e("ino,svr16");
    e.chunk = 3;
    const std::vector<SimResult> ref = e.reference();
    const std::vector<SimResult> fab = e.fabric(2, {}, "rows");
    ASSERT_EQ(fab.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_EQ(journalLine(fab[i]), journalLine(ref[i])) << i;
}

TEST(FabricEndToEnd, SampledLeasesSplittingRowsMatchThreadEngine)
{
    // A lease's sampled cells of one row run window-major as one
    // unit; a lease that holds part of a row fast-forwards for that
    // part on its own (chunk 1 always, chunk 3 for every other row).
    // The artifact is the same either way.
    for (const unsigned chunk : {1u, 3u}) {
        E2E e("ino,svr16");
        SamplingParams sp;
        sp.sampleEvery = 1000;
        sp.sampleWindow = 200;
        sp.warmup = 100;
        e.spec.setSampling(sp);
        std::vector<WorkloadSpec> unused;
        e.spec.materialize(unused, e.configs);
        ASSERT_TRUE(e.configs[0].sampling.enabled());
        e.chunk = chunk;
        const std::vector<SimResult> ref = e.reference();
        const std::string tag = "sampled" + std::to_string(chunk);
        const std::vector<SimResult> fab = e.fabric(2, {}, tag.c_str());
        EXPECT_EQ(toJson(fab), toJson(ref)) << "chunk " << chunk;
    }
}

TEST(FabricLease, BuildsEachRowOfALeaseOnce)
{
    // A worker runs a lease's cells through CellRows; a lease of
    // chunk >= 2 cells builds once per row it touches.
    std::vector<std::atomic<unsigned>> calls(3);
    std::vector<WorkloadSpec> workloads = suiteByName("quick");
    workloads.resize(calls.size());
    for (std::size_t i = 0; i < workloads.size(); i++) {
        workloads[i].make = [make = workloads[i].make, &n = calls[i]] {
            n++;
            return make();
        };
    }
    E2E e("ino,svr16");
    MatrixOptions mopts;
    mopts.progress = false;
    LeaseQueue q(workloads.size() * e.configs.size(), /*chunk=*/4, 1);
    std::vector<std::size_t> cells;
    std::size_t leased = 0, rows_touched = 0;
    while (q.take(cells)) {
        ASSERT_GE(cells.size(), 2u);
        CellRows rows(workloads, e.configs, mopts, cells);
        std::vector<std::size_t> touched;
        for (std::size_t u = 0; u < rows.numUnits(); u++) {
            rows.run(u, [&](std::size_t idx, const SimResult &res, double) {
                EXPECT_FALSE(res.failed);
                touched.push_back(idx / e.configs.size());
            });
        }
        std::sort(touched.begin(), touched.end());
        rows_touched += static_cast<std::size_t>(
            std::unique(touched.begin(), touched.end()) - touched.begin());
        leased += cells.size();
    }
    EXPECT_EQ(leased, 6u);
    const std::size_t builds =
        calls[0].load() + calls[1].load() + calls[2].load();
    EXPECT_EQ(builds, rows_touched);
    EXPECT_LT(builds, leased);
}

TEST(FabricLease, AutoSizedLeasesHoldWholeRows)
{
    // A 5-config sweep with auto-sized leases, served to a worker that
    // records every lease and answers with the reference results: each
    // lease is a run of whole rows, so a sampled row fast-forwards once.
    E2E e("ino,imp,ooo,svr16,svr64");
    const std::vector<SimResult> ref = e.reference();
    const std::size_t num_configs = e.configs.size();
    FabricOptions fopts;
    fopts.listen = "unix:" + testSocketPath("rows");
    fopts.progress = false;

    std::vector<std::vector<std::size_t>> leases;
    std::thread worker([&] {
        WireConn c = wireConnect(WireAddr::parse(fopts.listen), 10000);
        std::string msg;
        c.send("HELLO " + std::to_string(fabricProtocolVersion) + " 1");
        ASSERT_EQ(c.recv(msg, 10000), RecvStatus::Ok);
        ASSERT_EQ(msg.rfind("WELCOME", 0), 0u) << msg;
        for (;;) {
            c.send("LEASE?");
            ASSERT_EQ(c.recv(msg, 10000), RecvStatus::Ok);
            TokenReader t(msg);
            const std::string verb = t.raw();
            if (verb == "FIN")
                break;
            ASSERT_EQ(verb, "LEASE") << msg;
            const std::uint64_t id = t.u64();
            leases.emplace_back(t.u64());
            for (std::size_t &idx : leases.back()) {
                idx = t.u64();
                c.send("RESULT " + std::to_string(id) + " " +
                       std::to_string(idx) + " " + journalLine(ref.at(idx)));
                ASSERT_EQ(c.recv(msg, 10000), RecvStatus::Ok);
            }
            ASSERT_TRUE(t.ok) << msg;
            c.send("DONE " + std::to_string(id));
            ASSERT_EQ(c.recv(msg, 10000), RecvStatus::Ok);
        }
    });
    const std::vector<SimResult> fab = runFabricSweep(
        e.workloads, e.configs, e.spec, fopts, {}, nullptr, nullptr);
    worker.join();
    EXPECT_EQ(toJson(fab), toJson(ref));
    ASSERT_FALSE(leases.empty());
    std::size_t leased = 0;
    for (std::vector<std::size_t> cells : leases) {
        std::sort(cells.begin(), cells.end());
        EXPECT_EQ(cells.front() % num_configs, 0u);
        EXPECT_EQ(cells.size() % num_configs, 0u);
        EXPECT_EQ(cells.back() - cells.front() + 1, cells.size());
        leased += cells.size();
    }
    EXPECT_EQ(leased, ref.size());
}

TEST(FabricEndToEnd, RestoredCellsAreNeverLeasedAndStillEmitted)
{
    E2E e;
    const std::vector<SimResult> ref = e.reference();

    // Pretend the first three cells came from a journal/shard.
    JournalCells restored;
    for (std::size_t i = 0; i < 3 && i < ref.size(); i++)
        restored[{ref[i].workload, ref[i].config}] = ref[i];

    MatrixTiming timing;
    const std::vector<SimResult> fab =
        e.fabric(1, restored, "resume", &timing);
    ASSERT_EQ(fab.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_EQ(journalLine(fab[i]), journalLine(ref[i])) << i;
    EXPECT_EQ(timing.restoredCells, 3u);
}

TEST(FabricEndToEnd, RejectsWorkersWithWrongProtocolVersion)
{
    E2E e;
    FabricOptions fopts;
    fopts.listen = "unix:" + testSocketPath("reject");
    fopts.progress = false;

    // One impostor with a bogus protocol version, then a real worker
    // that completes the sweep.
    std::thread impostor([&] {
        WireConn c = wireConnect(WireAddr::parse(fopts.listen), 10000);
        c.send("HELLO 999999 1");
        std::string reply;
        ASSERT_EQ(c.recv(reply, 10000), RecvStatus::Ok);
        EXPECT_EQ(reply.rfind("REJECT", 0), 0u) << reply;
    });
    std::thread worker([&] {
        WorkerOptions w;
        w.connect = fopts.listen;
        EXPECT_EQ(runFabricWorker(w), 0);
    });

    const std::vector<SimResult> fab = runFabricSweep(
        e.workloads, e.configs, e.spec, fopts, {}, nullptr, nullptr);
    impostor.join();
    worker.join();
    EXPECT_EQ(fab.size(), e.workloads.size() * e.configs.size());
}
