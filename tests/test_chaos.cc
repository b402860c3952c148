/**
 * Chaos-hardening tests: NetFaultPlan grammar, the deterministic
 * network fault injector (drop/corrupt/truncate/delay/partition with
 * handshake exemption and replayable schedules), lease-epoch fencing
 * of stale results at the coordinator, straggler hedging in the
 * LeaseQueue, and an in-process end-to-end sweep that stays
 * cell-identical to the thread-pool engine while frames are being
 * corrupted and delayed underneath it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
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
#include "workloads/suites.hh"

using namespace svr;

namespace
{

using RecvStatus = WireConn::RecvStatus;

/** Arms a fault plan for one test scope, always disarming on exit. */
struct ChaosGuard
{
    explicit ChaosGuard(const NetFaultPlan &plan) { armNetFaults(plan); }
    ~ChaosGuard() { disarmNetFaults(); }
    ChaosGuard(const ChaosGuard &) = delete;
    ChaosGuard &operator=(const ChaosGuard &) = delete;
};

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
    return "/tmp/.svrsim-chaos-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

} // namespace

// ------------------------------------------------------------------ //
// NetFaultPlan grammar                                               //
// ------------------------------------------------------------------ //

TEST(NetFaultPlan, ParsesTheFullGrammar)
{
    const NetFaultPlan p = FaultPlan::parse(
        "seed=9;drop=0.25;corrupt=0.5;trunc=0.125;delay=1/250;"
        "part=100+200,400+50;after=3").net();
    EXPECT_EQ(p.seed, 9u);
    EXPECT_DOUBLE_EQ(p.dropP, 0.25);
    EXPECT_DOUBLE_EQ(p.corruptP, 0.5);
    EXPECT_DOUBLE_EQ(p.truncP, 0.125);
    EXPECT_DOUBLE_EQ(p.delayP, 1.0);
    EXPECT_EQ(p.delayMs, 250);
    ASSERT_EQ(p.partitions.size(), 2u);
    EXPECT_EQ(p.partitions[0].startMs, 100u);
    EXPECT_EQ(p.partitions[0].durMs, 200u);
    EXPECT_EQ(p.partitions[1].startMs, 400u);
    EXPECT_EQ(p.partitions[1].durMs, 50u);
    EXPECT_EQ(p.skipFirst, 3u);
    EXPECT_TRUE(p.enabled());
}

TEST(NetFaultPlan, DefaultAndSeedOnlyPlansAreDisabled)
{
    EXPECT_FALSE(NetFaultPlan{}.enabled());
    EXPECT_FALSE(FaultPlan::parse("seed=123").net().enabled());
    EXPECT_TRUE(FaultPlan::parse("drop=0.01").net().enabled());
    EXPECT_TRUE(FaultPlan::parse("part=0+100").net().enabled());
}

TEST(NetFaultPlan, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"bogus=1", "drop=", "drop=x", "drop=1.5", "drop=-0.1",
          "corrupt=2", "delay=0.5", "delay=0.5/", "delay=0.5/-3",
          "part=100", "part=+5", "part=a+b", "after=x", "seed="}) {
        EXPECT_THROW(FaultPlan::parse(bad), SimError) << bad;
    }
}

TEST(NetFaultPlan, FromEnvFollowsTheEnvironment)
{
    ::unsetenv("SVRSIM_FAULT");
    EXPECT_FALSE(FaultPlan::fromEnv().net().enabled());

    ::setenv("SVRSIM_FAULT", "seed=4;drop=0.125", 1);
    const NetFaultPlan p = FaultPlan::fromEnv().net();
    ::unsetenv("SVRSIM_FAULT");
    EXPECT_EQ(p.seed, 4u);
    EXPECT_DOUBLE_EQ(p.dropP, 0.125);
    EXPECT_TRUE(p.enabled());
}

// ------------------------------------------------------------------ //
// Fault injector                                                     //
// ------------------------------------------------------------------ //

TEST(NetFaultInjector, DropsAreSilentAndReplayDeterministically)
{
    NetFaultPlan plan;
    plan.seed = 42;
    plan.dropP = 0.5;

    // Same plan, same connection order, same frame sequence => the
    // exact same frames must be dropped on every replay.
    std::vector<std::set<std::string>> arrived(2);
    std::vector<std::uint64_t> dropCount(2);
    for (int round = 0; round < 2; round++) {
        ChaosGuard chaos(plan); // re-arming resets the schedule
        ConnPair p;
        for (int i = 0; i < 20; i++)
            p.a.send("frame-" + std::to_string(i));
        p.a.close();
        std::string msg;
        while (p.b.recv(msg, 2000) == RecvStatus::Ok)
            arrived[round].insert(msg);
        dropCount[round] = netFaultCounters().drops;
    }
    EXPECT_EQ(arrived[0], arrived[1]);
    EXPECT_EQ(dropCount[0], dropCount[1]);
    EXPECT_EQ(arrived[0].size() + dropCount[0], 20u);
    // A plan with drop=0.5 over 20 frames that drops none or all is
    // astronomically unlikely; treat either as a broken RNG.
    EXPECT_GT(dropCount[0], 0u);
    EXPECT_LT(dropCount[0], 20u);
    EXPECT_EQ(netFaultCounters().total(), 0u) << "disarm left state";
}

TEST(NetFaultInjector, CorruptedFramesAreRejectedByTheReceiver)
{
    NetFaultPlan plan;
    plan.seed = 7;
    plan.corruptP = 1.0;
    ChaosGuard chaos(plan);

    ConnPair p;
    p.a.send("RESULT 1 2 payload");
    std::string msg;
    EXPECT_THROW(p.b.recv(msg, 2000), SimError);
    EXPECT_EQ(netFaultCounters().corruptions, 1u);
}

TEST(NetFaultInjector, TruncationTearsTheFrameAndClosesTheSocket)
{
    NetFaultPlan plan;
    plan.seed = 7;
    plan.truncP = 1.0;
    ChaosGuard chaos(plan);

    ConnPair p;
    p.a.send("a frame that will be torn in half");
    std::string msg;
    EXPECT_THROW(p.b.recv(msg, 2000), SimError);
    EXPECT_EQ(netFaultCounters().truncations, 1u);
    EXPECT_FALSE(p.a.valid()) << "truncation must close the sender";
}

TEST(NetFaultInjector, DelayStallsTheSendAndCounts)
{
    NetFaultPlan plan;
    plan.seed = 7;
    plan.delayP = 1.0;
    plan.delayMs = 40;
    ChaosGuard chaos(plan);

    ConnPair p;
    const auto start = std::chrono::steady_clock::now();
    p.a.send("slow frame");
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed, 40);
    EXPECT_EQ(netFaultCounters().delays, 1u);
    std::string msg;
    ASSERT_EQ(p.b.recv(msg, 2000), RecvStatus::Ok);
    EXPECT_EQ(msg, "slow frame");
}

TEST(NetFaultInjector, PartitionWindowFailsSendsHard)
{
    NetFaultPlan plan;
    plan.seed = 7;
    plan.partitions.push_back({0, 60000});
    ChaosGuard chaos(plan);

    ConnPair p;
    EXPECT_THROW(p.a.send("into the void"), SimError);
    EXPECT_GE(netFaultCounters().partitionHits, 1u);
    EXPECT_FALSE(p.a.valid()) << "partition must drop the connection";
}

TEST(NetFaultInjector, HandshakeExemptionCoversEveryFaultKind)
{
    // after=N must let the first N frames of a connection through even
    // inside a partition window — that is what lets a reconnecting
    // worker complete its handshake instead of dying on arrival.
    NetFaultPlan plan;
    plan.seed = 7;
    plan.dropP = 1.0;
    plan.partitions.push_back({0, 60000});
    plan.skipFirst = 2;
    ChaosGuard chaos(plan);

    ConnPair p;
    p.a.send("HELLO 2 1");
    p.a.send("LEASE?");
    std::string msg;
    ASSERT_EQ(p.b.recv(msg, 2000), RecvStatus::Ok);
    EXPECT_EQ(msg, "HELLO 2 1");
    ASSERT_EQ(p.b.recv(msg, 2000), RecvStatus::Ok);
    EXPECT_EQ(msg, "LEASE?");
    EXPECT_THROW(p.a.send("RESULT 1 0 x"), SimError)
        << "third frame must hit the partition";
}

// ------------------------------------------------------------------ //
// LeaseQueue: epochs, fencing, hedging                               //
// ------------------------------------------------------------------ //

TEST(LeaseChaos, EpochBaseFencesLeasesAcrossIncarnations)
{
    const std::uint64_t epoch1 = 1ull << 32;
    const std::uint64_t epoch2 = 2ull << 32;
    LeaseQueue q1(4, 2, 3, {}, epoch1);
    std::vector<std::size_t> cells;
    const std::uint64_t lease = q1.take(cells);
    ASSERT_NE(lease, 0u);
    EXPECT_GT(lease, epoch1);
    EXPECT_TRUE(q1.leaseActive(lease));

    // A restarted coordinator seeds a different epoch: the old lease
    // id can never collide with, nor validate against, the new queue.
    LeaseQueue q2(4, 2, 3, {}, epoch2);
    std::vector<std::size_t> cells2;
    const std::uint64_t lease2 = q2.take(cells2);
    EXPECT_FALSE(q2.leaseActive(lease));
    EXPECT_TRUE(q2.leaseActive(lease2));
    EXPECT_NE(lease, lease2);
}

TEST(LeaseChaos, LeaseActiveTracksTheLifecycle)
{
    LeaseQueue q(4, 2, 3);
    std::vector<std::size_t> cells, poisoned;

    const std::uint64_t l1 = q.take(cells);
    EXPECT_TRUE(q.leaseActive(l1));
    for (std::size_t idx : cells)
        EXPECT_TRUE(q.complete(idx));
    q.release(l1);
    EXPECT_FALSE(q.leaseActive(l1));

    const std::uint64_t l2 = q.take(cells);
    EXPECT_NE(l1, l2) << "lease ids are never reused";
    EXPECT_TRUE(q.leaseActive(l2));
    q.reclaim(l2, poisoned);
    EXPECT_FALSE(q.leaseActive(l2));
}

TEST(LeaseChaos, HedgeRedundantlyLeasesOverdueCells)
{
    LeaseQueue q(2, 2, 3);
    std::vector<std::size_t> cells, hedged, poisoned;
    const std::uint64_t slow = q.take(cells, /*now_ms=*/0);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(q.take(hedged, 0), 0u) << "no cells left to lease";

    // Not overdue yet: nothing to hedge.
    EXPECT_EQ(q.hedge(hedged, 1000, 5000), 0u);

    // Overdue: the same cells go out again under a fresh lease while
    // the original stays live (first result wins, the other is a
    // duplicate complete).
    const std::uint64_t twin = q.hedge(hedged, 10000, 5000);
    ASSERT_NE(twin, 0u);
    std::sort(hedged.begin(), hedged.end());
    std::vector<std::size_t> sorted = cells;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(hedged, sorted);
    EXPECT_TRUE(q.leaseActive(slow));
    EXPECT_TRUE(q.leaseActive(twin));

    // Both the victim and its twin are marked hedged: no cascades.
    EXPECT_EQ(q.hedge(hedged, 20000, 5000), 0u);

    // The twin finishes; reclaiming the slow lease must not requeue
    // cells its twin already completed.
    for (std::size_t idx : cells)
        EXPECT_TRUE(q.complete(idx));
    q.release(twin);
    EXPECT_EQ(q.reclaim(slow, poisoned), 0u);
    EXPECT_TRUE(poisoned.empty());
    EXPECT_TRUE(q.allDone());
}

// ------------------------------------------------------------------ //
// Coordinator fencing (stale results rejected on the wire)           //
// ------------------------------------------------------------------ //

namespace
{

/** Minimal sweep fixture mirroring test_fabric's E2E harness. */
struct ChaosE2E
{
    std::vector<WorkloadSpec> workloads = suiteByName("quick");
    std::vector<SimConfig> configs;
    SweepSpec spec;

    ChaosE2E()
    {
        SimConfig c = presets::byName("ino");
        c.maxInstructions = 4000;
        configs.push_back(c);
        spec.key = {"quick", "ino", 4000, 0x5eed5eed5eed5eedULL, ""};
        spec.keepGoing = false;
        spec.retries = 1;
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
};

} // namespace

TEST(FabricFencing, StaleLeaseResultsAreRejectedWithStale)
{
    ChaosE2E e;
    FabricOptions fopts;
    fopts.listen = "unix:" + testSocketPath("fence");
    fopts.spawnWorkers = 0;
    fopts.progress = false;
    fopts.hedgeMs = -1; // keep the lease bookkeeping single-cause

    // A zombie client takes a lease, drops off the network, then
    // tries to deliver a result under the now-reclaimed lease. The
    // coordinator must answer STALE and discard the payload; a real
    // worker then completes the sweep. The worker is held back until
    // the fencing exchange is over, so the sweep cannot finish (and
    // tear the endpoint down) underneath the zombie.
    std::atomic<bool> fencingDone{false};
    std::thread zombie([&] {
        WireConn c =
            wireConnect(WireAddr::parse(fopts.listen), 10000);
        c.send("HELLO " + std::to_string(fabricProtocolVersion) + " 1");
        std::string reply;
        ASSERT_EQ(c.recv(reply, 10000), RecvStatus::Ok);
        ASSERT_EQ(reply.rfind("WELCOME", 0), 0u) << reply;

        c.send("LEASE?");
        ASSERT_EQ(c.recv(reply, 10000), RecvStatus::Ok);
        ASSERT_EQ(reply.rfind("LEASE ", 0), 0u) << reply;
        std::istringstream is(reply);
        std::string verb;
        std::uint64_t lease = 0, count = 0, idx = 0;
        is >> verb >> lease >> count >> idx;
        ASSERT_NE(lease, 0u);

        // Vanish mid-lease; the coordinator reclaims on the EOF.
        c.close();

        // Come back as a fresh connection and replay the old lease.
        // Retry until the server thread has processed the EOF — until
        // then the lease is still live and the garbage payload is
        // merely logged (never parsed into a result).
        WireConn c2 =
            wireConnect(WireAddr::parse(fopts.listen), 10000);
        c2.send("HELLO " + std::to_string(fabricProtocolVersion) +
                " 1");
        ASSERT_EQ(c2.recv(reply, 10000), RecvStatus::Ok);
        ASSERT_EQ(reply.rfind("WELCOME", 0), 0u) << reply;
        bool fenced = false;
        for (int attempt = 0; attempt < 100 && !fenced; attempt++) {
            c2.send("RESULT " + std::to_string(lease) + " " +
                    std::to_string(idx) + " not-a-journal-line");
            ASSERT_EQ(c2.recv(reply, 10000), RecvStatus::Ok);
            if (reply == "STALE")
                fenced = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        }
        EXPECT_TRUE(fenced) << "stale result was never fenced";
        fencingDone = true;
    });

    std::thread worker([&] {
        while (!fencingDone)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        WorkerOptions w;
        w.connect = fopts.listen;
        EXPECT_EQ(runFabricWorker(w), 0);
    });

    const std::vector<SimResult> fab = runFabricSweep(
        e.workloads, e.configs, e.spec, fopts, {}, nullptr, nullptr);
    zombie.join();
    worker.join();

    // The sweep is whole and correct: the fenced garbage never made
    // it into the results.
    const std::vector<SimResult> ref = e.reference();
    ASSERT_EQ(fab.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_EQ(journalLine(fab[i]), journalLine(ref[i])) << i;
}

// ------------------------------------------------------------------ //
// End to end under chaos                                             //
// ------------------------------------------------------------------ //

TEST(FabricChaosEndToEnd, SurvivesCorruptionAndDelayByteIdentically)
{
    // Frames are corrupted (CRC-rejected, connections drop and
    // reconnect) and jittered while two workers run a real sweep;
    // the cell results must still match the thread engine exactly.
    // Drops are excluded here: a silently lost reply stalls a worker
    // for its full reply timeout, which is E2E-script territory
    // (tools/chaos_sweep_test.sh), not unit-test territory.
    NetFaultPlan plan;
    plan.seed = 3;
    plan.corruptP = 0.04;
    plan.delayP = 0.25;
    plan.delayMs = 3;
    plan.skipFirst = 6;

    ChaosE2E e;
    e.spec.retries = 5; // reconnect-induced reclaims must not poison

    FabricOptions fopts;
    fopts.listen = "unix:" + testSocketPath("chaos-e2e");
    fopts.spawnWorkers = 0;
    fopts.progress = false;
    fopts.leaseTimeoutMs = 8000;
    fopts.heartbeatMs = 500;
    fopts.maxCellAttempts = 8;

    ChaosGuard chaos(plan);
    const unsigned numWorkers = 2;
    std::vector<std::thread> workers;
    std::vector<int> rcs(numWorkers, -1);
    for (unsigned i = 0; i < numWorkers; i++) {
        workers.emplace_back([&, i] {
            WorkerOptions w;
            w.connect = fopts.listen;
            w.jobs = 1;
            w.heartbeatMs = 500;
            w.reconnectMs = 20000;
            rcs[i] = runFabricWorker(w);
        });
    }
    std::vector<SimResult> fab;
    try {
        fab = runFabricSweep(e.workloads, e.configs, e.spec, fopts, {},
                             nullptr, nullptr);
    } catch (...) {
        for (auto &w : workers)
            w.join();
        throw;
    }
    for (auto &w : workers)
        w.join();
    for (unsigned i = 0; i < numWorkers; i++) {
        // 0 = saw FIN; 2 = gave up reconnecting after the sweep ended
        // under it. Both are sane exits under injected faults.
        EXPECT_TRUE(rcs[i] == 0 || rcs[i] == 2) << "worker " << i
                                                << " rc " << rcs[i];
    }

    const std::vector<SimResult> ref = e.reference();
    ASSERT_EQ(fab.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++)
        EXPECT_EQ(journalLine(fab[i]), journalLine(ref[i])) << i;
}
