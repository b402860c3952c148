/**
 * @file
 * Correctness layer for the parallel experiment engine:
 *
 *  - parallelFor() unit tests (coverage, ordering, exception
 *    propagation, SVRSIM_JOBS parsing, reuse after failure);
 *  - RNG stream-splitting sanity (replay + decorrelation; the deep
 *    fuzz lives in test_fuzz.cc);
 *  - serial-vs-parallel SimResult equality, field by field, across
 *    the quick suite;
 *  - determinism regression: the JSON report for 1 thread and N
 *    threads must be byte-identical (failures print a field-level
 *    diff);
 *  - one build per workload row: runMatrix() calls each factory once
 *    (every cell simulates a copy-on-write fork of that build, and
 *    gets the results a fresh build gives), while a failing factory
 *    is retried and recorded exactly as with one build per cell;
 *  - window-major sampled rows: a sampled matrix, whose rows run as
 *    one unit each, gives the bytes of one-config runs for 1 and 4
 *    jobs, for programs that halt mid-region and for degenerate
 *    sampling; faults stay in their cell (a config that fails
 *    validation, an injected throw that a retry clears);
 *  - golden-stats snapshots for three representative cells, pinning
 *    IPC, cache misses, DRAM transfers, and prefetch accuracy so
 *    timing-model drift is caught in CI, not in a regenerated paper
 *    figure.
 *
 * Regenerating goldens after an *intentional* timing-model change:
 *
 *     UPDATE_GOLDEN=1 ./build/tests/svrsim_parallel_tests \
 *         --gtest_filter='GoldenStats.*'
 *
 * then paste the printed table over the `goldens[]` array below.
 *
 * This binary carries the ctest label "parallel"; run it under TSan
 * with: cmake -B build-tsan -DSVR_SANITIZE=thread && ctest -L parallel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/executor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "test_helpers.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

// ---------------------------------------------------------------------
// parallelFor (the suite keeps the name of the queued ThreadPool it
// replaced, so each case's history stays continuous)
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, 4, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; i++)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;

    bool ran = false;
    parallelFor(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, InlineModeRunsInSubmissionOrder)
{
    // jobs = 1 starts no thread: every index runs on the caller, in
    // index order — the historical serial loop.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool all_on_caller = true;
    parallelFor(64, 1, [&](std::size_t i) {
        order.push_back(i);
        all_on_caller &= std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
    EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPool, UnevenTasksAllComplete)
{
    // One long index plus many short ones: the other threads must keep
    // taking short indices instead of queueing behind the long one.
    // The long index waits for all short ones, so a static split that
    // parked some of them behind it would time out here.
    std::atomic<int> short_done{0};
    bool long_saw_all = false;
    parallelFor(101, 4, [&](std::size_t i) {
        if (i != 0) {
            short_done++;
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (short_done.load() < 100 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        long_saw_all = short_done.load() == 100;
    });
    EXPECT_TRUE(long_saw_all);
    EXPECT_EQ(short_done.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    std::atomic<int> done{0};
    EXPECT_THROW(parallelFor(17, 4,
                             [&](std::size_t i) {
                                 if (i == 0)
                                     throw std::runtime_error(
                                         "cell exploded");
                                 done++;
                             }),
                 std::runtime_error);
    // Every other index still ran, and the next call starts clean.
    EXPECT_EQ(done.load(), 16);
    done = 0;
    parallelFor(16, 4, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, InlineExceptionAlsoSurfacesAtWait)
{
    // Inline mode captures like the threaded mode: the error surfaces
    // only after the remaining indices ran.
    int done = 0;
    EXPECT_THROW(parallelFor(8, 1,
                             [&](std::size_t i) {
                                 if (i == 2)
                                     throw std::runtime_error("inline boom");
                                 done++;
                             }),
                 std::runtime_error);
    EXPECT_EQ(done, 7);
}

TEST(ThreadPool, FirstOfManyErrorsIsRethrownOthersAreCounted)
{
    // Several indices throw; exactly one exception (the first) comes
    // back and the rest are counted in a warning, never lost.
    ::testing::internal::CaptureStderr();
    try {
        parallelFor(5, 1, [](std::size_t i) {
            throw std::runtime_error("boom " + std::to_string(i));
        });
        ::testing::internal::GetCapturedStderr();
        FAIL() << "expected the first error";
    } catch (const std::runtime_error &e) {
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_STREQ(e.what(), "boom 0");
        EXPECT_NE(err.find("4 additional error(s) suppressed"),
                  std::string::npos)
            << err;
    }
    // Suppressed-error state belongs to that call alone.
    std::atomic<int> done{0};
    parallelFor(8, 4, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ThrowingJobsDoNotStarveLaterBatches)
{
    for (int round = 0; round < 3; round++) {
        std::atomic<int> ran{0};
        EXPECT_THROW(parallelFor(32, 4,
                                 [&](std::size_t i) {
                                     ran++;
                                     if (i % 7 == 0)
                                         throw std::runtime_error(
                                             "recurring failure");
                                 }),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 32);
    }
    std::atomic<int> done{0};
    parallelFor(32, 4, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, DefaultJobsHonorsEnv)
{
    ::setenv("SVRSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(resolveJobs(0), 3u);
    EXPECT_EQ(resolveJobs(5), 5u); // an explicit count wins
    ::setenv("SVRSIM_JOBS", "9999", 1); // clamped
    EXPECT_EQ(defaultJobs(), 256u);
    ::setenv("SVRSIM_JOBS", "banana", 1); // ignored with a warning
    EXPECT_GE(defaultJobs(), 1u);
    ::unsetenv("SVRSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

// ---------------------------------------------------------------------
// RNG stream splitting (sanity; fuzz coverage in test_fuzz.cc)
// ---------------------------------------------------------------------

TEST(RngStreams, SameCellReplaysIdentically)
{
    Rng a = Rng::forCell(42, "BFS_UR", "SVR16");
    Rng b = Rng::forCell(42, "BFS_UR", "SVR16");
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngStreams, DistinctCellsDiffer)
{
    Rng a = Rng::forCell(42, "BFS_UR", "SVR16");
    Rng b = Rng::forCell(42, "BFS_UR", "SVR64");
    Rng c = Rng::forCell(42, "HJ8", "SVR16");
    Rng d = Rng::forCell(43, "BFS_UR", "SVR16");
    EXPECT_NE(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    EXPECT_NE(a.next(), d.next());
}

TEST(RngStreams, SplitDoesNotPerturbParent)
{
    Rng parent(7);
    Rng witness(7);
    (void)parent.split(0);
    (void)parent.split("child");
    for (int i = 0; i < 16; i++)
        ASSERT_EQ(parent.next(), witness.next());
}

// ---------------------------------------------------------------------
// Serial vs parallel equality across the quick suite
// ---------------------------------------------------------------------

constexpr std::uint64_t kWindow = 30000;

std::vector<SimConfig>
quickConfigs()
{
    std::vector<SimConfig> cfgs = {presets::inorder(), presets::impCore(),
                                   presets::outOfOrder(),
                                   presets::svrCore(16)};
    for (auto &c : cfgs)
        c.maxInstructions = kWindow;
    return cfgs;
}

struct QuickMatrices
{
    std::vector<MatrixRow> serial;   //!< jobs = 1 (inline, historical order)
    std::vector<MatrixRow> parallel; //!< jobs = 4
};

const QuickMatrices &
quickMatrices()
{
    static const QuickMatrices qm = [] {
        QuickMatrices m;
        MatrixOptions opts;
        opts.progress = false;
        opts.summary = false;
        opts.jobs = 1;
        m.serial = runMatrix(quickSuite(), quickConfigs(), opts);
        opts.jobs = 4;
        m.parallel = runMatrix(quickSuite(), quickConfigs(), opts);
        return m;
    }();
    return qm;
}

/** Every SimResult field, compared exactly (determinism is bitwise). */
void
expectResultEqual(const SimResult &a, const SimResult &b)
{
    const std::string cell = a.workload + "/" + a.config;
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);

    EXPECT_EQ(a.core.instructions, b.core.instructions) << cell;
    EXPECT_EQ(a.core.cycles, b.core.cycles) << cell;
    EXPECT_EQ(a.core.loads, b.core.loads) << cell;
    EXPECT_EQ(a.core.stores, b.core.stores) << cell;
    EXPECT_EQ(a.core.branches, b.core.branches) << cell;
    EXPECT_EQ(a.core.branchMispredicts, b.core.branchMispredicts) << cell;
    EXPECT_EQ(a.core.transientScalars, b.core.transientScalars) << cell;
    EXPECT_EQ(a.core.svrPrefetches, b.core.svrPrefetches) << cell;
    EXPECT_EQ(a.core.svrRounds, b.core.svrRounds) << cell;
    EXPECT_EQ(a.core.stackL2, b.core.stackL2) << cell;
    EXPECT_EQ(a.core.stackDram, b.core.stackDram) << cell;
    EXPECT_EQ(a.core.stackBranch, b.core.stackBranch) << cell;
    EXPECT_EQ(a.core.stackSvu, b.core.stackSvu) << cell;
    EXPECT_EQ(a.core.stackOther, b.core.stackOther) << cell;

    EXPECT_EQ(a.l1dHits, b.l1dHits) << cell;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << cell;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << cell;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << cell;
    EXPECT_EQ(a.dramTransfers, b.dramTransfers) << cell;
    EXPECT_EQ(a.traffic.demandData, b.traffic.demandData) << cell;
    EXPECT_EQ(a.traffic.demandIfetch, b.traffic.demandIfetch) << cell;
    EXPECT_EQ(a.traffic.prefStride, b.traffic.prefStride) << cell;
    EXPECT_EQ(a.traffic.prefSvr, b.traffic.prefSvr) << cell;
    EXPECT_EQ(a.traffic.prefImp, b.traffic.prefImp) << cell;
    EXPECT_EQ(a.traffic.writebacks, b.traffic.writebacks) << cell;
    EXPECT_EQ(a.tlbWalks, b.tlbWalks) << cell;

    for (unsigned i = 0; i < 4; i++)
        EXPECT_EQ(a.prefIssued[i], b.prefIssued[i]) << cell << " origin "
                                                    << i;
    EXPECT_EQ(a.svrAccuracyLlc, b.svrAccuracyLlc) << cell;
    EXPECT_EQ(a.impAccuracyLlc, b.impAccuracyLlc) << cell;
    EXPECT_EQ(a.strideAccuracyLlc, b.strideAccuracyLlc) << cell;

    EXPECT_EQ(a.energy.coreStatic, b.energy.coreStatic) << cell;
    EXPECT_EQ(a.energy.coreDynamic, b.energy.coreDynamic) << cell;
    EXPECT_EQ(a.energy.svrDynamic, b.energy.svrDynamic) << cell;
    EXPECT_EQ(a.energy.svrStatic, b.energy.svrStatic) << cell;
    EXPECT_EQ(a.energy.cacheDynamic, b.energy.cacheDynamic) << cell;
    EXPECT_EQ(a.energy.dramStatic, b.energy.dramStatic) << cell;
    EXPECT_EQ(a.energy.dramDynamic, b.energy.dramDynamic) << cell;

    for (unsigned i = 0; i < 4; i++) {
        EXPECT_EQ(a.llcPrefFirstUse[i], b.llcPrefFirstUse[i])
            << cell << " origin " << i;
        EXPECT_EQ(a.llcPrefEvictedUnused[i], b.llcPrefEvictedUnused[i])
            << cell << " origin " << i;
    }
    EXPECT_EQ(a.l1Accesses, b.l1Accesses) << cell;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << cell;
}

/**
 * A result with a distinct value in every field, set by hand (not
 * through the result field table, which is what it checks). Doubles
 * get values with no short decimal form, so they need all 17 digits.
 */
SimResult
everyFieldDistinct(bool sampled)
{
    SimResult r;
    r.workload = "every field";
    r.config = "SVR16";
    r.failed = true;
    r.errCode = "NoForwardProgress";
    r.errMessage = "stuck [cell=every field/SVR16]";
    r.attempts = 3;
    CoreStats &c = r.core;
    std::uint64_t v = 1000;
    for (std::uint64_t *p :
         {&c.instructions, &c.cycles, &c.loads, &c.stores, &c.branches,
          &c.branchMispredicts, &c.transientScalars, &c.svrPrefetches,
          &c.svrRounds, &c.stackL2, &c.stackDram, &c.stackBranch,
          &c.stackSvu, &c.stackOther, &r.l1dHits, &r.l1dMisses, &r.l2Hits,
          &r.l2Misses, &r.dramTransfers, &r.traffic.demandData,
          &r.traffic.demandIfetch, &r.traffic.prefStride,
          &r.traffic.prefSvr, &r.traffic.prefImp, &r.traffic.writebacks,
          &r.tlbWalks, &r.l1Accesses, &r.l2Accesses})
        *p = v++;
    for (unsigned i = 0; i < 4; i++) {
        r.prefIssued[i] = v++;
        r.llcPrefFirstUse[i] = v++;
        r.llcPrefEvictedUnused[i] = v++;
    }
    double d = 0.0;
    for (double *p :
         {&r.svrAccuracyLlc, &r.impAccuracyLlc, &r.strideAccuracyLlc,
          &r.energy.coreStatic, &r.energy.coreDynamic, &r.energy.svrDynamic,
          &r.energy.svrStatic, &r.energy.cacheDynamic, &r.energy.dramStatic,
          &r.energy.dramDynamic})
        *p = (d += 1.0) / 3.0;
    // A full-detail ("R1") record carries no sampling fields.
    r.sampled = sampled;
    if (sampled) {
        r.sampleWindows = v++;
        r.measuredInstructions = v++;
        r.cpiStderr = (d + 1.0) / 7.0;
    }
    return r;
}

TEST(JournalRoundTrip, EveryFieldSurvivesExactly)
{
    for (const bool sampled : {false, true}) {
        const SimResult r = everyFieldDistinct(sampled);
        const std::string line = journalLine(r);
        SimResult back;
        ASSERT_TRUE(parseJournalLine(line, back)) << line;
        expectResultEqual(back, r);
        EXPECT_EQ(back.sampled, sampled);
        EXPECT_EQ(back.sampleWindows, r.sampleWindows);
        EXPECT_EQ(back.measuredInstructions, r.measuredInstructions);
        EXPECT_EQ(back.cpiStderr, r.cpiStderr);
        EXPECT_TRUE(back.failed);
        EXPECT_EQ(back.errCode, r.errCode);
        EXPECT_EQ(back.errMessage, r.errMessage);
        EXPECT_EQ(back.attempts, r.attempts);
        EXPECT_EQ(journalLine(back), line);
    }
}

TEST(SerialVsParallel, MatrixShapeMatches)
{
    const auto &qm = quickMatrices();
    ASSERT_EQ(qm.serial.size(), qm.parallel.size());
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++) {
        EXPECT_EQ(qm.serial[wi].workload, qm.parallel[wi].workload);
        ASSERT_EQ(qm.serial[wi].results.size(),
                  qm.parallel[wi].results.size());
        ASSERT_EQ(qm.serial[wi].timings.size(),
                  qm.serial[wi].results.size());
    }
}

TEST(SerialVsParallel, ResultsEqualFieldByField)
{
    const auto &qm = quickMatrices();
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++)
        for (std::size_t ci = 0; ci < qm.serial[wi].results.size(); ci++)
            expectResultEqual(qm.serial[wi].results[ci],
                              qm.parallel[wi].results[ci]);
}

TEST(SerialVsParallel, StreamSeedsMatchAndAreDistinct)
{
    const auto &qm = quickMatrices();
    std::vector<std::uint64_t> seeds;
    for (std::size_t wi = 0; wi < qm.serial.size(); wi++) {
        for (std::size_t ci = 0; ci < qm.serial[wi].timings.size(); ci++) {
            EXPECT_EQ(qm.serial[wi].timings[ci].streamSeed,
                      qm.parallel[wi].timings[ci].streamSeed);
            seeds.push_back(qm.serial[wi].timings[ci].streamSeed);
        }
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "two cells derived the same RNG stream seed";
}

/** First differing JSON lines, for a field-level failure report. */
std::string
firstJsonDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    std::ostringstream diff;
    int line = 0, shown = 0;
    while (shown < 8) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            break;
        line++;
        if (!ga)
            la = "<eof>";
        if (!gb)
            lb = "<eof>";
        if (la != lb) {
            diff << "  line " << line << ":\n    jobs=1: " << la
                 << "\n    jobs=N: " << lb << "\n";
            shown++;
        }
    }
    return diff.str();
}

TEST(SerialVsParallel, JsonReportByteIdentical)
{
    const auto &qm = quickMatrices();
    const std::string serial = toJson(flattenMatrix(qm.serial));
    const std::string parallel = toJson(flattenMatrix(qm.parallel));
    ASSERT_FALSE(serial.empty());
    EXPECT_TRUE(serial == parallel)
        << "JSON reports differ between 1 and 4 jobs; field-level "
           "diff:\n"
        << firstJsonDiff(serial, parallel);
}

TEST(SerialVsParallel, CsvReportByteIdentical)
{
    const auto &qm = quickMatrices();
    std::string a = csvHeader() + "\n", b = a;
    for (const auto &r : flattenMatrix(qm.serial))
        a += csvRow(r) + "\n";
    for (const auto &r : flattenMatrix(qm.parallel))
        b += csvRow(r) + "\n";
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// One build per workload row
// ---------------------------------------------------------------------

std::vector<SimConfig>
smallConfigs()
{
    std::vector<SimConfig> cfgs = {presets::inorder(), presets::impCore(),
                                   presets::svrCore(16)};
    for (auto &c : cfgs)
        c.maxInstructions = 5000;
    return cfgs;
}

MatrixOptions
quietOptions(unsigned jobs)
{
    MatrixOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.summary = false;
    return opts;
}

/** Small workloads whose factories count their calls in @p calls. */
std::vector<WorkloadSpec>
countedSpecs(std::vector<std::atomic<unsigned>> &calls)
{
    std::vector<WorkloadSpec> specs = {
        {"stride", "test",
         [] { return test::strideIndirect(1 << 10, 1 << 14, 7); }},
        {"stream", "test", [] { return test::streamSum(1 << 10); }},
        findWorkload("Camel"),
    };
    for (std::size_t i = 0; i < specs.size(); i++) {
        specs[i].make = [make = specs[i].make, &n = calls.at(i)] {
            n++;
            return make();
        };
    }
    return specs;
}

TEST(SharedBuilds, EachWorkloadIsBuiltOncePerMatrix)
{
    const std::vector<SimConfig> configs = smallConfigs();
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<std::atomic<unsigned>> calls(3);
        const std::vector<WorkloadSpec> specs = countedSpecs(calls);
        const std::vector<SimResult> shared =
            flattenMatrix(runMatrix(specs, configs, quietOptions(jobs)));
        for (std::size_t i = 0; i < specs.size(); i++) {
            EXPECT_EQ(calls[i].load(), 1u)
                << specs[i].name << ", jobs " << jobs;
        }

        // Every cell gets what a fresh build of its own gives.
        std::vector<SimResult> fresh;
        for (const WorkloadSpec &spec : specs) {
            for (const SimConfig &c : configs) {
                fresh.push_back(simulate(c, spec));
                fresh.back().workload = spec.name;
            }
        }
        EXPECT_EQ(toJson(shared), toJson(fresh)) << "jobs " << jobs;
    }
}

TEST(SharedBuilds, FailingBuildIsRetriedAndRecordedPerCell)
{
    const std::vector<SimConfig> configs = smallConfigs();
    for (const unsigned attempts : {1u, 2u}) {
        for (const unsigned jobs : {1u, 4u}) {
            std::atomic<unsigned> calls{0};
            const std::vector<WorkloadSpec> specs = {
                {"broken", "test", [&calls]() -> WorkloadInstance {
                     calls++;
                     fatal("no input for %s", "broken");
                 }}};
            MatrixOptions opts = quietOptions(jobs);
            opts.keepGoing = true;
            opts.maxAttempts = attempts;
            const std::vector<SimResult> res =
                flattenMatrix(runMatrix(specs, configs, opts));
            // A failed build is never kept: every attempt of every
            // cell calls the factory, as with one build per cell.
            EXPECT_EQ(calls.load(), configs.size() * attempts);
            ASSERT_EQ(res.size(), configs.size());
            for (std::size_t c = 0; c < res.size(); c++) {
                EXPECT_TRUE(res[c].failed);
                EXPECT_EQ(res[c].workload, "broken");
                EXPECT_EQ(res[c].config, configs[c].label);
                EXPECT_EQ(res[c].errCode, "WorkloadBuild");
                EXPECT_EQ(res[c].errMessage,
                          "WorkloadBuild: no input for broken [cell=broken/" +
                              configs[c].label + "]");
                EXPECT_EQ(res[c].attempts, attempts);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Window-major sampled rows
// ---------------------------------------------------------------------

/**
 * @p cfgs sampled over @p region instructions: five periods, each a
 * fast-forward, a detailed warmup and a measured window.
 */
std::vector<SimConfig>
sampled(std::vector<SimConfig> cfgs, std::uint64_t region)
{
    for (auto &c : cfgs) {
        c.maxInstructions = region;
        c.sampling.sampleEvery = region / 5;
        c.sampling.sampleWindow = region / 50;
        c.sampling.warmup = region / 100;
    }
    return cfgs;
}

/** Every cell simulated on its own, on a fresh fork of its build. */
std::vector<SimResult>
oneConfigRuns(const std::vector<WorkloadSpec> &specs,
              const std::vector<SimConfig> &configs)
{
    std::vector<SimResult> out;
    for (const WorkloadSpec &spec : specs) {
        const WorkloadImage image(spec.make());
        for (const SimConfig &c : configs) {
            out.push_back(simulate(c, image.fork()));
            out.back().workload = spec.name;
        }
    }
    return out;
}

TEST(SampledRow, MatrixMatchesOneConfigRuns)
{
    const std::vector<WorkloadSpec> specs = quickSuite();
    const std::vector<SimConfig> configs = sampled(
        {presets::inorder(), presets::impCore(), presets::outOfOrder(),
         presets::svrCore(16), presets::svrCore(64)},
        40000);
    // Each row's five cells are one unit.
    std::vector<std::size_t> all(specs.size() * configs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const MatrixOptions quiet = quietOptions(1);
    EXPECT_EQ(CellRows(specs, configs, quiet, all).numUnits(), specs.size());

    const std::string ref = toJson(oneConfigRuns(specs, configs));
    for (const unsigned jobs : {1u, 4u}) {
        const std::string got = toJson(
            flattenMatrix(runMatrix(specs, configs, quietOptions(jobs))));
        EXPECT_TRUE(got == ref) << "jobs " << jobs << ":\n"
                                << firstJsonDiff(ref, got);
    }
}

/**
 * A program that halts after @p iters iterations of a loop whose
 * loads read what the previous iteration stored and then gather at an
 * address computed from that value, so a wrongly restored memory
 * changes the timing.
 */
WorkloadSpec
haltingSpec(const char *name, std::int64_t iters)
{
    return {name, "test", [name, iters] {
                auto mem = std::make_shared<FunctionalMemory>();
                const Addr data = mem->alloc(1 << 16, 64);
                const Addr table = mem->alloc(1 << 16, 64);
                ProgramBuilder b(name);
                b.li(1, data);
                b.li(2, static_cast<std::uint64_t>(iters));
                b.li(3, 0);
                b.li(8, table);
                b.label("loop");
                b.ld(4, 1, 0);
                b.addi(4, 4, 77);
                b.sd(4, 1, 64);
                b.andi(6, 4, 0xffc0);
                b.add(7, 8, 6);
                b.ld(9, 7, 0);
                b.addi(1, 1, 64);
                b.addi(3, 3, 1);
                b.cmp(3, 2);
                b.blt("loop");
                b.halt();
                WorkloadInstance w;
                w.name = name;
                w.mem = mem;
                w.program = std::make_shared<Program>(b.build());
                return w;
            }};
}

/** Instructions @p spec executes before it halts. */
std::uint64_t
haltsAfter(const WorkloadSpec &spec)
{
    const WorkloadInstance w = spec.make();
    Executor exec(*w.program, *w.mem);
    exec.run(~std::uint64_t{0});
    EXPECT_TRUE(exec.halted());
    return exec.instructionsExecuted();
}

TEST(SampledRow, ProgramsHaltingMidRegionMatchOneConfigRuns)
{
    // Periods of 1000: fast-forward 800, warmup 100, window 100.
    std::vector<SimConfig> configs = {presets::inorder(),
                                      presets::outOfOrder(),
                                      presets::svrCore(16)};
    for (auto &c : configs) {
        c.maxInstructions = 1 << 20; // far beyond either program
        c.sampling.sampleEvery = 1000;
        c.sampling.sampleWindow = 100;
        c.sampling.warmup = 100;
    }
    const std::vector<WorkloadSpec> specs = {
        haltingSpec("halt-in-ff", 330), haltingSpec("halt-in-window", 290)};
    ASSERT_LT(haltsAfter(specs[0]) % 1000, 800u);
    ASSERT_GE(haltsAfter(specs[1]) % 1000, 900u);

    const std::string ref = toJson(oneConfigRuns(specs, configs));
    for (const unsigned jobs : {1u, 4u}) {
        const std::string got =
            toJson(flattenMatrix(runMatrix(specs, configs,
                                           quietOptions(jobs))));
        EXPECT_TRUE(got == ref) << "jobs " << jobs << ":\n"
                                << firstJsonDiff(ref, got);
    }
}

TEST(SampledRow, DegenerateSamplingMatchesFullDetail)
{
    // Window == period == region: no fast-forward, and the single
    // window is the full-detail run bit for bit.
    std::vector<SimConfig> full = smallConfigs(), degenerate = full;
    for (auto &c : degenerate) {
        c.sampling.sampleEvery = c.maxInstructions;
        c.sampling.sampleWindow = c.maxInstructions;
    }
    std::vector<std::atomic<unsigned>> calls(3);
    const std::vector<WorkloadSpec> specs = countedSpecs(calls);
    const std::vector<SimResult> ref = oneConfigRuns(specs, full);
    for (const unsigned jobs : {1u, 4u}) {
        const std::vector<SimResult> res = flattenMatrix(
            runMatrix(specs, degenerate, quietOptions(jobs)));
        ASSERT_EQ(res.size(), ref.size());
        for (std::size_t i = 0; i < res.size(); i++) {
            EXPECT_TRUE(res[i].sampled);
            expectResultEqual(res[i], ref[i]);
        }
    }
}

TEST(SampledRow, FaultsStayInTheirCell)
{
    // One row of three sampled configs: one fails validation, one
    // throws on its first attempt only, one is clean. Without the
    // injected throw the row runs jointly, the joint run fails on the
    // invalid config, and every cell runs again on its own.
    SimConfig invalid = presets::svrCore(16);
    invalid.label = "SVR0";
    invalid.svr.vectorLength = 0;
    const std::vector<WorkloadSpec> specs = {findWorkload("BFS_UR")};
    const std::vector<SimConfig> configs = sampled(
        {invalid, presets::inorder(), presets::svrCore(16)}, 40000);
    for (const char *fault : {"throw@BFS_UR/InO:1", ""}) {
        for (const unsigned jobs : {1u, 4u}) {
            MatrixOptions opts = quietOptions(jobs);
            opts.keepGoing = true;
            opts.maxAttempts = 2;
            opts.faultPlan = FaultPlan::parse(fault);
            std::vector<SimResult> res =
                flattenMatrix(runMatrix(specs, configs, opts));
            const std::string what =
                std::string("'") + fault + "', jobs " + std::to_string(jobs);
            ASSERT_EQ(res.size(), 3u);
            EXPECT_TRUE(res[0].failed) << what;
            EXPECT_EQ(res[0].errCode, "ConfigInvalid") << what;
            EXPECT_EQ(res[0].attempts, 2u) << what;
            EXPECT_FALSE(res[1].failed) << what;
            EXPECT_EQ(res[1].attempts, *fault ? 2u : 1u) << what;
            for (std::size_t c = 0; c < res.size(); c++) {
                // Byte for byte what the cell gives in a matrix of its
                // own, failure record and attempts included.
                const SimResult own = flattenMatrix(
                    runMatrix(specs, {configs[c]}, opts))[0];
                EXPECT_EQ(journalLine(res[c]), journalLine(own))
                    << configs[c].label << ", " << what;
            }
            // The retried cell has the results of a fault-free run.
            res[1].attempts = 1;
            expectResultEqual(res[1], oneConfigRuns(specs, {configs[1]})[0]);
        }
    }
}

// ---------------------------------------------------------------------
// Golden-stats snapshots
// ---------------------------------------------------------------------

struct Golden
{
    const char *workload;
    const char *config; // ino / imp / ooo / svrN, as presets::byName
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t l1dMisses;
    std::uint64_t l2Misses;
    std::uint64_t dramTransfers;
    std::uint64_t prefIssuedTotal; // all origins summed
    double ipc;
    double accuracyLlc; // svr accuracy for svrN, imp accuracy for imp
};

// Pinned on the CI toolchain at window = 30000 (see file header for
// the UPDATE_GOLDEN regeneration workflow).
const Golden goldens[] = {
    {"BFS_UR", "svr16", 30000ull, 107790ull, 4513ull, 3434ull, 3437ull,
     2985ull, 0.27831895352073477, 1},
    {"HJ8", "imp", 30000ull, 181632ull, 3890ull, 3876ull, 3876ull,
     2836ull, 0.16516913319238902, 1},
    {"Randacc", "ooo", 30000ull, 122859ull, 3378ull, 3366ull, 3372ull,
     378ull, 0.24418235538300004, 1},
    {"BFS_UR", "svr64", 30000ull, 102340ull, 4623ull, 3490ull, 3493ull,
     3109ull, 0.29314051201876101, 1},
};

SimResult
runGoldenCell(const Golden &g)
{
    SimConfig c = presets::byName(g.config);
    c.maxInstructions = kWindow;
    MatrixOptions opts;
    opts.progress = false;
    opts.summary = false;
    const auto matrix =
        runMatrix({findWorkload(g.workload)}, {c}, opts);
    return matrix.at(0).results.at(0);
}

double
goldenAccuracy(const Golden &g, const SimResult &r)
{
    return std::string(g.config) == "imp" ? r.impAccuracyLlc
                                          : r.svrAccuracyLlc;
}

TEST(GoldenStats, RepresentativeCellsMatchSnapshot)
{
    if (std::getenv("UPDATE_GOLDEN")) {
        std::printf("// Paste over goldens[] in %s:\n", __FILE__);
        for (const Golden &g : goldens) {
            const SimResult r = runGoldenCell(g);
            std::uint64_t pref = 0;
            for (unsigned i = 0; i < 4; i++)
                pref += r.prefIssued[i];
            std::printf("    {\"%s\", \"%s\", %lluull, %lluull, %lluull, "
                        "%lluull, %lluull, %lluull, %.17g, %.17g},\n",
                        g.workload, g.config,
                        static_cast<unsigned long long>(
                            r.core.instructions),
                        static_cast<unsigned long long>(r.core.cycles),
                        static_cast<unsigned long long>(r.l1dMisses),
                        static_cast<unsigned long long>(r.l2Misses),
                        static_cast<unsigned long long>(r.dramTransfers),
                        static_cast<unsigned long long>(pref), r.ipc(),
                        goldenAccuracy(g, r));
        }
        GTEST_SKIP() << "UPDATE_GOLDEN set: printed fresh goldens "
                        "instead of checking";
    }

    for (const Golden &g : goldens) {
        const SimResult r = runGoldenCell(g);
        const std::string cell =
            std::string(g.workload) + "/" + g.config;
        EXPECT_EQ(r.core.instructions, g.instructions) << cell;
        EXPECT_EQ(r.core.cycles, g.cycles) << cell;
        EXPECT_EQ(r.l1dMisses, g.l1dMisses) << cell;
        EXPECT_EQ(r.l2Misses, g.l2Misses) << cell;
        EXPECT_EQ(r.dramTransfers, g.dramTransfers) << cell;
        std::uint64_t pref = 0;
        for (unsigned i = 0; i < 4; i++)
            pref += r.prefIssued[i];
        EXPECT_EQ(pref, g.prefIssuedTotal) << cell;
        EXPECT_NEAR(r.ipc(), g.ipc, 1e-9) << cell;
        EXPECT_NEAR(goldenAccuracy(g, r), g.accuracyLlc, 1e-9) << cell;
    }
}

} // namespace
} // namespace svr
