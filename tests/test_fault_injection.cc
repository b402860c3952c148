/**
 * @file
 * Robustness layer tests (ctest label: robustness): structured errors
 * and capture scopes, the FaultPlan grammar, watchdog trips on
 * injected livelocks, per-cell fault isolation in runMatrix() with
 * bit-identical failure records for any job count, atomic artifact
 * writes, and the crash-safe journal round trip behind --resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "test_helpers.hh"

namespace svr
{
namespace
{

// ---------------------------------------------------------------------
// Structured errors & capture scopes
// ---------------------------------------------------------------------

TEST(SimErrors, CodeNamesRoundTrip)
{
    const ErrCode codes[] = {
        ErrCode::ConfigInvalid,       ErrCode::WorkloadBuild,
        ErrCode::CycleBudgetExceeded, ErrCode::NoForwardProgress,
        ErrCode::IoError,             ErrCode::InternalInvariant,
        ErrCode::WorkerLost,
    };
    for (ErrCode c : codes) {
        ErrCode parsed;
        ASSERT_TRUE(errCodeFromName(errCodeName(c), parsed));
        EXPECT_EQ(parsed, c);
    }
    ErrCode parsed;
    EXPECT_FALSE(errCodeFromName("NotACode", parsed));
}

TEST(SimErrors, WhatCarriesCodeMessageAndContext)
{
    ErrContext ctx;
    ctx.workload = "BFS_UR";
    ctx.config = "SVR16";
    ctx.cycle = 1234;
    ctx.hasCycle = true;
    const SimError e = simErrorf(ErrCode::CycleBudgetExceeded, ctx,
                                 "budget %d exceeded", 42);
    const std::string what = e.what();
    EXPECT_NE(what.find("CycleBudgetExceeded"), std::string::npos);
    EXPECT_NE(what.find("budget 42 exceeded"), std::string::npos);
    EXPECT_NE(what.find("cell=BFS_UR/SVR16"), std::string::npos);
    EXPECT_NE(what.find("cycle=1234"), std::string::npos);
    EXPECT_EQ(e.message(), "budget 42 exceeded");
}

TEST(SimErrors, WithCellFillsOnlyMissingIdentity)
{
    const SimError plain(ErrCode::InternalInvariant, "boom");
    const SimError cellified = SimError::withCell(plain, "W", "C");
    EXPECT_EQ(cellified.context().workload, "W");
    EXPECT_EQ(cellified.context().config, "C");

    const SimError again = SimError::withCell(cellified, "X", "Y");
    EXPECT_EQ(again.context().workload, "W"); // existing identity wins
}

TEST(ErrorCapture, PanicThrowsInternalInvariantUnderCapture)
{
    EXPECT_FALSE(errorCaptureActive());
    ScopedErrorCapture scope;
    EXPECT_TRUE(errorCaptureActive());
    try {
        panic("invariant %d broke", 7);
        FAIL() << "panic returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::InternalInvariant);
        EXPECT_EQ(e.message(), "invariant 7 broke");
    }
}

TEST(ErrorCapture, FatalUsesTheScopesCode)
{
    ScopedErrorCapture scope(ErrCode::WorkloadBuild);
    try {
        fatal("bad workload");
        FAIL() << "fatal returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkloadBuild);
    }
}

TEST(ErrorCapture, ScopesNestInnermostWinsAndRestore)
{
    ScopedErrorCapture outer(ErrCode::WorkloadBuild);
    {
        ScopedErrorCapture inner(ErrCode::ConfigInvalid);
        try {
            fatal("inner");
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
        }
    }
    try {
        fatal("outer again");
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkloadBuild);
    }
}

TEST(ErrorCapture, InactiveAfterScopeExit)
{
    {
        ScopedErrorCapture scope;
    }
    EXPECT_FALSE(errorCaptureActive());
}

// ---------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesCellAndIoRules)
{
    const FaultPlan plan = FaultPlan::parse(
        "throw@BFS_UR/SVR16;hang@*/OoO;kill@Camel/*;io@results.json");
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.shouldThrow("BFS_UR", "SVR16", 1, 0));
    EXPECT_FALSE(plan.shouldThrow("BFS_UR", "InO", 1, 0));
    EXPECT_TRUE(plan.shouldHang("anything", "OoO"));
    EXPECT_FALSE(plan.shouldHang("anything", "SVR16"));
    EXPECT_TRUE(plan.shouldKill("Camel", "InO"));
    EXPECT_FALSE(plan.shouldKill("HJ8", "InO"));
    EXPECT_TRUE(plan.shouldFailIo("/tmp/out/results.json"));
    EXPECT_FALSE(plan.shouldFailIo("/tmp/out/results.csv"));
}

TEST(FaultPlan, AttemptBoundLimitsThrowRules)
{
    const FaultPlan plan = FaultPlan::parse("throw@W/C:2");
    EXPECT_TRUE(plan.shouldThrow("W", "C", 1, 0));
    EXPECT_TRUE(plan.shouldThrow("W", "C", 2, 0));
    EXPECT_FALSE(plan.shouldThrow("W", "C", 3, 0));
}

TEST(FaultPlan, ProbabilityIsDeterministicPerCell)
{
    const FaultPlan always = FaultPlan::parse("throw@*/*:p1");
    const FaultPlan never = FaultPlan::parse("throw@*/*:p0");
    EXPECT_TRUE(always.shouldThrow("W", "C", 1, 99));
    EXPECT_FALSE(never.shouldThrow("W", "C", 1, 99));

    // Any probability draw must replay identically for a given cell.
    const FaultPlan half = FaultPlan::parse("throw@*/*:p0.5");
    const bool first = half.shouldThrow("PR_KR", "SVR16", 1, 7);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(half.shouldThrow("PR_KR", "SVR16", 1, 7), first);
}

TEST(FaultPlan, EmptySpecAndEnvAbsentAreEmptyPlans)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    ::unsetenv("SVRSIM_FAULT");
    EXPECT_TRUE(FaultPlan::fromEnv().empty());
}

TEST(FaultPlan, NetworkItemsSitNextToCellRules)
{
    // One grammar: network KEY=VALUE items and KIND@TARGET rules mix
    // in a single SVRSIM_FAULT spec.
    const FaultPlan plan = FaultPlan::parse(
        "kill@HJ8/SVR16;seed=11;drop=0.02;ckill@Camel/SVR16;after=4");
    EXPECT_TRUE(plan.shouldKill("HJ8", "SVR16"));
    EXPECT_TRUE(plan.shouldCoordKill("Camel", "SVR16"));
    EXPECT_EQ(plan.net().seed, 11u);
    EXPECT_DOUBLE_EQ(plan.net().dropP, 0.02);
    EXPECT_EQ(plan.net().skipFirst, 4u);
    EXPECT_TRUE(plan.net().enabled());

    EXPECT_FALSE(FaultPlan::parse("io@x").net().enabled());
    EXPECT_FALSE(FaultPlan::parse("drop=0.5").empty());
    EXPECT_TRUE(FaultPlan::parse("seed=3").empty());
}

TEST(ParseNumber, AcceptsWholeNumbersOnly)
{
    EXPECT_EQ(parseNumber<std::uint64_t>("400000", "--window"), 400000u);
    EXPECT_EQ(parseNumber<unsigned>("0", "--jobs"), 0u);
    EXPECT_EQ(parseNumber<int>("-1", "--hedge-ms"), -1);
    EXPECT_DOUBLE_EQ(parseNumber<double>("12.5", "--bw"), 12.5);
    EXPECT_DOUBLE_EQ(parseNumber<double>("1e3", "--bw"), 1000.0);

    const auto rejects = [](auto zero, const char *text) {
        try {
            parseNumber<decltype(zero)>(text, "--flag");
            ADD_FAILURE() << "accepted '" << text << "'";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::ConfigInvalid) << text;
            EXPECT_NE(e.message().find("--flag"), std::string::npos);
        }
    };
    for (const char *bad : {"", "abc", "1e", "12x", " 7", "7 ", "+3", "-5",
                            "99999999999999999999"})
        rejects(std::uint64_t{}, bad);
    rejects(unsigned{}, "4294967296");   // overflows 32 bits
    rejects(int{}, "2147483648");
    rejects(double{}, "1e");
    rejects(double{}, "nan");
    rejects(double{}, "inf");
    rejects(double{}, "1e999");
}

TEST(FaultPlan, BadGrammarThrowsConfigInvalid)
{
    const char *bad[] = {
        "explode@W/C", // unknown kind
        "throw@noslash", // cell without '/'
        "throw@W/C:0", // zero attempt bound
        "throw@W/C:p2", // probability out of range
        "hang@W/C:3", // attempt bound on non-throw rule
        "io@", // empty substring
        "throw", // missing '@'
        "drop=1.5", // probability out of range
        "bogus=1", // unknown network key
        "delay=0.5", // delay without MS
        "seed=-1", // signed seed
    };
    for (const char *spec : bad) {
        try {
            FaultPlan::parse(spec);
            FAIL() << "accepted bad spec: " << spec;
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::ConfigInvalid) << spec;
        }
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CycleBudgetTripsOnEndlessLoop)
{
    // strideIndirect loops forever; with an effectively unbounded
    // instruction window only the cycle budget can end the run.
    const WorkloadInstance w = test::strideIndirect(1 << 10, 1 << 14);
    MemorySystem mem({});
    Executor exec(*w.program, *w.mem);
    InOrderCore core(InOrderParams{}, mem);
    WatchdogParams wd;
    wd.maxCycles = 2000;
    try {
        core.run(exec, std::uint64_t{1} << 40, wd);
        FAIL() << "watchdog never tripped";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::CycleBudgetExceeded);
        EXPECT_TRUE(e.context().hasCycle);
        EXPECT_TRUE(e.context().hasInstructions);
        EXPECT_GT(e.context().cycle, wd.maxCycles);
    }
}

TEST(Watchdog, OooCycleBudgetTripsToo)
{
    const WorkloadInstance w = test::strideIndirect(1 << 10, 1 << 14);
    MemorySystem mem({});
    Executor exec(*w.program, *w.mem);
    OoOCore core(OoOParams{}, mem);
    WatchdogParams wd;
    wd.maxCycles = 2000;
    EXPECT_THROW(core.run(exec, std::uint64_t{1} << 40, wd), SimError);
}

TEST(Watchdog, InjectedHangTripsForwardProgressWithinBudget)
{
    SimConfig config = presets::svrCore(16);
    config.maxInstructions = 100000;
    const WorkloadInstance w = test::streamSum(1 << 10);
    try {
        simulateInjectedHang(config, w);
        FAIL() << "hang completed";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::NoForwardProgress);
        // The trip is reported at the last-progress cycle, i.e. well
        // inside the run's auto cycle budget (maxInstructions << 10).
        ASSERT_TRUE(e.context().hasCycle);
        EXPECT_LT(e.context().cycle, config.maxInstructions << 10);
    }
}

TEST(Watchdog, DisabledBudgetsRunToCompletion)
{
    SimConfig config = presets::inorder();
    config.maxInstructions = 20000;
    config.watchdog.maxCycles = watchdogOff;
    config.watchdog.maxStallCycles = watchdogOff;
    const SimResult r = simulate(config, test::streamSum(1 << 10));
    EXPECT_EQ(r.core.instructions, config.maxInstructions);
    EXPECT_FALSE(r.failed);
}

TEST(Watchdog, AutoBudgetNeverTripsHealthyRuns)
{
    SimConfig config = presets::svrCore(16);
    config.maxInstructions = 20000;
    const SimResult r =
        simulate(config, test::strideIndirect(1 << 10, 1 << 16));
    EXPECT_EQ(r.core.instructions, config.maxInstructions);
}

// ---------------------------------------------------------------------
// Fault-isolated runMatrix
// ---------------------------------------------------------------------

std::vector<WorkloadSpec>
tinySuite()
{
    return {
        {"tiny-stride", "test",
         [] { return test::strideIndirect(1 << 10, 1 << 14, 7); }},
        {"tiny-stream", "test", [] { return test::streamSum(1 << 10); }},
    };
}

std::vector<SimConfig>
tinyConfigs()
{
    std::vector<SimConfig> configs = {presets::inorder(),
                                      presets::svrCore(16)};
    for (auto &c : configs)
        c.maxInstructions = 5000;
    return configs;
}

MatrixOptions
quietOpts(unsigned jobs)
{
    MatrixOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.summary = false;
    return opts;
}

TEST(MatrixFaults, FailFastRethrowsWithCellIdentity)
{
    MatrixOptions opts = quietOpts(2);
    opts.faultPlan = FaultPlan::parse("throw@tiny-stream/SVR16");
    try {
        runMatrix(tinySuite(), tinyConfigs(), opts);
        FAIL() << "fault did not surface";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::InternalInvariant);
        EXPECT_EQ(e.context().workload, "tiny-stream");
        EXPECT_EQ(e.context().config, "SVR16");
    }
}

TEST(MatrixFaults, KeepGoingRecordsFailureAndFinishesTheRest)
{
    MatrixOptions opts = quietOpts(2);
    opts.keepGoing = true;
    opts.faultPlan = FaultPlan::parse("throw@tiny-stream/SVR16");
    MatrixTiming timing;
    const auto matrix =
        runMatrix(tinySuite(), tinyConfigs(), opts, &timing);
    EXPECT_EQ(timing.failedCells, 1u);

    unsigned ok = 0, failed = 0;
    for (const auto &row : matrix) {
        for (const auto &res : row.results) {
            if (res.failed) {
                failed++;
                EXPECT_EQ(res.workload, "tiny-stream");
                EXPECT_EQ(res.config, "SVR16");
                EXPECT_EQ(res.errCode, "InternalInvariant");
                EXPECT_NE(res.errMessage.find("injected fault"),
                          std::string::npos);
            } else {
                ok++;
                EXPECT_EQ(res.core.instructions, 5000u);
            }
        }
    }
    EXPECT_EQ(ok, 3u);
    EXPECT_EQ(failed, 1u);
}

TEST(MatrixFaults, InjectedHangBecomesFailureRecordUnderKeepGoing)
{
    MatrixOptions opts = quietOpts(2);
    opts.keepGoing = true;
    opts.faultPlan = FaultPlan::parse("hang@tiny-stride/SVR16");
    MatrixTiming timing;
    const auto matrix =
        runMatrix(tinySuite(), tinyConfigs(), opts, &timing);
    EXPECT_EQ(timing.failedCells, 1u);
    const SimResult &hung = matrix[0].results[1];
    EXPECT_TRUE(hung.failed);
    EXPECT_EQ(hung.errCode, "NoForwardProgress");
    // Every other cell still completed its window.
    EXPECT_EQ(matrix[0].results[0].core.instructions, 5000u);
    EXPECT_EQ(matrix[1].results[0].core.instructions, 5000u);
    EXPECT_EQ(matrix[1].results[1].core.instructions, 5000u);
}

TEST(MatrixFaults, FailureRecordsAreByteIdenticalForAnyJobCount)
{
    const auto run = [](unsigned jobs) {
        MatrixOptions opts = quietOpts(jobs);
        opts.keepGoing = true;
        opts.faultPlan =
            FaultPlan::parse("throw@tiny-stream/SVR16;hang@tiny-stride/InO");
        const auto matrix = runMatrix(tinySuite(), tinyConfigs(), opts);
        const auto flat = flattenMatrix(matrix);
        std::string out = toJson(flat) + csvHeader();
        for (const auto &r : flat)
            out += "\n" + csvRow(r);
        return out;
    };
    const std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(3));
    EXPECT_NE(serial.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(serial.find("NoForwardProgress"), std::string::npos);
}

TEST(MatrixFaults, BoundedRetrySucceedsAfterTransientFault)
{
    MatrixOptions opts = quietOpts(1);
    opts.keepGoing = true;
    opts.maxAttempts = 3;
    opts.faultPlan = FaultPlan::parse("throw@tiny-stream/InO:2");
    const auto matrix = runMatrix(tinySuite(), tinyConfigs(), opts);
    const SimResult &retried = matrix[1].results[0];
    EXPECT_FALSE(retried.failed);
    EXPECT_EQ(retried.attempts, 3u); // two injected failures, then ok
    EXPECT_EQ(retried.core.instructions, 5000u);
    // Untouched cells succeed on the first try.
    EXPECT_EQ(matrix[0].results[0].attempts, 1u);
}

TEST(MatrixFaults, RetryBudgetExhaustionStillFails)
{
    MatrixOptions opts = quietOpts(1);
    opts.keepGoing = true;
    opts.maxAttempts = 2;
    opts.faultPlan = FaultPlan::parse("throw@tiny-stream/InO");
    const auto matrix = runMatrix(tinySuite(), tinyConfigs(), opts);
    const SimResult &failed = matrix[1].results[0];
    EXPECT_TRUE(failed.failed);
    EXPECT_EQ(failed.attempts, 2u);
}

// ---------------------------------------------------------------------
// Atomic artifact writes
// ---------------------------------------------------------------------

TEST(AtomicIo, WriteThenReadRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "svrsim_atomic_roundtrip.txt";
    writeFileAtomic(path, "hello\natomic\n");
    EXPECT_EQ(readFile(path), "hello\natomic\n");
    // No .tmp litter.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    std::remove(path.c_str());
}

TEST(AtomicIo, InjectedIoFaultThrowsAndPreservesOldArtifact)
{
    const std::string path =
        ::testing::TempDir() + "svrsim_atomic_fault.txt";
    writeFileAtomic(path, "old contents");
    const FaultPlan faults = FaultPlan::parse("io@atomic_fault");
    try {
        writeFileAtomic(path, "new contents", faults);
        FAIL() << "injected IO fault did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
    EXPECT_EQ(readFile(path), "old contents");
    std::remove(path.c_str());
}

TEST(AtomicIo, UnwritablePathThrowsIoError)
{
    try {
        writeFileAtomic("/nonexistent-dir/nope/out.json", "x");
        FAIL() << "write to bogus path succeeded";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
    EXPECT_THROW(readFile("/nonexistent-dir/nope/out.json"), SimError);
}

// ---------------------------------------------------------------------
// Crash-safe journal
// ---------------------------------------------------------------------

TEST(Journal, RecordLineRoundTripsExactly)
{
    SimConfig config = presets::svrCore(16);
    config.maxInstructions = 5000;
    SimResult r = simulate(config, test::strideIndirect(1 << 10, 1 << 14));
    r.attempts = 2;

    SimResult parsed;
    ASSERT_TRUE(parseJournalLine(journalLine(r), parsed));
    // hostMillis is host-side and deliberately not journaled; the
    // reports exclude it, so zero it before comparing serializations.
    r.hostMillis = 0.0;
    EXPECT_EQ(toJson(r), toJson(parsed));
    EXPECT_EQ(csvRow(r), csvRow(parsed));
    EXPECT_EQ(parsed.attempts, 2u);
}

TEST(Journal, FailureRecordsAndStrangeStringsRoundTrip)
{
    SimResult r;
    r.workload = "has space %weird\tname";
    r.config = "SVR16";
    r.failed = true;
    r.errCode = "NoForwardProgress";
    r.errMessage = "no retire for 99 cycles [cell=a/b cycle=3]";
    r.attempts = 4;
    SimResult parsed;
    ASSERT_TRUE(parseJournalLine(journalLine(r), parsed));
    EXPECT_EQ(parsed.workload, r.workload);
    EXPECT_EQ(parsed.errMessage, r.errMessage);
    EXPECT_TRUE(parsed.failed);
    EXPECT_EQ(toJson(r), toJson(parsed));
}

TEST(Journal, TornAndCorruptLinesAreSkippedOnLoad)
{
    const std::string path = ::testing::TempDir() + "svrsim_torn.journal";
    const SweepKey key{"quick", "ino,svr16", 5000, 42, {}};

    SimResult a;
    a.workload = "W1";
    a.config = "InO";
    SimResult b;
    b.workload = "W2";
    b.config = "SVR16";
    {
        SweepJournal journal(path, key);
        journal.append(a);
        journal.append(b);
    }
    // Simulate a crash mid-append: a torn record with no newline.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("R1 W3 InO 0 1 - 123", f);
        std::fclose(f);
    }
    const JournalCells cells = loadJournal(path, key);
    EXPECT_EQ(cells.size(), 2u);
    EXPECT_TRUE(cells.count({"W1", "InO"}));
    EXPECT_TRUE(cells.count({"W2", "SVR16"}));
    EXPECT_FALSE(cells.count({"W3", "InO"}));
    std::remove(path.c_str());
}

TEST(Journal, MismatchedSweepIdentityIsRejected)
{
    const std::string path =
        ::testing::TempDir() + "svrsim_mismatch.journal";
    const SweepKey key{"quick", "ino,svr16", 5000, 42, {}};
    {
        SweepJournal journal(path, key);
    }
    SweepKey other = key;
    other.window = 9999;
    try {
        loadJournal(path, other);
        FAIL() << "foreign journal accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::ConfigInvalid);
    }
    EXPECT_EQ(loadJournal(path, key).size(), 0u);
    std::remove(path.c_str());
}

/** The record lines of the journal at @p path (header dropped). */
std::vector<std::string>
journalRecords(const std::string &path)
{
    std::vector<std::string> lines;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return lines;
    std::string line;
    for (int c; (c = std::fgetc(f)) != EOF;) {
        if (c != '\n') {
            line += static_cast<char>(c);
            continue;
        }
        lines.push_back(line);
        line.clear();
    }
    std::fclose(f);
    if (!lines.empty())
        lines.erase(lines.begin()); // the J1 header
    return lines;
}

TEST(Journal, ResumedMatrixIsByteIdenticalToUninterruptedRun)
{
    const auto workloads = tinySuite();
    const auto configs = tinyConfigs();
    const std::size_t num_cells = workloads.size() * configs.size();

    // The uninterrupted reference run.
    MatrixOptions opts = quietOpts(2);
    const std::vector<SimResult> ref =
        flattenMatrix(runMatrix(workloads, configs, opts));
    const std::string reference = toJson(ref);

    // "Crash" after two cells: only they reached the journal, through
    // the real serializer.
    const std::string path =
        ::testing::TempDir() + "svrsim_resume.journal";
    std::remove(path.c_str());
    const SweepKey key{"tiny", "ino,svr16", 5000, 42, {}};
    {
        SweepJournal journal(path, key);
        journal.append(ref[0]);
        journal.append(ref[1]);
    }

    // Resume: the parsed journal is the restored data, and the same
    // journal takes the freshly simulated cells.
    MatrixOptions resumed = quietOpts(4);
    resumed.restored = loadJournal(path, key);
    ASSERT_EQ(resumed.restored.size(), 2u);
    MatrixTiming timing;
    std::vector<MatrixRow> matrix;
    {
        SweepJournal journal(path, key);
        resumed.journal = &journal;
        matrix = runMatrix(workloads, configs, resumed, &timing);
    }
    EXPECT_EQ(timing.restoredCells, 2u);
    EXPECT_EQ(toJson(flattenMatrix(matrix)), reference);

    // Exactly the two missing cells were simulated and journaled.
    const std::vector<std::string> records = journalRecords(path);
    ASSERT_EQ(records.size(), num_cells);
    for (std::size_t i = 0; i < 2; i++)
        EXPECT_EQ(records[i], journalLine(ref[i]));
    std::vector<std::string> fresh(records.begin() + 2, records.end());
    std::vector<std::string> expect_fresh;
    for (std::size_t i = 2; i < num_cells; i++)
        expect_fresh.push_back(journalLine(ref[i]));
    std::sort(fresh.begin(), fresh.end());
    std::sort(expect_fresh.begin(), expect_fresh.end());
    EXPECT_EQ(fresh, expect_fresh);
    EXPECT_EQ(loadJournal(path, key).size(), num_cells);
    std::remove(path.c_str());
}

TEST(Journal, TruncatedFinalRecordReRunsOnlyThatCell)
{
    const auto workloads = tinySuite();
    const auto configs = tinyConfigs();
    const std::size_t num_cells = workloads.size() * configs.size();

    MatrixOptions opts = quietOpts(2);
    const std::string reference =
        toJson(flattenMatrix(runMatrix(workloads, configs, opts)));

    // A complete run journaled through the real writer...
    const std::string path =
        ::testing::TempDir() + "svrsim_truncated.journal";
    std::remove(path.c_str());
    const SweepKey key{"tiny", "ino,svr16", 5000, 42, {}};
    {
        SweepJournal journal(path, key);
        MatrixOptions full = quietOpts(1);
        full.journal = &journal;
        runMatrix(workloads, configs, full);
    }
    std::vector<std::string> records = journalRecords(path);
    ASSERT_EQ(records.size(), num_cells);
    SimResult last;
    ASSERT_TRUE(parseJournalLine(records.back(), last));
    const std::string last_cell = last.workload + "/" + last.config;

    // ...then cut the final record mid-write, as a crash or full disk
    // would: drop the trailing newline plus a chunk of the line.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fclose(f);
        ASSERT_GT(size, 40);
        ASSERT_EQ(::truncate(path.c_str(), size - 40), 0);
    }

    // The torn record must be dropped: every cell but the last one
    // restores, and the resume re-simulates exactly that one cell.
    MatrixOptions resumed = quietOpts(2);
    resumed.restored = loadJournal(path, key);
    ASSERT_EQ(resumed.restored.size(), num_cells - 1);
    EXPECT_FALSE(resumed.restored.count({last.workload, last.config}));

    MatrixTiming timing;
    std::vector<MatrixRow> matrix;
    {
        SweepJournal journal(path, key);
        resumed.journal = &journal;
        matrix = runMatrix(workloads, configs, resumed, &timing);
    }
    EXPECT_EQ(timing.restoredCells, num_cells - 1);
    EXPECT_EQ(toJson(flattenMatrix(matrix)), reference);

    // The journal gained exactly one record — the re-run cell, on a
    // line of its own after the torn one — and now restores whole.
    records = journalRecords(path);
    ASSERT_EQ(records.size(), num_cells + 1); // torn line + re-run
    SimResult rerun;
    ASSERT_TRUE(parseJournalLine(records.back(), rerun));
    EXPECT_EQ(rerun.workload + "/" + rerun.config, last_cell);
    EXPECT_EQ(loadJournal(path, key).size(), num_cells);
    std::remove(path.c_str());
}

} // namespace
} // namespace svr
