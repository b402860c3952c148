/**
 * @file
 * Checkpoint round-trip properties (sim/checkpoint.hh):
 *  - serialize -> deserialize reproduces every field exactly;
 *  - a machine restored from a checkpoint continues bit-identically
 *    to the machine it was captured from, both functionally and for a
 *    detailed timing continuation on every core model;
 *  - any corruption of the byte image (magic, truncation, trailing
 *    garbage, bad booleans) or machine state no capture can produce
 *    (a page beyond the address space, an allocation cursor below the
 *    data segment, an instruction count other than the sequence
 *    number) throws SimError(IoError), never restores;
 *  - capture shares every page with the live memory it freezes;
 *  - the byte format itself is pinned by digest (CheckpointGolden).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "core/executor.hh"
#include "mem/memory_system.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "svr/svr_engine.hh"
#include "test_helpers.hh"
#include "workloads/suites.hh"

namespace svr
{
namespace
{

/** Small but DRAM-active workload that never halts. */
WorkloadInstance
ckptWorkload()
{
    return test::strideIndirect(1 << 12, 1 << 15, /*seed=*/7);
}

/** FNV-style hash of every checkpointed page (order-sensitive). */
std::uint64_t
memoryFingerprint(const FunctionalMemory &mem)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto &page : mem.snapshotPages()) {
        h ^= page.pageNum;
        h *= 0x100000001b3ULL;
        for (unsigned i = 0; i < pageBytes; i += 8) {
            std::uint64_t v = 0;
            std::memcpy(&v, page.data + i, 8);
            h ^= v;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

void
expectCheckpointEq(const Checkpoint &a, const Checkpoint &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_TRUE(a.arch == b.arch);
    const FunctionalMemory a_mem(a.mem), b_mem(b.mem);
    EXPECT_EQ(a_mem.allocTop(), b_mem.allocTop());
    const auto a_pages = a_mem.snapshotPages();
    const auto b_pages = b_mem.snapshotPages();
    ASSERT_EQ(a_pages.size(), b_pages.size());
    for (std::size_t i = 0; i < a_pages.size(); i++) {
        EXPECT_EQ(a_pages[i].pageNum, b_pages[i].pageNum);
        EXPECT_EQ(std::memcmp(a_pages[i].data, b_pages[i].data, pageBytes),
                  0)
            << "page " << i;
    }
    ASSERT_EQ(a.hasSvr, b.hasSvr);
    ASSERT_EQ(a.svr.strideEntries.size(), b.svr.strideEntries.size());
    for (std::size_t i = 0; i < a.svr.strideEntries.size(); i++) {
        const StrideEntry &x = a.svr.strideEntries[i];
        const StrideEntry &y = b.svr.strideEntries[i];
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.valid, y.valid);
        EXPECT_EQ(x.prevAddress, y.prevAddress);
        EXPECT_EQ(x.stride, y.stride);
        EXPECT_EQ(x.satCounter, y.satCounter);
        EXPECT_EQ(x.lastPrefetch, y.lastPrefetch);
        EXPECT_EQ(x.hasLastPrefetch, y.hasLastPrefetch);
        EXPECT_EQ(x.seen, y.seen);
        EXPECT_EQ(x.lil, y.lil);
        EXPECT_EQ(x.lilConfidence, y.lilConfidence);
        EXPECT_EQ(x.hasLil, y.hasLil);
        EXPECT_EQ(x.uselessRounds, y.uselessRounds);
        EXPECT_EQ(x.lastUse, y.lastUse);
    }
    EXPECT_EQ(a.svr.strideClock, b.svr.strideClock);
    EXPECT_EQ(a.svr.governorBanned, b.svr.governorBanned);
}

void
expectStatsEq(const CoreStats &a, const CoreStats &b, const char *what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << what;
    EXPECT_EQ(a.transientScalars, b.transientScalars) << what;
    EXPECT_EQ(a.svrPrefetches, b.svrPrefetches) << what;
    EXPECT_EQ(a.svrRounds, b.svrRounds) << what;
    EXPECT_EQ(a.stackL2, b.stackL2) << what;
    EXPECT_EQ(a.stackDram, b.stackDram) << what;
    EXPECT_EQ(a.stackBranch, b.stackBranch) << what;
    EXPECT_EQ(a.stackSvu, b.stackSvu) << what;
    EXPECT_EQ(a.stackOther, b.stackOther) << what;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip)
{
    const WorkloadInstance w = ckptWorkload();
    Executor exec(*w.program, *w.mem);
    exec.run(12345);

    // Warm a real SVR engine so the snapshot has live entries.
    MemorySystem mem(MemParams{});
    SvrEngine engine(SvrParams{}, mem, exec);
    InOrderCore core(InOrderParams{}, mem);
    core.setRunaheadEngine(&engine);
    core.run(exec, 20000);

    const Checkpoint ck =
        captureCheckpoint(exec, *w.mem, w.name, &engine);
    EXPECT_TRUE(ck.hasSvr);
    EXPECT_EQ(ck.arch.seq, exec.instructionsExecuted());
    EXPECT_GT(FunctionalMemory(ck.mem).pagesTouched(), 0u);

    const std::string bytes = serializeCheckpoint(ck);
    const Checkpoint back = deserializeCheckpoint(bytes);
    expectCheckpointEq(ck, back);

    // Determinism: serializing the reconstruction is byte-identical.
    EXPECT_EQ(serializeCheckpoint(back), bytes);
}

TEST(Checkpoint, RestoreMatchesUninterruptedFunctionalRun)
{
    constexpr std::uint64_t n1 = 30000, n2 = 50000;

    // Uninterrupted reference.
    const WorkloadInstance ref_w = ckptWorkload();
    Executor ref(*ref_w.program, *ref_w.mem);
    ref.run(n1 + n2);

    // Checkpointed at n1, restored into a *fresh* instance through the
    // full serialize -> deserialize path, then continued for n2.
    const WorkloadInstance a_w = ckptWorkload();
    Executor a(*a_w.program, *a_w.mem);
    a.run(n1);
    const std::string bytes =
        serializeCheckpoint(captureCheckpoint(a, *a_w.mem, a_w.name));

    const WorkloadInstance b_w = ckptWorkload();
    Executor b(*b_w.program, *b_w.mem);
    restoreCheckpoint(deserializeCheckpoint(bytes), b, *b_w.mem);
    EXPECT_EQ(b.instructionsExecuted(), n1);

    // The continuation's dynamic stream matches instruction by
    // instruction (positions n1..n1+n2 of the uninterrupted run).
    const WorkloadInstance c_w = ckptWorkload();
    Executor c(*c_w.program, *c_w.mem);
    c.run(n1);
    for (std::uint64_t i = 0; i < n2; i++) {
        const DynInst x = b.step();
        const DynInst y = c.step();
        ASSERT_EQ(x.seq, y.seq);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.result, y.result);
        ASSERT_EQ(x.addr, y.addr);
    }

    for (RegId r = 0; r < numArchRegs; r++)
        ASSERT_EQ(b.readReg(r), ref.readReg(r)) << "x" << unsigned(r);
    EXPECT_TRUE(b.flags() == ref.flags());
    EXPECT_EQ(b.pcIndex(), ref.pcIndex());
    EXPECT_EQ(b.instructionsExecuted(), ref.instructionsExecuted());
    EXPECT_EQ(memoryFingerprint(*b_w.mem), memoryFingerprint(*ref_w.mem));
}

class CheckpointCores : public ::testing::TestWithParam<CoreType>
{
};

/**
 * The headline property: a detailed timing continuation from a
 * restored checkpoint is bit-identical — same CoreStats, same final
 * architectural state — to the same continuation on the machine the
 * checkpoint was captured from. Runs on every core model.
 */
TEST_P(CheckpointCores, TimingContinuationBitIdentical)
{
    constexpr std::uint64_t n1 = 25000, n2 = 40000;
    SimConfig config;
    switch (GetParam()) {
      case CoreType::InOrder:
        config = presets::inorder();
        break;
      case CoreType::InOrderImp:
        config = presets::impCore();
        break;
      case CoreType::OutOfOrder:
        config = presets::outOfOrder();
        break;
      case CoreType::Svr:
        config = presets::svrCore(16);
        break;
    }
    const WatchdogParams wd = resolveWatchdog(config);
    TimingWindow tw;
    tw.maxInstructions = n2;

    // Original machine: fast-forward to n1, checkpoint, then continue
    // in detailed timing over a fresh memory hierarchy.
    const WorkloadInstance a_w = ckptWorkload();
    Executor a(*a_w.program, *a_w.mem);
    a.run(n1);
    const std::string bytes =
        serializeCheckpoint(captureCheckpoint(a, *a_w.mem, a_w.name));
    MemorySystem a_mem(config.mem);
    const CoreStats a_stats =
        runTimingWindow(config, a_mem, a, *a_w.mem, {}, wd, tw);

    // Restored machine: same continuation from the serialized image.
    const WorkloadInstance b_w = ckptWorkload();
    Executor b(*b_w.program, *b_w.mem);
    restoreCheckpoint(deserializeCheckpoint(bytes), b, *b_w.mem);
    MemorySystem b_mem(config.mem);
    const CoreStats b_stats =
        runTimingWindow(config, b_mem, b, *b_w.mem, {}, wd, tw);

    expectStatsEq(a_stats, b_stats, coreTypeName(GetParam()));
    for (RegId r = 0; r < numArchRegs; r++)
        ASSERT_EQ(a.readReg(r), b.readReg(r)) << "x" << unsigned(r);
    EXPECT_TRUE(a.flags() == b.flags());
    EXPECT_EQ(a.pcIndex(), b.pcIndex());
    EXPECT_EQ(memoryFingerprint(*a_w.mem), memoryFingerprint(*b_w.mem));
}

INSTANTIATE_TEST_SUITE_P(AllCores, CheckpointCores,
                         ::testing::Values(CoreType::InOrder,
                                           CoreType::InOrderImp,
                                           CoreType::OutOfOrder,
                                           CoreType::Svr),
                         [](const auto &info) {
                             switch (info.param) {
                               case CoreType::InOrder: return "InOrder";
                               case CoreType::InOrderImp: return "Imp";
                               case CoreType::OutOfOrder: return "OoO";
                               default: return "Svr";
                             }
                         });

TEST(Checkpoint, SvrPredictorStateCarriesAcrossRestore)
{
    SimConfig config = presets::svrCore(16);
    const WatchdogParams wd = resolveWatchdog(config);

    const WorkloadInstance w = ckptWorkload();
    Executor exec(*w.program, *w.mem);
    MemorySystem mem(config.mem);
    SvrEngine engine(config.svr, mem, exec);
    InOrderCore core(InOrderParams{}, mem);
    core.setRunaheadEngine(&engine);
    core.run(exec, 30000, wd);

    const Checkpoint ck = captureCheckpoint(exec, *w.mem, w.name, &engine);
    const Checkpoint back =
        deserializeCheckpoint(serializeCheckpoint(ck));
    ASSERT_TRUE(back.hasSvr);

    // A fresh engine warmed from the restored snapshot exports the
    // same state right back.
    const WorkloadInstance w2 = ckptWorkload();
    Executor exec2(*w2.program, *w2.mem);
    restoreCheckpoint(back, exec2, *w2.mem);
    MemorySystem mem2(config.mem);
    SvrEngine engine2(config.svr, mem2, exec2);
    engine2.importState(back.svr);
    const SvrEngineSnapshot out = engine2.exportState();
    ASSERT_EQ(out.strideEntries.size(), back.svr.strideEntries.size());
    EXPECT_EQ(out.strideClock, back.svr.strideClock);
    EXPECT_EQ(out.governorBanned, back.svr.governorBanned);
    for (std::size_t i = 0; i < out.strideEntries.size(); i++) {
        EXPECT_EQ(out.strideEntries[i].pc, back.svr.strideEntries[i].pc);
        EXPECT_EQ(out.strideEntries[i].stride,
                  back.svr.strideEntries[i].stride);
        EXPECT_EQ(out.strideEntries[i].lastUse,
                  back.svr.strideEntries[i].lastUse);
    }
}

TEST(Checkpoint, CaptureSharesEveryPage)
{
    const WorkloadInstance w = findWorkload("BFS_UR").make();
    Executor exec(*w.program, *w.mem);
    exec.run(20000);
    const Checkpoint ck = captureCheckpoint(exec, *w.mem, w.name);
    const auto frozen = FunctionalMemory(ck.mem).snapshotPages();
    const auto live = w.mem->snapshotPages();
    ASSERT_EQ(frozen.size(), live.size());
    for (std::size_t i = 0; i < live.size(); i++) {
        EXPECT_EQ(frozen[i].pageNum, live[i].pageNum);
        EXPECT_EQ(frozen[i].data, live[i].data) << "page " << i;
    }
}

TEST(Checkpoint, SaveLoadFileRoundTrip)
{
    const WorkloadInstance w = ckptWorkload();
    Executor exec(*w.program, *w.mem);
    exec.run(5000);
    const Checkpoint ck = captureCheckpoint(exec, *w.mem, w.name);

    const std::string path =
        ::testing::TempDir() + "/svrsim_ckpt_roundtrip.bin";
    saveCheckpoint(ck, path);
    const Checkpoint back = loadCheckpoint(path);
    expectCheckpointEq(ck, back);
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingFileThrowsIoError)
{
    try {
        loadCheckpoint("/nonexistent/svrsim/ckpt.bin");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
}

TEST(Checkpoint, CorruptImagesAreRejected)
{
    const WorkloadInstance w = ckptWorkload();
    Executor exec(*w.program, *w.mem);
    exec.run(4000);
    const std::string bytes =
        serializeCheckpoint(captureCheckpoint(exec, *w.mem, w.name));

    const auto expect_io_error = [](const std::string &image,
                                    const char *what) {
        try {
            deserializeCheckpoint(image);
            FAIL() << what << ": corrupt image restored";
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::IoError) << what;
        }
    };

    // Bad magic.
    std::string bad = bytes;
    bad[0] ^= 0x40;
    expect_io_error(bad, "magic");

    // Wrong version digit.
    bad = bytes;
    bad[7] = '9';
    expect_io_error(bad, "version");

    // Truncation at a spread of prefix lengths.
    for (const double f : {0.1, 0.5, 0.9}) {
        const auto len = static_cast<std::size_t>(
            static_cast<double>(bytes.size()) * f);
        expect_io_error(bytes.substr(0, len), "truncation");
    }
    expect_io_error(bytes.substr(0, bytes.size() - 1), "truncation-1");
    expect_io_error("", "empty");

    // Trailing garbage.
    expect_io_error(bytes + '\0', "trailing");

    // A boolean byte outside {0, 1} (the halted flag lives right
    // after the magic, workload string, instruction count, registers
    // and flags; corrupt every byte and require *either* a clean
    // IoError or a value-identical reconstruction — nothing may
    // silently produce a different machine).
    const Checkpoint ref = deserializeCheckpoint(bytes);
    unsigned rejected = 0;
    for (std::size_t i = 8; i < std::min<std::size_t>(bytes.size(), 200);
         i++) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x80);
        try {
            const Checkpoint got = deserializeCheckpoint(flipped);
            // Parsed: the flip must be visible in the reconstruction,
            // not silently dropped.
            const bool same =
                serializeCheckpoint(got) == serializeCheckpoint(ref);
            EXPECT_FALSE(same) << "silent corruption at byte " << i;
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::IoError) << "byte " << i;
            rejected++;
        }
    }
    EXPECT_GT(rejected, 0u);
}

/**
 * A checkpoint without SVR state as bytes, with field accessors: a
 * memory that holds an impossible state can't be frozen, so these
 * tests write it into the bytes directly.
 */
struct CheckpointBytes
{
    std::string bytes;
    std::size_t pages;   //!< page count
    std::size_t countAt; //!< offset of the instruction count

    explicit CheckpointBytes(std::uint64_t instructions)
    {
        const WorkloadInstance w = ckptWorkload();
        Executor exec(*w.program, *w.mem);
        exec.run(instructions);
        const Checkpoint ck = captureCheckpoint(exec, *w.mem, w.name);
        pages = FunctionalMemory(ck.mem).pagesTouched();
        bytes = serializeCheckpoint(ck);
        // After the magic and the length-prefixed workload name.
        countAt = 8 + 4 + w.name.size();
    }

    /** Offset of the page records: the trailing hasSvr byte is 0. */
    std::size_t
    pagesAt() const
    {
        return bytes.size() - 1 - pages * (8 + pageBytes);
    }

    void
    put(std::size_t at, std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            bytes[at + i] = static_cast<char>(v >> (8 * i));
    }

    /** The error deserializing the bytes throws; fails if none. */
    std::string
    rejection() const
    {
        try {
            deserializeCheckpoint(bytes);
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrCode::IoError);
            return e.message();
        }
        ADD_FAILURE() << "impossible checkpoint accepted";
        return "";
    }
};

TEST(Checkpoint, PageBeyondTheAddressSpaceIsRejected)
{
    CheckpointBytes ck(4000);
    ASSERT_GT(ck.pages, 0u);
    const std::size_t last_page = ck.bytes.size() - 1 - (8 + pageBytes);
    // pageNum << 12 would wrap this page onto address 0x1000.
    ck.put(last_page, FunctionalMemory::pageNumLimit + 1);
    EXPECT_NE(ck.rejection().find("page number"), std::string::npos);
    ck.put(last_page, FunctionalMemory::pageNumLimit - 1);
    EXPECT_NO_THROW(deserializeCheckpoint(ck.bytes));
}

TEST(Checkpoint, AllocTopBelowTheDataBaseIsRejected)
{
    CheckpointBytes ck(4000);
    // The cursor precedes the page count.
    const std::size_t alloc_top = ck.pagesAt() - 16;
    // No memory could hold this cursor.
    ck.put(alloc_top, FunctionalMemory::dataBase - 1);
    EXPECT_NE(ck.rejection().find("allocation cursor"), std::string::npos);
    ck.put(alloc_top, FunctionalMemory::dataBase);
    EXPECT_NO_THROW(deserializeCheckpoint(ck.bytes));
}

TEST(Checkpoint, InstructionCountDisagreeingWithSeqIsRejected)
{
    CheckpointBytes ck(4000);
    ck.put(ck.countAt, 4001);
    EXPECT_NE(ck.rejection().find("instruction count disagrees"),
              std::string::npos);
    ck.put(ck.countAt, 4000);
    EXPECT_EQ(deserializeCheckpoint(ck.bytes).arch.seq, 4000u);
}

// ---------------------------------------------------------------------
// Byte format golden
// ---------------------------------------------------------------------

const std::string goldenPath =
    std::string(SVR_GOLDEN_DIR) + "/checkpoint_digests.txt";

/** 64-bit FNV-1a of @p bytes. */
std::string
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Each quick-suite workload's checkpoint bytes after 20k instructions
 * of SVR16 timing, predictor state included.
 */
std::map<std::string, std::string>
currentDigests()
{
    const SimConfig config = presets::svrCore(16);
    const WatchdogParams wd = resolveWatchdog(config);
    std::map<std::string, std::string> d;
    for (const WorkloadSpec &spec : quickSuite()) {
        const WorkloadInstance w = spec.make();
        Executor exec(*w.program, *w.mem);
        MemorySystem mem(config.mem);
        SvrEngine engine(config.svr, mem, exec);
        InOrderCore core(config.inorder, mem);
        core.setRunaheadEngine(&engine);
        core.run(exec, 20000, wd);
        d[spec.name] = fnv1a(serializeCheckpoint(
            captureCheckpoint(exec, *w.mem, w.name, &engine)));
    }
    return d;
}

/**
 * The SVRCKP01 format is pinned by digest
 * (tests/golden/checkpoint_digests.txt): a change to how checkpoints
 * are held or captured must leave it passing. Only an intentional
 * format change (which also bumps the magic) rewrites it, with
 *
 *     UPDATE_GOLDEN=1 ./build/tests/svrsim_sampling_tests \
 *         --gtest_filter='CheckpointGolden.*'
 */
TEST(CheckpointGolden, BytesMatchDigests)
{
    const auto now = currentDigests();
    if (std::getenv("UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath);
        out << "# FNV-1a 64 digests of serializeCheckpoint() bytes "
               "(tests/test_checkpoint.cc):\n"
               "# each quick-suite workload after 20k instructions of "
               "SVR16 timing, with predictor state.\n";
        for (const auto &[key, digest] : now)
            out << key << ' ' << digest << '\n';
        GTEST_SKIP() << "UPDATE_GOLDEN set: rewrote " << goldenPath;
    }

    std::map<std::string, std::string> golden;
    std::ifstream in(goldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        fields >> key >> digest;
        golden[key] = digest;
    }
    ASSERT_FALSE(golden.empty()) << "cannot read " << goldenPath;
    EXPECT_EQ(now, golden);
}

} // namespace
} // namespace svr
