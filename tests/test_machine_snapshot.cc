/**
 * @file
 * Machine snapshot properties. The snapshot a sampled row takes at a
 * window start (sim/sampled_sim.hh) is the executor's architectural
 * state (Executor::exportArchState()), the memory frozen into a
 * FunctionalMemory::Image, and the SVR predictor state
 * (SvrEngine::exportState()). A fresh build resumed from it — its
 * memory replaced by a fork of the image, importArchState() on its
 * executor, importState() on a fresh engine — continues bit-identically
 * to the machine the snapshot was taken from:
 *  - functionally, instruction by instruction;
 *  - in a detailed timing continuation on every core model, against
 *    the original machine after the image is thawed back into it;
 *  - in the SVR predictor state it carries.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/executor.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "svr/svr_engine.hh"
#include "test_helpers.hh"

namespace svr
{
namespace
{

/**
 * Small but DRAM-active histogram loop that never halts:
 *   for (;;) for (i = 0; i < n; i++) sum += ++table[index[i]];
 * Its loads read what earlier iterations stored, so a resume on any
 * memory but the snapshot's diverges.
 */
WorkloadInstance
snapshotWorkload()
{
    constexpr std::uint32_t n = 1 << 12, table_entries = 1 << 15;
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(7);
    std::vector<std::uint32_t> index(n);
    for (auto &v : index)
        v = static_cast<std::uint32_t>(rng.nextBounded(table_entries));
    const Addr index_base = layoutArray32(*mem, index);
    const Addr table_base = layoutZeros(*mem, table_entries, 8);

    ProgramBuilder b("histogram");
    b.li(5, table_base);
    b.li(12, 0);
    b.label("top");
    b.li(1, index_base);
    b.li(2, index_base + static_cast<Addr>(n) * 4);
    b.label("loop");
    b.lw(6, 1, 0);
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);
    b.addi(8, 8, 1);
    b.sd(8, 7, 0);
    b.add(12, 12, 8);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.jmp("top");

    WorkloadInstance w;
    w.name = "histogram";
    w.mem = mem;
    w.program = std::make_shared<Program>(b.build());
    return w;
}

/** Freeze @p mem into an image (no page copied); @p mem is left empty. */
std::shared_ptr<FunctionalMemory::Image>
freeze(FunctionalMemory &mem)
{
    return std::make_shared<FunctionalMemory::Image>(std::move(mem));
}

/**
 * Resume a fresh build's @p exec over @p mem from a snapshot, as a
 * sampled row resumes each config at a window start: @p mem becomes a
 * fork of @p image and @p exec imports @p arch.
 */
void
resume(Executor &exec, FunctionalMemory &mem, const ExecArchState &arch,
       std::shared_ptr<const FunctionalMemory::Image> image)
{
    mem = FunctionalMemory(std::move(image));
    exec.importArchState(arch);
}

/** FNV-style hash of every materialized page (order-sensitive). */
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

TEST(MachineSnapshot, RestoreMatchesUninterruptedFunctionalRun)
{
    constexpr std::uint64_t n1 = 30000, n2 = 50000;

    // Uninterrupted reference.
    const WorkloadInstance ref_w = snapshotWorkload();
    Executor ref(*ref_w.program, *ref_w.mem);
    ref.run(n1);

    // Snapshot at n1, resumed on a fresh build.
    const WorkloadInstance a_w = snapshotWorkload();
    Executor a(*a_w.program, *a_w.mem);
    a.run(n1);
    const ExecArchState start = a.exportArchState();
    const auto image = freeze(*a_w.mem);

    const WorkloadInstance b_w = snapshotWorkload();
    Executor b(*b_w.program, *b_w.mem);
    resume(b, *b_w.mem, start, image);
    EXPECT_EQ(b.instructionsExecuted(), n1);

    // The continuation's dynamic stream matches the reference's
    // instruction by instruction.
    for (std::uint64_t i = 0; i < n2; i++) {
        const DynInst x = b.step();
        const DynInst y = ref.step();
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
 * The headline property: a detailed timing continuation of a machine
 * resumed from a snapshot is bit-identical — same CoreStats, same final
 * architectural state and memory — to the same continuation of the
 * machine the snapshot was taken from, once the image is thawed back
 * into it. Runs on every core model.
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

    // Original machine: fast-forward to n1 and take the snapshot.
    const WorkloadInstance a_w = snapshotWorkload();
    Executor a(*a_w.program, *a_w.mem);
    a.run(n1);
    const ExecArchState start = a.exportArchState();
    auto image = freeze(*a_w.mem);

    // Resumed machine: continue in detailed timing over a fresh memory
    // hierarchy, then drop its fork.
    const WorkloadInstance b_w = snapshotWorkload();
    Executor b(*b_w.program, *b_w.mem);
    resume(b, *b_w.mem, start, image);
    MemorySystem b_mem(config.mem);
    const CoreStats b_stats =
        runTimingWindow(config, b_mem, b, *b_w.mem, {}, wd, tw);
    const std::uint64_t b_fingerprint = memoryFingerprint(*b_w.mem);
    *b_w.mem = FunctionalMemory();

    // The original machine takes its pages back and runs the same
    // continuation.
    a_w.mem->thaw(std::move(image));
    MemorySystem a_mem(config.mem);
    const CoreStats a_stats =
        runTimingWindow(config, a_mem, a, *a_w.mem, {}, wd, tw);

    expectStatsEq(a_stats, b_stats, coreTypeName(GetParam()));
    for (RegId r = 0; r < numArchRegs; r++)
        ASSERT_EQ(a.readReg(r), b.readReg(r)) << "x" << unsigned(r);
    EXPECT_TRUE(a.flags() == b.flags());
    EXPECT_EQ(a.pcIndex(), b.pcIndex());
    EXPECT_EQ(memoryFingerprint(*a_w.mem), b_fingerprint);
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

TEST(MachineSnapshot, SvrPredictorStateCarriesAcrossRestore)
{
    SimConfig config = presets::svrCore(16);
    const WatchdogParams wd = resolveWatchdog(config);

    const WorkloadInstance w = snapshotWorkload();
    Executor exec(*w.program, *w.mem);
    MemorySystem mem(config.mem);
    SvrEngine engine(config.svr, mem, exec);
    InOrderCore core(InOrderParams{}, mem);
    core.setRunaheadEngine(&engine);
    core.run(exec, 30000, wd);

    const SvrEngineSnapshot snap = engine.exportState();
    const ExecArchState start = exec.exportArchState();
    const auto image = freeze(*w.mem);

    // A fresh engine on the resumed machine, warmed from the snapshot,
    // exports the same state right back.
    const WorkloadInstance w2 = snapshotWorkload();
    Executor exec2(*w2.program, *w2.mem);
    resume(exec2, *w2.mem, start, image);
    MemorySystem mem2(config.mem);
    SvrEngine engine2(config.svr, mem2, exec2);
    engine2.importState(snap);
    const SvrEngineSnapshot out = engine2.exportState();
    ASSERT_EQ(out.strideEntries.size(), snap.strideEntries.size());
    EXPECT_EQ(out.strideClock, snap.strideClock);
    EXPECT_EQ(out.governorBanned, snap.governorBanned);
    for (std::size_t i = 0; i < out.strideEntries.size(); i++) {
        EXPECT_EQ(out.strideEntries[i].pc, snap.strideEntries[i].pc);
        EXPECT_EQ(out.strideEntries[i].stride,
                  snap.strideEntries[i].stride);
        EXPECT_EQ(out.strideEntries[i].lastUse,
                  snap.strideEntries[i].lastUse);
    }
}

} // namespace
} // namespace svr
