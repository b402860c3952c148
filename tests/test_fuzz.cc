/**
 * @file
 * Differential fuzzing: random programs with data-dependent branches,
 * stores, and indirect loads are run on every timing model; final
 * architectural state (registers AND memory) must match the pure
 * functional reference, and no timing invariant may break. This is
 * the strongest guard against SVR's transient machinery leaking into
 * architectural state.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "analysis/archcheck.hh"
#include "common/rng.hh"
#include "core/executor.hh"
#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "mem/memory_system.hh"
#include "sim/simulator.hh"
#include "svr/svr_engine.hh"
#include "workloads/workload.hh"

namespace svr
{
namespace
{

constexpr std::uint32_t regionBytes = 1 << 16;
constexpr std::uint32_t regionMask = regionBytes - 8;

/**
 * Generate a random but always-terminating program: an outer counted
 * loop whose body mixes ALU ops, bounded loads/stores, compares, and
 * forward data-dependent branches.
 */
WorkloadInstance
branchyProgram(std::uint64_t seed)
{
    Rng rng(seed);
    auto mem = std::make_shared<FunctionalMemory>();
    const Addr data = mem->alloc(regionBytes, 64);
    for (std::uint32_t i = 0; i < regionBytes / 8; i++)
        mem->write64(data + i * 8, rng.next());

    ProgramBuilder b("fuzz");
    b.li(1, data);
    b.li(2, 200 + rng.nextBounded(2000)); // iterations
    b.li(3, 0);
    // Seed working registers.
    for (RegId r = 4; r < 14; r++)
        b.li(r, rng.next());
    b.label("loop");
    const unsigned body = 4 + rng.nextBounded(16);
    unsigned skip_label = 0;
    for (unsigned i = 0; i < body; i++) {
        const auto rd = static_cast<RegId>(4 + rng.nextBounded(10));
        const auto ra = static_cast<RegId>(4 + rng.nextBounded(10));
        const auto rb = static_cast<RegId>(4 + rng.nextBounded(10));
        switch (rng.nextBounded(10)) {
          case 0:
            b.add(rd, ra, rb);
            break;
          case 1:
            b.sub(rd, ra, rb);
            break;
          case 2:
            b.mul(rd, ra, rb);
            break;
          case 3:
            b.xori(rd, ra,
                   static_cast<std::int64_t>(rng.nextBounded(1 << 16)));
            break;
          case 4: {
            // Bounded indirect load.
            b.andi(rd, ra, regionMask);
            b.add(rd, rd, 1);
            b.ld(rd, rd, 0);
            break;
          }
          case 5: {
            // Bounded indirect store.
            b.andi(rd, ra, regionMask);
            b.add(rd, rd, 1);
            b.sd(rb, rd, 0);
            // rd now holds an address; keep it bounded for later use.
            break;
          }
          case 6: {
            // Data-dependent forward branch over one instruction.
            const std::string label =
                "skip" + std::to_string(skip_label++);
            b.cmp(ra, rb);
            if (rng.nextBounded(2))
                b.blt(label);
            else
                b.bne(label);
            b.addi(rd, rd, 3);
            b.label(label);
            break;
          }
          case 7:
            b.srli(rd, ra, rng.nextBounded(16));
            break;
          case 8:
            b.fadd(rd, ra, rb);
            break;
          default:
            b.or_(rd, ra, rb);
            break;
        }
    }
    b.addi(3, 3, 1);
    b.cmp(3, 2);
    b.blt("loop");
    b.halt();

    WorkloadInstance w;
    w.name = "fuzz";
    w.mem = mem;
    w.program = std::make_shared<Program>(b.build());
    return w;
}

/** Hash the data region for cheap memory-state comparison. */
std::uint64_t
memoryFingerprint(FunctionalMemory &mem, Addr base)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < regionBytes / 8; i++) {
        h ^= mem.read64(base + i * 8);
        h *= 0x100000001b3ULL;
    }
    return h;
}

class FuzzPrograms : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzPrograms, AllCoresMatchFunctionalReference)
{
    const std::uint64_t seed = GetParam();

    // Functional reference.
    const WorkloadInstance ref_w = branchyProgram(seed);
    const Addr data_base = 0x10000000; // first alloc in a fresh memory
    Executor ref(*ref_w.program, *ref_w.mem);
    while (!ref.halted())
        ref.step();
    const std::uint64_t ref_fp = memoryFingerprint(*ref_w.mem, data_base);

    struct Variant
    {
        const char *name;
        int kind; // 0 = InO, 1 = OoO, 2 = SVR16, 3 = SVR64
    };
    const Variant variants[] = {
        {"inorder", 0}, {"ooo", 1}, {"svr16", 2}, {"svr64", 3}};

    for (const Variant &v : variants) {
        const WorkloadInstance w = branchyProgram(seed);
        MemorySystem mem(MemParams{});
        Executor exec(*w.program, *w.mem);
        CoreStats stats;
        if (v.kind == 0) {
            InOrderCore core(InOrderParams{}, mem);
            stats = core.run(exec, 1u << 23);
        } else if (v.kind == 1) {
            OoOCore core(OoOParams{}, mem);
            stats = core.run(exec, 1u << 23);
        } else {
            SvrParams sp;
            sp.vectorLength = v.kind == 2 ? 16 : 64;
            SvrEngine engine(sp, mem, exec);
            InOrderCore core(InOrderParams{}, mem);
            core.setRunaheadEngine(&engine);
            stats = core.run(exec, 1u << 23);
        }
        ASSERT_TRUE(exec.halted()) << v.name << " seed " << seed;

        // Architectural registers match.
        for (RegId r = 0; r < numArchRegs; r++) {
            ASSERT_EQ(exec.readReg(r), ref.readReg(r))
                << v.name << " seed " << seed << " x" << unsigned(r);
        }
        // Memory matches (SVR's transient lanes must not write).
        EXPECT_EQ(memoryFingerprint(*w.mem, data_base), ref_fp)
            << v.name << " seed " << seed;
        // Timing invariants hold.
        const Cycle sum = stats.stackBase() + stats.stackL2 +
                          stats.stackDram + stats.stackBranch +
                          stats.stackSvu + stats.stackOther;
        EXPECT_EQ(sum, stats.cycles) << v.name << " seed " << seed;
        EXPECT_EQ(stats.instructions, ref.instructionsExecuted())
            << v.name << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPrograms,
                         ::testing::Range<std::uint64_t>(100, 124));

/**
 * Randomized snapshot placement: cut each fuzz program at an arbitrary
 * commit — which lands in arbitrary machine states: mid-SVR-round (the
 * first segment runs under a live runahead engine), right after the
 * generator's +1-offset bounded stores (page-straddling write
 * boundaries) — take the snapshot a sampled row takes (architectural
 * state, memory frozen into an image, SVR predictor state), resume a
 * fresh build on a fork of the image, and finish the run on SVR
 * timing. The resumed half is cross-checked commit-by-commit against a
 * lockstep twin resumed from the same snapshot (ArchCheck) and the
 * final architectural state must match the uninterrupted functional
 * reference exactly.
 */
class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CheckpointFuzz, ResumedSvrRunMatchesReferenceUnderLockstep)
{
    const std::uint64_t seed = GetParam();

    // Uninterrupted functional reference.
    const WorkloadInstance ref_w = branchyProgram(seed);
    const Addr data_base = 0x10000000; // first alloc in a fresh memory
    Executor ref(*ref_w.program, *ref_w.mem);
    while (!ref.halted())
        ref.step();
    const std::uint64_t total = ref.instructionsExecuted();
    const std::uint64_t ref_fp = memoryFingerprint(*ref_w.mem, data_base);

    // Random cut strictly inside the region.
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    ASSERT_GT(total, 2u);
    const std::uint64_t n1 = 1 + rng.nextBounded(total - 2);

    // Segment 1 under SVR timing, so the snapshot is taken from a
    // machine with a warm (possibly mid-round) runahead engine.
    const WorkloadInstance w1 = branchyProgram(seed);
    Executor exec1(*w1.program, *w1.mem);
    MemorySystem mem1(MemParams{});
    SvrParams sp;
    sp.vectorLength = 16;
    SvrEngine engine1(sp, mem1, exec1);
    InOrderCore core1(InOrderParams{}, mem1);
    core1.setRunaheadEngine(&engine1);
    core1.run(exec1, n1);
    ASSERT_FALSE(exec1.halted()) << "seed " << seed << " n1 " << n1;

    const ExecArchState start = exec1.exportArchState();
    const SvrEngineSnapshot svr = engine1.exportState();
    const auto image =
        std::make_shared<const FunctionalMemory::Image>(std::move(*w1.mem));

    // Segment 2: resume a fresh build on a fork of the image and finish
    // the run; the lockstep twin resumes from the same snapshot.
    const WorkloadInstance w2 = branchyProgram(seed);
    *w2.mem = FunctionalMemory(image);
    Executor exec2(*w2.program, *w2.mem);
    exec2.importArchState(start);

    const SimConfig config = presets::svrCore(16);
    WorkloadInstance twin = branchyProgram(seed);
    *twin.mem = FunctionalMemory(image);
    ArchCheck ac(std::move(twin), start);
    SimHooks hooks;
    if (ArchCheck::enabled()) {
        hooks = ac.hooks();
        // simulate() fires onExecutor; we drive runTimingWindow
        // directly, so fire it by hand.
        hooks.onExecutor(exec2);
    }
    MemorySystem mem2(MemParams{});
    TimingWindow window;
    window.maxInstructions = 1u << 23;
    window.svrIn = &svr;
    runTimingWindow(config, mem2, exec2, *w2.mem, hooks,
                    resolveWatchdog(config), window);

    ASSERT_TRUE(exec2.halted()) << "seed " << seed << " n1 " << n1;
    EXPECT_EQ(exec2.instructionsExecuted(), total);
    for (RegId r = 0; r < numArchRegs; r++) {
        ASSERT_EQ(exec2.readReg(r), ref.readReg(r))
            << "seed " << seed << " n1 " << n1 << " x" << unsigned(r);
    }
    EXPECT_EQ(memoryFingerprint(*w2.mem, data_base), ref_fp)
        << "seed " << seed << " n1 " << n1;
    if (ArchCheck::enabled()) {
        EXPECT_EQ(ac.commitsChecked(), total - n1);
        ac.finish();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz,
                         ::testing::Range<std::uint64_t>(200, 216));

/**
 * Fuzz the RNG stream-splitting API used by the parallel experiment
 * engine: randomly generated (base seed, workload, config) cells must
 * replay identically, and distinct cells must yield decorrelated
 * streams (no shared prefix, ~50% bit agreement).
 */
class RngStreamFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** Random printable identifier, like a workload/config label. */
    static std::string
    randomName(Rng &rng)
    {
        static const char alphabet[] =
            "abcdefghijklmnopqrstuvwxyzABCDEF0123456789_";
        const std::size_t len = 1 + rng.nextBounded(12);
        std::string s;
        for (std::size_t i = 0; i < len; i++)
            s += alphabet[rng.nextBounded(sizeof(alphabet) - 1)];
        return s;
    }

    /** Fraction of agreeing bits over @p n draws from two streams. */
    static double
    bitAgreement(Rng a, Rng b, int n)
    {
        std::uint64_t same = 0;
        for (int i = 0; i < n; i++)
            same += 64 - static_cast<unsigned>(
                             __builtin_popcountll(a.next() ^ b.next()));
        return static_cast<double>(same) / (64.0 * n);
    }
};

TEST_P(RngStreamFuzz, SameCellReplaysIdentically)
{
    Rng meta(GetParam());
    for (int trial = 0; trial < 8; trial++) {
        const std::uint64_t base = meta.next();
        const std::string w = randomName(meta);
        const std::string c = randomName(meta);
        ASSERT_EQ(Rng::cellSeed(base, w, c), Rng::cellSeed(base, w, c));
        Rng a = Rng::forCell(base, w, c);
        Rng b = Rng::forCell(base, w, c);
        for (int i = 0; i < 256; i++)
            ASSERT_EQ(a.next(), b.next()) << w << "/" << c;
    }
}

TEST_P(RngStreamFuzz, DistinctCellsAreDecorrelated)
{
    Rng meta(GetParam());
    const std::uint64_t base = meta.next();
    const std::string w1 = randomName(meta);
    const std::string c1 = randomName(meta);
    const std::string w2 = w1 + "x"; // near-collision on purpose
    const std::string c2 = c1 + "x";

    const Rng aa = Rng::forCell(base, w1, c1);
    const Rng ab = Rng::forCell(base, w1, c2);
    const Rng ba = Rng::forCell(base, w2, c1);
    const Rng other = Rng::forCell(base + 1, w1, c1);

    // Bitwise agreement with an independent stream concentrates hard
    // around 0.5; anything outside [0.45, 0.55] over 256 draws means
    // the derivation leaked structure.
    for (const Rng &peer : {ab, ba, other}) {
        const double agree = bitAgreement(aa, peer, 256);
        EXPECT_GT(agree, 0.45);
        EXPECT_LT(agree, 0.55);
    }
}

TEST_P(RngStreamFuzz, SplitSubstreamsDecorrelatedAndStable)
{
    Rng parent(GetParam());
    Rng replay(GetParam());
    Rng s0 = parent.split(0);
    Rng s1 = parent.split(1);
    Rng s0_again = replay.split(0);

    for (int i = 0; i < 64; i++)
        ASSERT_EQ(s0.next(), s0_again.next());

    const double agree =
        bitAgreement(parent.split(2), parent.split(3), 256);
    EXPECT_GT(agree, 0.45);
    EXPECT_LT(agree, 0.55);
    (void)s1;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngStreamFuzz,
                         ::testing::Range<std::uint64_t>(0, 16));

/**
 * Differential check of FunctionalMemory against a trivial byte map:
 * random reads and writes of every width, clustered around page and
 * directory boundaries so both the memcpy fast path and the
 * byte-by-byte straddling path are exercised, must agree with the
 * reference exactly (unmapped bytes read as zero).
 */
TEST(Fuzz, FunctionalMemoryMatchesByteReference)
{
    Rng rng(0xfeedface);
    FunctionalMemory m;
    std::unordered_map<Addr, std::uint8_t> ref;
    const Addr bases[] = {0, pageBytes - 8, 3 * pageBytes - 8,
                          (Addr(1) << 21) - 8, 0x10000000};
    for (unsigned iter = 0; iter < 100000; iter++) {
        const Addr addr =
            bases[rng.nextBounded(5)] + rng.nextBounded(32);
        const unsigned bytes = 1u << rng.nextBounded(4);
        if (rng.nextBounded(2) == 0) {
            const std::uint64_t val = rng.next();
            m.write(addr, val, bytes);
            for (unsigned i = 0; i < bytes; i++)
                ref[addr + i] =
                    static_cast<std::uint8_t>(val >> (8 * i));
        } else {
            std::uint64_t expect = 0;
            for (unsigned i = 0; i < bytes; i++) {
                const auto it = ref.find(addr + i);
                if (it != ref.end())
                    expect |= static_cast<std::uint64_t>(it->second)
                              << (8 * i);
            }
            ASSERT_EQ(m.read(addr, bytes), expect)
                << "addr=" << addr << " bytes=" << bytes
                << " iter=" << iter;
        }
    }
}

} // namespace
} // namespace svr
