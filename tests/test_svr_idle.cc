/**
 * @file
 * The SVR engine's cheap idle path against naive references: the
 * accuracy governor, re-evaluated only when its counters move, must
 * ban at exactly the instruction a per-instruction evaluation would;
 * and the O(1) Seen-bit clear must read back, through exportState()
 * and an importState() round trip, as a naive "clear all but the HSLR"
 * would leave it, across nested-loop aborts and independent-loop
 * retargets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "test_helpers.hh"

namespace svr
{
namespace
{

/** One engine driven from the executor, as in test_svr_engine.cc. */
struct Rig
{
    Rig(WorkloadInstance w, const SvrParams &sp,
        const MemParams &mp = noStridePf())
        : work(std::move(w)),
          mem(mp),
          exec(*work.program, *work.mem),
          engine(sp, mem, exec)
    {
    }

    static MemParams
    noStridePf()
    {
        MemParams p;
        p.enableStridePf = false;
        return p;
    }

    /** The core's demand access for @p dyn, then the engine. */
    void
    issue(const DynInst &dyn)
    {
        if (dyn.si->isLoad()) {
            const AccessResult r =
                mem.access(AccessKind::Load, dyn.pc, dyn.addr, cycle);
            cycle = std::max(cycle, r.done);
        } else if (dyn.si->isStore()) {
            mem.access(AccessKind::Store, dyn.pc, dyn.addr, cycle);
        }
        engine.onIssue(dyn, cycle);
        cycle += 2;
    }

    WorkloadInstance work;
    MemorySystem mem;
    Executor exec;
    SvrEngine engine;
    Cycle cycle = 100;
};

/**
 * A stride-indirect loop of four iterations per segment, with
 * segments 32 indices apart: at full vector length, 12 of every 16
 * lanes prefetch lines demand never touches.
 */
WorkloadInstance
shortSegments()
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(17);
    const std::uint32_t entries = 1 << 20;
    const std::uint32_t segments = 1 << 10;
    std::vector<std::uint32_t> idx(segments * 32);
    for (auto &v : idx)
        v = static_cast<std::uint32_t>(rng.nextBounded(entries));
    const Addr ib = layoutArray32(*mem, idx);
    const Addr tb = layoutZeros(*mem, entries, 8);
    ProgramBuilder b("segments");
    b.li(5, tb);
    b.label("top");
    b.li(1, ib);
    b.li(3, ib + static_cast<Addr>(idx.size()) * 4);
    b.label("segment");
    b.addi(2, 1, 4 * 4);
    b.label("loop");
    b.lw(6, 1, 0);
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loop");
    b.addi(1, 1, 28 * 4);
    b.cmp(1, 3);
    b.blt("segment");
    b.jmp("top");
    return {"segments", mem, std::make_shared<Program>(b.build())};
}

/** Counts a governor run ends with. */
struct GovernorRun
{
    std::uint64_t bans = 0;
    std::uint64_t used = 0;   //!< LLC first uses of SVR lines
    std::uint64_t unused = 0; //!< SVR lines evicted unused from the LLC
};

/**
 * Runs @p n instructions and checks the ban flag and ban count after
 * each against a governor evaluated on every instruction, as
 * section IV-A7 states it. Small caches make the LLC evict unused SVR
 * lines early, so both governor counters move.
 */
GovernorRun
checkGovernorAgainstPerInstruction(WorkloadInstance w, const SvrParams &sp,
                                   std::uint64_t n)
{
    MemParams mp = Rig::noStridePf();
    mp.l1d.sizeBytes = 4 * 1024;
    mp.l2.sizeBytes = 16 * 1024;
    Rig rig(std::move(w), sp, mp);
    bool banned = false;
    std::uint64_t bans = 0;
    std::uint64_t since_reset = 0;
    std::uint64_t base_used = 0;
    std::uint64_t base_unused = 0;
    for (std::uint64_t i = 0; i < n && !rig.exec.halted(); i++) {
        const DynInst dyn = rig.exec.step();
        if (dyn.si->isLoad())
            rig.mem.access(AccessKind::Load, dyn.pc, dyn.addr, rig.cycle);
        // The window restarts before the engine sees the instruction.
        if (++since_reset >= sp.governorResetInterval) {
            since_reset = 0;
            banned = false;
            base_used = rig.mem.llcPrefFirstUse(PrefetchOrigin::Svr);
            base_unused = rig.mem.llcPrefEvictedUnused(PrefetchOrigin::Svr);
        }
        rig.engine.onIssue(dyn, rig.cycle);
        rig.cycle += 2;
        if (!banned) {
            const std::uint64_t used =
                rig.mem.llcPrefFirstUse(PrefetchOrigin::Svr) - base_used;
            const std::uint64_t unused =
                rig.mem.llcPrefEvictedUnused(PrefetchOrigin::Svr) -
                base_unused;
            if (used + unused >= sp.governorWarmup &&
                static_cast<double>(used) /
                        static_cast<double>(used + unused) <
                    sp.governorThreshold) {
                banned = true;
                bans++;
            }
        }
        EXPECT_EQ(rig.engine.governorBanned(), banned) << "instr " << i;
        EXPECT_EQ(rig.engine.stats().governorBans, bans) << "instr " << i;
        if (rig.engine.governorBanned() != banned)
            break;
    }
    return {bans, rig.mem.llcPrefFirstUse(PrefetchOrigin::Svr),
            rig.mem.llcPrefEvictedUnused(PrefetchOrigin::Svr)};
}

TEST(SvrIdle, GovernorBansAtThePerInstructionInstant)
{
    for (double threshold : {1.01, 0.9, 0.5, 0.2}) {
        for (std::uint64_t warmup : {1u, 20u, 100u}) {
            SvrParams sp;
            sp.governorThreshold = threshold;
            sp.governorWarmup = warmup;
            sp.governorResetInterval = 3000; // several windows, re-bans
            sp.loopBound = LoopBoundMode::Maxlength;
            const GovernorRun run =
                checkGovernorAgainstPerInstruction(shortSegments(), sp, 20000);
            // Both counters moved, and the governor banned.
            EXPECT_GT(run.used, 0u);
            EXPECT_GT(run.unused, 0u);
            EXPECT_GT(run.bans, 0u) << "threshold " << threshold;
        }
    }
}

TEST(SvrIdle, GovernorQuietOnAccurateChains)
{
    SvrParams sp;
    sp.governorWarmup = 20;
    sp.governorResetInterval = 5000;
    const GovernorRun run = checkGovernorAgainstPerInstruction(
        test::strideIndirect(1 << 14, 1 << 18), sp, 20000);
    EXPECT_GT(run.used, 0u);
    EXPECT_EQ(run.bans, 0u);
}

/**
 * Figure 9 (top), as in FigureTimelines.Fig9NestedLoopsAbortToInner:
 * an outer striding load A owns runahead while the inner striding load
 * B trains with trip count 1; then the full inner loop runs inside A's
 * rounds, B is sighted twice, and the round aborts to B.
 */
WorkloadInstance
nestedLoops()
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(71);
    const std::uint32_t outer_n = 1 << 10;
    const std::uint32_t inner_n = 24;
    std::vector<std::uint32_t> idx(outer_n * inner_n);
    for (auto &v : idx)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 18));
    const Addr idx_base = layoutArray32(*mem, idx);
    const Addr tab = layoutZeros(*mem, 1 << 18, 8);
    std::vector<std::uint64_t> outer_vals(outer_n);
    for (auto &v : outer_vals)
        v = rng.nextBounded(1 << 18);
    const Addr outer_arr = layoutArray64(*mem, outer_vals);
    ProgramBuilder b("nested");
    b.li(5, tab);
    b.label("top");
    b.li(20, outer_arr);
    b.li(21, outer_arr + static_cast<Addr>(outer_n) * 8);
    b.li(1, idx_base);
    b.li(23, 0);
    b.label("outer");
    b.ld(22, 20, 0);   // A
    b.slli(24, 22, 3);
    b.add(24, 5, 24);
    b.ld(25, 24, 0);
    b.cmpi(23, 64);
    b.bge("full");
    b.addi(2, 1, 4);
    b.jmp("have");
    b.label("full");
    b.addi(2, 1, inner_n * 4);
    b.label("have");
    b.label("inner");
    b.lw(6, 1, 0);     // B
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("inner");
    b.addi(23, 23, 1);
    b.addi(20, 20, 8);
    b.cmp(20, 21);
    b.blt("outer");
    b.jmp("top");
    return {"nested", mem, std::make_shared<Program>(b.build())};
}

/** Two short independent stride-indirect loops, alternating. */
WorkloadInstance
independentLoops()
{
    auto mem = std::make_shared<FunctionalMemory>();
    Rng rng(43);
    const std::uint32_t n = 512;
    std::vector<std::uint32_t> ia(n), ib(n);
    for (auto &v : ia)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 17));
    for (auto &v : ib)
        v = static_cast<std::uint32_t>(rng.nextBounded(1 << 17));
    const Addr a_base = layoutArray32(*mem, ia);
    const Addr b_base = layoutArray32(*mem, ib);
    const Addr t1 = layoutZeros(*mem, 1 << 17, 8);
    const Addr t2 = layoutZeros(*mem, 1 << 17, 8);
    ProgramBuilder b("indep");
    b.li(5, t1);
    b.li(15, t2);
    b.label("top");
    b.li(1, a_base);
    b.li(2, a_base + static_cast<Addr>(n) * 4);
    b.label("loopA");
    b.lw(6, 1, 0);
    b.slli(7, 6, 3);
    b.add(7, 5, 7);
    b.ld(8, 7, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loopA");
    b.li(1, b_base);
    b.li(2, b_base + static_cast<Addr>(n) * 4);
    b.label("loopB");
    b.lw(9, 1, 0);
    b.slli(10, 9, 3);
    b.add(10, 15, 10);
    b.ld(11, 10, 0);
    b.addi(1, 1, 4);
    b.cmp(1, 2);
    b.blt("loopB");
    b.jmp("top");
    return {"indep", mem, std::make_shared<Program>(b.build())};
}

/** PCs whose exported Seen bit is set. */
std::set<Addr>
seenPcs(const SvrEngineSnapshot &snap)
{
    std::set<Addr> pcs;
    for (const StrideEntry &e : snap.strideEntries) {
        if (e.valid && e.seen)
            pcs.insert(e.pc);
    }
    return pcs;
}

void
expectSameSnapshot(const SvrEngineSnapshot &a, const SvrEngineSnapshot &b,
                   std::uint64_t instr)
{
    ASSERT_EQ(a.strideEntries.size(), b.strideEntries.size());
    ASSERT_EQ(a.strideClock, b.strideClock) << "instr " << instr;
    for (std::size_t i = 0; i < a.strideEntries.size(); i++) {
        const StrideEntry &x = a.strideEntries[i];
        const StrideEntry &y = b.strideEntries[i];
        ASSERT_EQ(x.valid, y.valid) << "instr " << instr << " slot " << i;
        ASSERT_EQ(x.pc, y.pc) << "instr " << instr << " slot " << i;
        ASSERT_EQ(x.seen, y.seen) << "instr " << instr << " slot " << i;
        ASSERT_EQ(x.prevAddress, y.prevAddress) << "instr " << instr;
        ASSERT_EQ(x.satCounter, y.satCounter) << "instr " << instr;
        ASSERT_EQ(x.hasLastPrefetch, y.hasLastPrefetch) << "instr " << instr;
        ASSERT_EQ(x.lastUse, y.lastUse) << "instr " << instr;
    }
}

/**
 * Runs @p make's workload on two engines in lockstep. Between rounds,
 * engine B's predictor state goes through exportState() and
 * importState() after every instruction, so a Seen bit lost or
 * invented on the way would steer B's retarget and abort decisions
 * away from A's. After every instruction the exported
 * Seen bits obey the naive rule: after the HSLR load only the HSLR may
 * be Seen, and after a trigger or nested abort at pc X exactly X is.
 */
void
checkSeenBits(WorkloadInstance (*make)(), SvrParams sp, std::uint64_t n,
              std::uint64_t &aborts, std::uint64_t &retargets)
{
    sp.accuracyGovernor = false; // importState() restarts its window
    sp.enableEventLog = true;
    sp.eventLogCapacity = 1 << 20;
    Rig a(make(), sp);
    Rig b(make(), sp);
    std::optional<Addr> hslr;
    for (std::uint64_t i = 0; i < n && !a.exec.halted(); i++) {
        const DynInst dyn = a.exec.step();
        const DynInst dyn_b = b.exec.step();
        ASSERT_EQ(dyn.pc, dyn_b.pc);
        const std::size_t logged = a.engine.eventLog().size();
        a.issue(dyn);
        b.issue(dyn_b);

        const SvrEngineSnapshot snap = a.engine.exportState();
        const std::set<Addr> seen = seenPcs(snap);
        if (dyn.si->isLoad() && hslr && dyn.pc == *hslr) {
            EXPECT_TRUE(seen.empty() || seen == std::set<Addr>{*hslr})
                << "instr " << i;
        }
        for (std::size_t k = logged; k < a.engine.eventLog().size(); k++) {
            const SvrEvent &ev = a.engine.eventLog()[k];
            if (ev.kind == SvrEventKind::Trigger) {
                hslr = ev.pc;
            } else if (ev.kind == SvrEventKind::NestedAbort) {
                aborts++;
            } else if (ev.kind == SvrEventKind::Retarget) {
                retargets++;
            }
        }
        const SvrEvent *last = a.engine.eventLog().size() > logged
                                   ? &a.engine.eventLog().back()
                                   : nullptr;
        if (last && (last->kind == SvrEventKind::Trigger ||
                     last->kind == SvrEventKind::NestedAbort)) {
            EXPECT_EQ(seen, std::set<Addr>{last->pc}) << "instr " << i;
        }

        ASSERT_EQ(a.engine.inRunahead(), b.engine.inRunahead())
            << "instr " << i;
        expectSameSnapshot(b.engine.exportState(), snap, i);
        if (!b.engine.inRunahead())
            b.engine.importState(b.engine.exportState());
    }
    EXPECT_EQ(a.engine.stats().rounds, b.engine.stats().rounds);
    EXPECT_EQ(a.engine.stats().prefetches, b.engine.stats().prefetches);
    EXPECT_EQ(a.engine.eventLog().size(), b.engine.eventLog().size());
}

TEST(SvrIdle, SeenBitsMatchNaiveClearAcrossNestedAborts)
{
    std::uint64_t aborts = 0;
    std::uint64_t retargets = 0;
    SvrParams sp;
    sp.waitingMode = false; // lets A's rounds run into the inner loop
    checkSeenBits(nestedLoops, sp, 40000, aborts, retargets);
    EXPECT_GT(aborts, 0u);
}

TEST(SvrIdle, SeenBitsMatchNaiveClearAcrossRetargets)
{
    std::uint64_t aborts = 0;
    std::uint64_t retargets = 0;
    checkSeenBits(independentLoops, SvrParams{}, 40000, aborts, retargets);
    EXPECT_GT(retargets, 4u);
}

} // namespace
} // namespace svr
