#include "core/inorder_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/static_info.hh"

namespace svr
{

namespace
{
/** What produced a register value, for stall attribution. */
enum class ValueSource : std::uint8_t { Core, L2, Dram };
} // namespace

InOrderCore::InOrderCore(const InOrderParams &params, MemorySystem &memory)
    : p(params), mem(memory), bpred(params.bpred)
{
    if (p.width == 0)
        fatal("InOrderCore: width must be nonzero");
}

namespace
{

/** Context for a watchdog trip at the point the budget broke. */
ErrContext
tripContext(Cycle cycle, Addr pc, std::uint64_t instructions)
{
    ErrContext ctx;
    ctx.cycle = cycle;
    ctx.pc = pc;
    ctx.instructions = instructions;
    ctx.hasCycle = ctx.hasPc = ctx.hasInstructions = true;
    return ctx;
}

} // namespace

CoreStats
InOrderCore::run(Executor &exec, std::uint64_t max_instrs,
                 const WatchdogParams &wd, const MeasureWindow *measure)
{
    CoreStats stats;
    bpred.reset();

    // Precomputed per-static-instruction sources/latencies (indexed by
    // DynInst::index) keep opcode decoding off the per-commit path.
    const std::vector<StaticOpInfo> opInfo =
        buildStaticOpInfo(exec.program());

    // Warmup boundary (see core/measure.hh): at warmup_at committed
    // instructions, hand the counters to the measure hook. They keep
    // running monotonically through it, so the cycle domain (and every
    // ready-time in flight) is continuous.
    const std::uint64_t warmup_at = measure ? measure->warmupInstrs : 0;

    std::array<Cycle, numTrackedRegs> regReady{};
    std::array<ValueSource, numTrackedRegs> regSource{};
    regSource.fill(ValueSource::Core);

    Cycle issue_cycle = 1;    //!< cycle the current issue group occupies
    unsigned slots_used = 0;  //!< slots consumed in that cycle
    Cycle fetch_ready = 0;    //!< front-end redirect constraint
    bool fetch_stall_branch = false;
    Cycle svu_ready = 0;      //!< SVU lockstep blocking constraint

    while (stats.instructions < max_instrs && !exec.halted()) {
        const DynInst dyn = exec.step();
        const Instruction &inst = *dyn.si;
        const StaticOpInfo &sinfo = opInfo[dyn.index];

        // Earliest issue given operands, fetch, and SVU blocking.
        Cycle ready = issue_cycle;
        ValueSource stall_src = ValueSource::Core;
        bool stall_is_fetch = false;
        bool stall_is_svu = false;
        for (RegId s : sinfo.srcs) {
            if (s == invalidReg)
                continue;
            if (regReady[s] > ready) {
                ready = regReady[s];
                stall_src = regSource[s];
                stall_is_fetch = stall_is_svu = false;
            }
        }
        if (fetch_ready > ready) {
            ready = fetch_ready;
            stall_is_fetch = true;
            stall_is_svu = false;
        }
        if (svu_ready > ready) {
            ready = svu_ready;
            stall_is_svu = true;
            stall_is_fetch = false;
        }

        // Watchdog: a single stall longer than the budget means the
        // core is livelocked (reported at the last-progress cycle); a
        // ready cycle past the total budget means the run blew its
        // cycle allowance.
        if (wd.maxStallCycles && ready - issue_cycle > wd.maxStallCycles) {
            throw simErrorf(
                ErrCode::NoForwardProgress,
                tripContext(issue_cycle, dyn.pc, stats.instructions),
                "no instruction retired for %llu cycles (budget %llu)",
                static_cast<unsigned long long>(ready - issue_cycle),
                static_cast<unsigned long long>(wd.maxStallCycles));
        }
        if (wd.maxCycles && ready > wd.maxCycles) {
            throw simErrorf(
                ErrCode::CycleBudgetExceeded,
                tripContext(ready, dyn.pc, stats.instructions),
                "cycle budget %llu exceeded",
                static_cast<unsigned long long>(wd.maxCycles));
        }

        if (ready > issue_cycle) {
            const Cycle delta = ready - issue_cycle;
            if (stall_is_svu) {
                stats.stackSvu += delta;
            } else if (stall_is_fetch) {
                if (fetch_stall_branch)
                    stats.stackBranch += delta;
                else
                    stats.stackOther += delta;
            } else if (stall_src == ValueSource::Dram) {
                stats.stackDram += delta;
            } else if (stall_src == ValueSource::L2) {
                stats.stackL2 += delta;
            }
            // Stalls on core-latency values fall into the base component.
            issue_cycle = ready;
            slots_used = 0;
        }

        const Cycle issued_at = issue_cycle;
        slots_used++;
        if (slots_used >= p.width) {
            issue_cycle++;
            slots_used = 0;
        }

        stats.instructions++;

        switch (inst.op) {
          case Opcode::Halt:
            break;
          case Opcode::Ld:
          case Opcode::Lw:
          case Opcode::Lh:
          case Opcode::Lb: {
            stats.loads++;
            const AccessResult res =
                mem.access(AccessKind::Load, dyn.pc, dyn.addr, issued_at);
            regReady[inst.rd] = res.done;
            regSource[inst.rd] = res.level == HitLevel::Dram
                                     ? ValueSource::Dram
                                     : (res.level == HitLevel::L2
                                            ? ValueSource::L2
                                            : ValueSource::Core);
            break;
          }
          case Opcode::Sd:
          case Opcode::Sw:
          case Opcode::Sh:
          case Opcode::Sb:
            stats.stores++;
            // Fire-and-forget through the store path; no register result.
            mem.access(AccessKind::Store, dyn.pc, dyn.addr, issued_at);
            break;
          case Opcode::Cmp:
          case Opcode::Cmpi:
          case Opcode::Fcmp:
            regReady[flagsReg] = issued_at + sinfo.latency;
            regSource[flagsReg] = ValueSource::Core;
            break;
          case Opcode::Jmp:
            // Assume BTB hit: taken redirect costs an L1I fetch only
            // when the target line misses.
            stats.branches++;
            if (const AccessResult fr = mem.instrFetch(dyn.targetPc,
                                                       issued_at);
                fr.level != HitLevel::L1) {
                fetch_ready = fr.done;
                fetch_stall_branch = false;
            }
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Bltu:
          case Opcode::Bgeu: {
            stats.branches++;
            const Cycle resolve = issued_at + 1;
            const bool mispredicted = bpred.update(dyn.pc, dyn.taken);
            if (mispredicted) {
                stats.branchMispredicts++;
                fetch_ready = resolve + bpred.penalty();
                fetch_stall_branch = true;
            }
            if (dyn.taken) {
                const AccessResult fr =
                    mem.instrFetch(dyn.targetPc, resolve);
                if (fr.level != HitLevel::L1 && fr.done > fetch_ready) {
                    fetch_ready = fr.done;
                    fetch_stall_branch = false;
                }
            }
            break;
          }
          default:
            // ALU / FP / Li / Nop.
            if (inst.writesIntReg()) {
                regReady[inst.rd] = issued_at + sinfo.latency;
                regSource[inst.rd] = ValueSource::Core;
            }
            break;
        }

        // Piggyback-runahead hook: the engine may generate SVI copies
        // and block subsequent issue while the SVU drains them.
        if (runahead) {
            const Cycle next = runahead->onIssue(dyn, issued_at);
            if (next > issued_at)
                svu_ready = std::max(svu_ready, next);
        }

#ifdef SVR_ARCHCHECK_ENABLED
        // In-order stall-on-use: issue is the commit point.
        if (commitHook)
            commitHook->onCommit(dyn, issued_at);
#endif

        // warmup_at == 0 can never match here (instructions >= 1), so
        // an absent window costs one predictable compare per commit.
        if (stats.instructions == warmup_at) [[unlikely]] {
            CoreStats base = stats;
            base.cycles = issue_cycle + (slots_used ? 1 : 0);
            if (runahead) {
                base.transientScalars = runahead->transientScalars();
                base.svrPrefetches = runahead->prefetchesIssued();
                base.svrRounds = runahead->runaheadRounds();
            }
            if (measure->onMeasureStart)
                measure->onMeasureStart(base);
        }
    }

    stats.cycles = issue_cycle + (slots_used ? 1 : 0);
    if (runahead) {
        stats.transientScalars = runahead->transientScalars();
        stats.svrPrefetches = runahead->prefetchesIssued();
        stats.svrRounds = runahead->runaheadRounds();
    }
    return stats;
}

} // namespace svr
