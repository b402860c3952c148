#include "core/ooo_core.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "common/logging.hh"
#include "core/static_info.hh"

namespace svr
{

namespace
{
enum class ValueSource : std::uint8_t { Core, L2, Dram };

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

OoOCore::OoOCore(const OoOParams &params, MemorySystem &memory)
    : p(params), mem(memory), bpred(params.bpred)
{
    if (p.width == 0 || p.robSize == 0 || p.rsSize == 0 || p.lsqSize == 0)
        fatal("OoOCore: all window sizes must be nonzero");
}

CoreStats
OoOCore::run(Executor &exec, std::uint64_t max_instrs,
             const WatchdogParams &wd, const MeasureWindow *measure)
{
    CoreStats stats;
    bpred.reset();

    // Precomputed per-static-instruction sources/latencies (indexed by
    // DynInst::index) keep opcode decoding off the per-commit path.
    const std::vector<StaticOpInfo> opInfo =
        buildStaticOpInfo(exec.program());

    // Warmup boundary (see core/measure.hh). The live counters keep
    // running through it — the ROB/RS/LSQ rings below are indexed by
    // stats.instructions, so resetting it mid-run would corrupt window
    // occupancy.
    const std::uint64_t warmup_at = measure ? measure->warmupInstrs : 0;

    std::array<Cycle, numTrackedRegs> regReady{};
    std::array<ValueSource, numTrackedRegs> regSource{};
    regSource.fill(ValueSource::Core);

    // Ring buffers of past commit/issue cycles for window occupancy.
    std::vector<Cycle> robCommit(p.robSize, 0);
    std::vector<Cycle> rsIssue(p.rsSize, 0);
    std::vector<Cycle> lsqCommit(p.lsqSize, 0);
    std::uint64_t mem_ops = 0;

    Cycle dispatch_cycle = 1;
    unsigned dispatch_slots = 0;
    Cycle fetch_ready = 0;
    Cycle commit_cycle = 1;
    unsigned commit_slots = 0;

    while (stats.instructions < max_instrs && !exec.halted()) {
        const DynInst dyn = exec.step();
        const Instruction &inst = *dyn.si;
        const StaticOpInfo &sinfo = opInfo[dyn.index];
        const std::uint64_t i = stats.instructions;

        // ---- Dispatch: in order, width-limited, window-limited. ----
        Cycle disp = dispatch_cycle;
        bool disp_fetch_stall = false;
        if (fetch_ready > disp) {
            disp = fetch_ready;
            disp_fetch_stall = true;
        }
        // ROB slot of instruction i-robSize must have committed.
        const Cycle rob_free = robCommit[i % p.robSize];
        if (rob_free > disp) {
            disp = rob_free;
            disp_fetch_stall = false;
        }
        // RS slot frees at issue of instruction i-rsSize.
        const Cycle rs_free = rsIssue[i % p.rsSize];
        if (rs_free > disp) {
            disp = rs_free;
            disp_fetch_stall = false;
        }
        if (inst.isMem()) {
            const Cycle lsq_free = lsqCommit[mem_ops % p.lsqSize];
            if (lsq_free > disp) {
                disp = lsq_free;
                disp_fetch_stall = false;
            }
        }
        if (disp > dispatch_cycle) {
            dispatch_cycle = disp;
            dispatch_slots = 0;
        }
        const Cycle dispatched_at = dispatch_cycle;
        dispatch_slots++;
        if (dispatch_slots >= p.width) {
            dispatch_cycle++;
            dispatch_slots = 0;
        }

        // ---- Issue: dataflow (operands ready). ----
        Cycle operands = dispatched_at;
        for (RegId s : sinfo.srcs) {
            if (s != invalidReg)
                operands = std::max(operands, regReady[s]);
        }
        const Cycle issued_at = operands;
        rsIssue[i % p.rsSize] = issued_at;

        // ---- Execute / complete. ----
        Cycle complete = issued_at + sinfo.latency;
        ValueSource src = ValueSource::Core;
        switch (inst.op) {
          case Opcode::Ld:
          case Opcode::Lw:
          case Opcode::Lh:
          case Opcode::Lb: {
            stats.loads++;
            const AccessResult res =
                mem.access(AccessKind::Load, dyn.pc, dyn.addr, issued_at);
            complete = res.done;
            src = res.level == HitLevel::Dram
                      ? ValueSource::Dram
                      : (res.level == HitLevel::L2 ? ValueSource::L2
                                                   : ValueSource::Core);
            regReady[inst.rd] = complete;
            regSource[inst.rd] = src;
            break;
          }
          case Opcode::Sd:
          case Opcode::Sw:
          case Opcode::Sh:
          case Opcode::Sb:
            stats.stores++;
            // Stores retire from the store queue post-commit; model the
            // cache access at issue for bandwidth/MSHR contention.
            mem.access(AccessKind::Store, dyn.pc, dyn.addr, issued_at);
            complete = issued_at + 1;
            break;
          case Opcode::Cmp:
          case Opcode::Cmpi:
          case Opcode::Fcmp:
            regReady[flagsReg] = complete;
            regSource[flagsReg] = ValueSource::Core;
            break;
          case Opcode::Jmp:
            stats.branches++;
            if (const AccessResult fr =
                    mem.instrFetch(dyn.targetPc, issued_at);
                fr.level != HitLevel::L1) {
                fetch_ready = std::max(fetch_ready, fr.done);
            }
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Bltu:
          case Opcode::Bgeu: {
            stats.branches++;
            const bool mispredicted = bpred.update(dyn.pc, dyn.taken);
            if (mispredicted) {
                stats.branchMispredicts++;
                fetch_ready =
                    std::max(fetch_ready, complete + bpred.penalty());
            }
            if (dyn.taken) {
                const AccessResult fr =
                    mem.instrFetch(dyn.targetPc, complete);
                if (fr.level != HitLevel::L1)
                    fetch_ready = std::max(fetch_ready, fr.done);
            }
            break;
          }
          case Opcode::Halt:
            break;
          default:
            if (inst.writesIntReg()) {
                regReady[inst.rd] = complete;
                regSource[inst.rd] = ValueSource::Core;
            }
            break;
        }

        // ---- Commit: in order, width-limited. Stall attribution is
        // commit-based (Eyerman-style): the gap a late-completing
        // instruction opens at the commit point is charged to whatever
        // delayed it, keeping the stack components disjoint. ----
        Cycle commit_at = commit_cycle;
        if (complete + 1 > commit_at) {
            const Cycle delta = complete + 1 - commit_at;
            // Watchdog: a commit gap past the stall budget means the
            // window is livelocked; a commit point past the cycle
            // budget means the run blew its allowance.
            if (wd.maxStallCycles && delta > wd.maxStallCycles) {
                throw simErrorf(
                    ErrCode::NoForwardProgress,
                    tripContext(commit_at, dyn.pc, stats.instructions),
                    "no instruction committed for %llu cycles "
                    "(budget %llu)",
                    static_cast<unsigned long long>(delta),
                    static_cast<unsigned long long>(wd.maxStallCycles));
            }
            switch (src) {
              case ValueSource::Dram:
                stats.stackDram += delta;
                break;
              case ValueSource::L2:
                stats.stackL2 += delta;
                break;
              default:
                if (disp_fetch_stall)
                    stats.stackBranch += delta;
                break;
            }
            commit_at = complete + 1;
            commit_cycle = commit_at;
            commit_slots = 0;
        }
        commit_slots++;
        if (commit_slots >= p.width) {
            commit_cycle++;
            commit_slots = 0;
        }
        robCommit[i % p.robSize] = commit_at;
        if (inst.isMem())
            lsqCommit[mem_ops++ % p.lsqSize] = commit_at;

        if (wd.maxCycles && commit_at > wd.maxCycles) {
            throw simErrorf(
                ErrCode::CycleBudgetExceeded,
                tripContext(commit_at, dyn.pc, stats.instructions),
                "cycle budget %llu exceeded",
                static_cast<unsigned long long>(wd.maxCycles));
        }

#ifdef SVR_ARCHCHECK_ENABLED
        if (commitHook)
            commitHook->onCommit(dyn, commit_at);
#endif

        stats.instructions++;

        if (stats.instructions == warmup_at) [[unlikely]] {
            CoreStats base = stats;
            base.cycles = commit_cycle + (commit_slots ? 1 : 0);
            if (measure->onMeasureStart)
                measure->onMeasureStart(base);
        }
    }

    stats.cycles = commit_cycle + (commit_slots ? 1 : 0);
    return stats;
}

} // namespace svr
