#include "analysis/archcheck.hh"

#include <algorithm>

#include "common/logging.hh"
#include "svr/svr_engine.hh"
#include "svr/taint_tracker.hh"

namespace svr
{

namespace
{

using ULL = unsigned long long;

ULL
ull(std::uint64_t v)
{
    return static_cast<ULL>(v);
}

WorkloadInstance
validated(WorkloadInstance w)
{
    if (!w.program || !w.mem)
        fatal("ArchCheck: twin workload '%s' has no program/memory",
              w.name.c_str());
    return w;
}

} // namespace

ArchCheck::ArchCheck(WorkloadInstance twin_instance)
    : twin(validated(std::move(twin_instance))),
      refExec(*twin.program, *twin.mem)
{
}

ArchCheck::ArchCheck(WorkloadInstance twin_instance,
                     const ExecArchState &arch)
    : twin(validated(std::move(twin_instance))),
      refExec(*twin.program, *twin.mem)
{
    refExec.importArchState(arch);
}

SimHooks
ArchCheck::hooks()
{
    SimHooks h;
    h.commit = this;
    h.onExecutor = [this](const Executor &e) { mainExec = &e; };
    h.onSvrEngine = [this](const SvrEngine &e) { engine = &e; };
    return h;
}

void
ArchCheck::checkDynInst(const DynInst &dyn, const DynInst &ref) const
{
    const Instruction &si = *dyn.si;
    const Instruction &rsi = *ref.si;
    if (dyn.seq != ref.seq || dyn.pc != ref.pc || dyn.index != ref.index) {
        panic("ArchCheck: commit stream diverged at seq %llu: "
              "timing (pc=%llx idx=%u) vs reference (seq=%llu pc=%llx "
              "idx=%u)",
              ull(dyn.seq), ull(dyn.pc), dyn.index, ull(ref.seq),
              ull(ref.pc), ref.index);
    }
    if (si.op != rsi.op || si.rd != rsi.rd || si.rs1 != rsi.rs1 ||
        si.rs2 != rsi.rs2 || si.imm != rsi.imm) {
        panic("ArchCheck: static instruction mismatch at pc %llx: "
              "'%s' vs '%s'",
              ull(dyn.pc), opcodeName(si.op), opcodeName(rsi.op));
    }
    if (dyn.src1 != ref.src1 || dyn.src2 != ref.src2) {
        panic("ArchCheck: operand divergence at pc %llx seq %llu (%s): "
              "src1 %llx/%llx src2 %llx/%llx",
              ull(dyn.pc), ull(dyn.seq), opcodeName(si.op), ull(dyn.src1),
              ull(ref.src1), ull(dyn.src2), ull(ref.src2));
    }
    if (dyn.result != ref.result) {
        panic("ArchCheck: result divergence at pc %llx seq %llu (%s): "
              "%llx vs %llx",
              ull(dyn.pc), ull(dyn.seq), opcodeName(si.op),
              ull(dyn.result), ull(ref.result));
    }
    if (si.isMem() && dyn.addr != ref.addr) {
        panic("ArchCheck: effective-address divergence at pc %llx "
              "seq %llu: %llx vs %llx",
              ull(dyn.pc), ull(dyn.seq), ull(dyn.addr), ull(ref.addr));
    }
    if (si.isControl() &&
        (dyn.taken != ref.taken || dyn.targetPc != ref.targetPc)) {
        panic("ArchCheck: branch-outcome divergence at pc %llx seq %llu: "
              "taken=%d@%llx vs taken=%d@%llx",
              ull(dyn.pc), ull(dyn.seq), dyn.taken, ull(dyn.targetPc),
              ref.taken, ull(ref.targetPc));
    }
    if (si.isCompare() && !(dyn.flagsOut == ref.flagsOut)) {
        panic("ArchCheck: flags divergence at pc %llx seq %llu",
              ull(dyn.pc), ull(dyn.seq));
    }
}

void
ArchCheck::checkArchState(const DynInst &dyn) const
{
    if (!mainExec) {
        panic("ArchCheck: commit observed before the executor hook "
              "fired (hooks() not passed to simulate()?)");
    }
    // The timing models replay the executor's stream in program order,
    // so at the commit hook the run's executor has architecturally
    // executed exactly the committed prefix — compare whole files.
    for (RegId r = 0; r < numArchRegs; r++) {
        const RegVal a = mainExec->readReg(r);
        const RegVal b = refExec.readReg(r);
        if (a != b) {
            panic("ArchCheck: architectural register x%u diverged after "
                  "seq %llu (pc %llx): %llx vs reference %llx",
                  static_cast<unsigned>(r), ull(dyn.seq), ull(dyn.pc),
                  ull(a), ull(b));
        }
    }
    if (!(mainExec->flags() == refExec.flags())) {
        panic("ArchCheck: flags register diverged after seq %llu "
              "(pc %llx)",
              ull(dyn.seq), ull(dyn.pc));
    }
}

void
ArchCheck::checkStore(const DynInst &dyn) const
{
    const unsigned bytes = dyn.si->memBytes();
    const std::uint64_t a = mainExec->memory().read(dyn.addr, bytes);
    const std::uint64_t b = refExec.memory().read(dyn.addr, bytes);
    if (a != b) {
        panic("ArchCheck: store write-back diverged at pc %llx seq %llu "
              "addr %llx: memory holds %llx vs reference %llx",
              ull(dyn.pc), ull(dyn.seq), ull(dyn.addr), ull(a), ull(b));
    }
}

void
ArchCheck::checkSvr(const DynInst &dyn)
{
    const SvrEngineStats &st = engine->stats();
    if (st.rounds < lastRounds || st.scalars < lastScalars ||
        st.prefetches < lastPrefetches ||
        st.maskedLanes < lastMaskedLanes) {
        panic("ArchCheck: SVR counters went backwards at seq %llu",
              ull(dyn.seq));
    }

    const TaintTracker &taint = engine->taintTracker();
    if (!engine->inRunahead()) {
        // Outside piggyback runahead no speculative state may survive:
        // the taint map must be clean (and the lockstep register
        // compare above proves the SRF wrote nothing back).
        for (RegId r = 0; r < numTrackedRegs; r++) {
            if (taint.tainted(r)) {
                panic("ArchCheck: register %u still tainted outside "
                      "runahead at seq %llu (pc %llx)",
                      static_cast<unsigned>(r), ull(dyn.seq),
                      ull(dyn.pc));
            }
        }
    } else {
        const std::vector<bool> &m = engine->laneMask();
        // Every mask refill goes through triggerRound(), which bumps
        // the round counter — so within one counter value divergence
        // may only clear lanes.
        if (wasInRunahead && st.rounds == lastRounds &&
            m.size() == lastMask.size()) {
            for (std::size_t k = 0; k < m.size(); k++) {
                if (m[k] && !lastMask[k]) {
                    panic("ArchCheck: divergence mask re-enabled lane "
                          "%zu mid-round at seq %llu",
                          k, ull(dyn.seq));
                }
            }
        }
        lastMask = m;
    }

    wasInRunahead = engine->inRunahead();
    lastRounds = st.rounds;
    lastScalars = st.scalars;
    lastPrefetches = st.prefetches;
    lastMaskedLanes = st.maskedLanes;
}

void
ArchCheck::onCommit(const DynInst &dyn, Cycle commit_cycle)
{
    if (commit_cycle < lastCommitCycle) {
        panic("ArchCheck: commit cycle went backwards at seq %llu "
              "(%llu after %llu)",
              ull(dyn.seq), ull(commit_cycle), ull(lastCommitCycle));
    }
    lastCommitCycle = commit_cycle;

    if (refExec.halted()) {
        panic("ArchCheck: timing core committed seq %llu after the "
              "reference execution halted",
              ull(dyn.seq));
    }
    const DynInst ref = refExec.step();

    checkDynInst(dyn, ref);
    checkArchState(dyn);
    if (dyn.si->isStore())
        checkStore(dyn);
    if (engine)
        checkSvr(dyn);
    checked++;
}

void
ArchCheck::finish() const
{
    if (enabled() && checked == 0) {
        panic("ArchCheck: run finished without a single validated "
              "commit — hook not attached?");
    }
}

SimResult
simulateLockstep(const SimConfig &config, const WorkloadSpec &spec)
{
    if (!ArchCheck::enabled()) {
        warn("ArchCheck disabled in this build (SVR_ARCHCHECK=OFF); "
             "running '%s' without lockstep validation",
             spec.name.c_str());
        return simulate(config, spec);
    }
    const WorkloadImage image(spec.make());
    const WorkloadInstance w = image.fork();
    ArchCheck check(image.fork());
    const SimResult r = simulate(config, w, check.hooks());
    check.finish();
    return r;
}

} // namespace svr
