#include "svr/loop_bound.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace svr
{

const char *
loopBoundModeName(LoopBoundMode mode)
{
    switch (mode) {
      case LoopBoundMode::LbdWait: return "LBD+Wait";
      case LoopBoundMode::Maxlength: return "Maxlength";
      case LoopBoundMode::LbdMaxlength: return "LBD+Maxlength";
      case LoopBoundMode::LbdCv: return "LBD+CV";
      case LoopBoundMode::Ewma: return "EWMA";
      case LoopBoundMode::Tournament: return "Tournament";
      default: return "<bad>";
    }
}

LoopBoundPredictor::LoopBoundPredictor(const LoopBoundParams &params)
    : p(params), hint(2 * std::size_t{params.entries})
{
    if (p.entries == 0)
        fatal("LoopBoundPredictor: need at least one entry");
    table.resize(p.entries);
}

LoopBoundPredictor::Entry &
LoopBoundPredictor::lookupOrAllocate(Addr pc)
{
    if (Entry *e = find(pc)) {
        e->lastUse = ++useClock;
        return *e;
    }
    // The scan that picks the victim: the last invalid slot, else the
    // least recently used one.
    Entry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid || e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = Entry{};
    victim->pc = pc;
    victim->valid = true;
    victim->lastUse = ++useClock;
    hint.set(hintKey(pc), static_cast<std::uint32_t>(victim - table.data()));
    return *victim;
}

void
LoopBoundPredictor::foldEwma(Entry &e, unsigned sample)
{
    sample = std::min(sample, p.ewmaMax);
    if (!e.ewmaTrained) {
        e.ewma = sample;
        e.ewmaTrained = true;
    } else {
        e.ewma = e.ewma - (e.ewma >> p.ewmaShift) + (sample >> p.ewmaShift);
        e.ewma = std::min(e.ewma, p.ewmaMax);
    }
}

void
LoopBoundPredictor::onStrideMatch(Addr load_pc)
{
    Entry &e = lookupOrAllocate(load_pc);
    e.iterCounter++;
    if (e.iterCounter >= p.iterFold) {
        // Very long contiguous run: fold and restart the counter so the
        // EWMA learns that no throttling is needed.
        foldEwma(e, e.iterCounter);
        e.iterCounter = 0;
        e.havePreds = false;
    }
}

void
LoopBoundPredictor::onStrideDiscontinuity(Addr load_pc)
{
    Entry *e = find(load_pc);
    if (!e)
        return;
    // Tournament training: which mechanism was closer to the truth?
    if (e->havePreds && e->iterCounter >= e->iterAtPred) {
        const unsigned actual = e->iterCounter - e->iterAtPred;
        const auto err = [actual](unsigned pred) {
            return pred > actual ? pred - actual : actual - pred;
        };
        const unsigned err_ewma = err(e->lastEwmaPred);
        const unsigned err_lbd = err(e->lastLbdPred);
        if (err_lbd < err_ewma) {
            if (e->tournament < 3)
                e->tournament++;
        } else if (err_ewma < err_lbd) {
            if (e->tournament > 0)
                e->tournament--;
        }
        e->havePreds = false;
    }
    if (e->iterCounter > 0)
        foldEwma(*e, e->iterCounter);
    e->iterCounter = 0;
    e->lbdFresh = false;
}

void
LoopBoundPredictor::trainFromBranch(Addr hslr_pc, const LcRegister &lc)
{
    if (!lc.valid)
        return;
    Entry &e = lookupOrAllocate(hslr_pc);
    if (e.compPc != lc.pc) {
        // Unknown or different compare: decay confidence; replace when
        // it reaches zero.
        if (e.confidence > 0) {
            e.confidence--;
            return;
        }
        e.compPc = lc.pc;
        e.sA = lc.valA;
        e.sB = lc.valB;
        e.regA = lc.regA;
        e.regB = lc.regB;
        e.confidence = 1;
        e.lbdReady = false;
        return;
    }
    if (e.confidence < 3)
        e.confidence++;
    const bool a_changed = e.sA != lc.valA;
    const bool b_changed = e.sB != lc.valB;
    if (a_changed != b_changed) {
        // Exactly one operand changed: it is the induction variable,
        // the other is the bound; their delta is the loop increment.
        const RegVal old_v = a_changed ? e.sA : e.sB;
        const RegVal new_v = a_changed ? lc.valA : lc.valB;
        const std::uint64_t inc = new_v > old_v ? new_v - old_v
                                                : old_v - new_v;
        if (inc != 0) {
            e.increment = inc;
            e.changingIsA = a_changed;
            e.lbdReady = true;
            e.lbdFresh = true;
            lbdTrainings++;
        }
    }
    e.sA = lc.valA;
    e.sB = lc.valB;
    e.regA = lc.regA;
    e.regB = lc.regB;
}

unsigned
LoopBoundPredictor::ewmaPrediction(const Entry &e, unsigned max_lanes) const
{
    if (!e.ewmaTrained)
        return max_lanes;
    // Paper: fetch min(EWMA - Iterations, N) if positive, else
    // min(EWMA, N).
    if (e.ewma > e.iterCounter)
        return std::min(e.ewma - e.iterCounter, max_lanes);
    return std::min(e.ewma, max_lanes);
}

unsigned
LoopBoundPredictor::lbdPrediction(const Entry &e, unsigned max_lanes,
                                  bool scavenge,
                                  const std::function<RegVal(RegId)> &read_reg,
                                  bool &ok)
{
    ok = false;
    if (!e.lbdReady || e.increment == 0)
        return 0;
    RegVal changing;
    RegVal bound;
    if (e.lbdFresh) {
        // Operand values from this loop's own compare are usable.
        changing = e.changingIsA ? e.sA : e.sB;
        bound = e.changingIsA ? e.sB : e.sA;
    } else if (scavenge && read_reg) {
        // Scavenge the registers the compare will soon read: they are
        // typically initialized before the loop starts.
        const RegId ra = e.regA;
        const RegId rb = e.regB;
        if (ra == invalidReg)
            return 0;
        const RegVal cv_a = read_reg(ra);
        const RegVal cv_b = rb == invalidReg ? e.sB : read_reg(rb);
        changing = e.changingIsA ? cv_a : cv_b;
        bound = e.changingIsA ? cv_b : cv_a;
        cvScavenges++;
    } else {
        return 0;
    }
    const std::uint64_t span = bound > changing ? bound - changing
                                                : changing - bound;
    const std::uint64_t remaining = span / e.increment;
    ok = true;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(remaining, max_lanes));
}

unsigned
LoopBoundPredictor::predict(Addr load_pc, unsigned max_lanes,
                            LoopBoundMode mode,
                            const std::function<RegVal(RegId)> &read_reg)
{
    Entry *e = find(load_pc);
    if (!e) {
        // Nothing learned yet: LbdWait holds off, others go maximal.
        return mode == LoopBoundMode::LbdWait ? 0 : max_lanes;
    }

    switch (mode) {
      case LoopBoundMode::Maxlength:
        return max_lanes;
      case LoopBoundMode::Ewma:
        return std::max(1u, ewmaPrediction(*e, max_lanes));
      case LoopBoundMode::LbdWait: {
        if (!e->lbdFresh)
            return 0; // wait for the loop-closing branch to train us
        bool ok = false;
        const unsigned pred = lbdPrediction(*e, max_lanes, false, {}, ok);
        return ok ? std::max(1u, pred) : 0;
      }
      case LoopBoundMode::LbdMaxlength: {
        bool ok = false;
        const unsigned pred = lbdPrediction(*e, max_lanes, false, {}, ok);
        return ok && e->lbdFresh ? std::max(1u, pred) : max_lanes;
      }
      case LoopBoundMode::LbdCv: {
        bool ok = false;
        const unsigned pred = lbdPrediction(*e, max_lanes, true, read_reg,
                                            ok);
        return ok ? std::max(1u, pred) : max_lanes;
      }
      case LoopBoundMode::Tournament: {
        const unsigned ewma_pred = std::max(1u, ewmaPrediction(*e,
                                                               max_lanes));
        bool ok = false;
        const unsigned lbd_pred = lbdPrediction(*e, max_lanes, true,
                                                read_reg, ok);
        unsigned chosen;
        if (!ok) {
            chosen = ewma_pred;
            tournamentChoseEwma++;
        } else if (e->tournament >= 2) {
            chosen = std::max(1u, lbd_pred);
            tournamentChoseLbd++;
        } else {
            chosen = ewma_pred;
            tournamentChoseEwma++;
        }
        e->lastEwmaPred = ewma_pred;
        e->lastLbdPred = ok ? lbd_pred : ewma_pred;
        e->iterAtPred = e->iterCounter;
        e->havePreds = true;
        return chosen;
      }
      default:
        panic("LoopBoundPredictor: bad mode");
    }
}

std::vector<Addr>
LoopBoundPredictor::residentPcs() const
{
    std::vector<Addr> out;
    out.reserve(table.size());
    for (const Entry &e : table)
        out.push_back(e.valid ? e.pc : ~Addr{0});
    return out;
}

void
LoopBoundPredictor::reset()
{
    for (auto &e : table)
        e = Entry{};
    useClock = 0;
    hint.clear();
    lbdTrainings = cvScavenges = 0;
    tournamentChoseLbd = tournamentChoseEwma = 0;
}

} // namespace svr
