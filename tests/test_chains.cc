/**
 * @file
 * Static chain-analysis tests: natural-loop detection (nested,
 * multi-latch, irreducible shapes), induction-variable and stride
 * recognition, memory-op classification on hand-built kernels
 * (pointer chases, invariant reloads, deep chains, intra-iteration
 * register reuse), seeded-mutation self-tests for the three new chain
 * diagnostics, and the static-vs-dynamic cross-validation matrix
 * (quick suite x SVR16/64).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/chain_xcheck.hh"
#include "analysis/chains.hh"
#include "analysis/loops.hh"
#include "analysis/verifier.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

ChainReport
analyze(std::vector<Instruction> code, const char *name = "kernel")
{
    return analyzeChains(Program(name, std::move(code)));
}

std::string
joined(const std::vector<std::string> &v)
{
    std::ostringstream os;
    for (const std::string &s : v)
        os << s << "\n";
    return os.str();
}

/**
 * Two-level nest:
 *   0: li x1, 0        ; i = 0
 *   1: li x9, 4        ; outer bound
 *   2: li x2, 8        ; inner bound
 *   3: li x3, 0        ; outer: j = 0
 *   4: lw x4, [x3+0]   ; inner: load a[j]
 *   5: addi x3, x3, 4
 *   6: cmp x3, x2
 *   7: blt 4           ; inner back edge
 *   8: addi x1, x1, 1
 *   9: cmp x1, x9
 *  10: blt 3           ; outer back edge
 *  11: halt
 */
std::vector<Instruction>
nestedCode()
{
    return {
        {Opcode::Li, 1, invalidReg, invalidReg, 0},
        {Opcode::Li, 9, invalidReg, invalidReg, 4},
        {Opcode::Li, 2, invalidReg, invalidReg, 8},
        {Opcode::Li, 3, invalidReg, invalidReg, 0},
        {Opcode::Lw, 4, 3, invalidReg, 0},
        {Opcode::Addi, 3, 3, invalidReg, 4},
        {Opcode::Cmp, invalidReg, 3, 2, 0},
        {Opcode::Blt, invalidReg, invalidReg, invalidReg, 4},
        {Opcode::Addi, 1, 1, invalidReg, 1},
        {Opcode::Cmp, invalidReg, 1, 9, 0},
        {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
        {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
    };
}

} // namespace

// ---- Natural loops. -------------------------------------------------

TEST(Loops, NestedLoopForest)
{
    const Program prog("nested", nestedCode());
    const Cfg cfg(prog);
    const LoopForest forest(prog, cfg);
    ASSERT_EQ(forest.loops().size(), 2u);
    EXPECT_TRUE(forest.irreducibleEdges().empty());

    // Loop 0 (outer, header at instr 3) contains loop 1 (inner).
    const NaturalLoop &outer = forest.loops()[0];
    const NaturalLoop &inner = forest.loops()[1];
    EXPECT_EQ(outer.parent, -1);
    EXPECT_EQ(outer.depth, 1u);
    EXPECT_EQ(inner.parent, 0);
    EXPECT_EQ(inner.depth, 2u);
    EXPECT_EQ(cfg.blocks()[outer.header].first, 3u);
    EXPECT_EQ(cfg.blocks()[inner.header].first, 4u);

    // The inner body is instrs 4..7; the outer covers 3..10.
    EXPECT_EQ(inner.instrs.front(), 4u);
    EXPECT_EQ(inner.instrs.back(), 7u);
    EXPECT_EQ(outer.instrs.front(), 3u);
    EXPECT_EQ(outer.instrs.back(), 10u);

    EXPECT_EQ(forest.innermostAt(5), 1);
    EXPECT_EQ(forest.innermostAt(8), 0);
    EXPECT_EQ(forest.innermostAt(0), -1);
    EXPECT_EQ(forest.innermostAt(11), -1);
    EXPECT_TRUE(inner.containsInstr(6));
    EXPECT_FALSE(inner.containsInstr(8));
    EXPECT_TRUE(outer.containsInstr(8));
}

TEST(Loops, MultiLatchLoopsMerge)
{
    //  0: li x1, 0
    //  1: li x2, 8
    //  2: addi x1, x1, 1   ; header
    //  3: cmp x1, x2
    //  4: blt 2            ; latch A
    //  5: cmp x1, x2
    //  6: bne 2            ; latch B
    //  7: halt
    const Program prog(
        "twolatch",
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 8},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 2},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Bne, invalidReg, invalidReg, invalidReg, 2},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        });
    const Cfg cfg(prog);
    const LoopForest forest(prog, cfg);
    ASSERT_EQ(forest.loops().size(), 1u);
    EXPECT_EQ(forest.loops()[0].latches.size(), 2u);
    EXPECT_TRUE(forest.loops()[0].containsInstr(5));
}

TEST(Loops, IrreducibleEdgeReportedNotLooped)
{
    //  0: li x1, 0
    //  1: cmp x1, x1
    //  2: beq 5            ; side entry into the cycle
    //  3: li x2, 1
    //  4: nop              ; retreat target
    //  5: addi x1, x1, 1
    //  6: cmp x1, x2
    //  7: blt 4            ; retreating, but 4 does not dominate 7
    //  8: halt
    const Program prog(
        "irred",
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Cmp, invalidReg, 1, 1, 0},
            {Opcode::Beq, invalidReg, invalidReg, invalidReg, 5},
            {Opcode::Li, 2, invalidReg, invalidReg, 1},
            {Opcode::Nop, invalidReg, invalidReg, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 4},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        });
    const Cfg cfg(prog);
    const LoopForest forest(prog, cfg);
    EXPECT_TRUE(forest.loops().empty());
    ASSERT_EQ(forest.irreducibleEdges().size(), 1u);
    const ChainReport report = analyzeChains(prog);
    EXPECT_EQ(report.irreducibleEdgeCount, 1u);
}

// ---- Classification on hand-built kernels. --------------------------

TEST(Chains, NestedLoopStrideRoot)
{
    const ChainReport r = analyze(nestedCode(), "nested");
    const MemOpInfo *m = r.memOpAt(4);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::StrideRooted);
    EXPECT_TRUE(m->strideKnown);
    EXPECT_EQ(m->stride, 4);
    EXPECT_EQ(m->loop, 1) << "claimed by the inner loop";
    EXPECT_EQ(r.errorCount(), 0u);
}

TEST(Chains, PointerChaseIsIrregularWithDiagnostic)
{
    //  3: ld x3, [x3+0]   ; loop: chase
    const ChainReport r = analyze(
        {
            {Opcode::Li, 3, invalidReg, invalidReg, 1000},
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 8},
            {Opcode::Ld, 3, 3, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "chase");
    const MemOpInfo *m = r.memOpAt(3);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::Irregular);
    EXPECT_NE(m->reason.find("pointer chase"), std::string::npos)
        << m->reason;
    ASSERT_EQ(r.diags.size(), 1u) << r.format();
    EXPECT_EQ(r.diags[0].code, LintCode::IrregularRootInLoop);
    EXPECT_EQ(r.diags[0].index, 3u);
    EXPECT_TRUE(r.chains.empty());
}

TEST(Chains, InvariantReloadDiagnostic)
{
    //  3: lw x4, [x3+0]   ; loop: same address every iteration
    const ChainReport r = analyze(
        {
            {Opcode::Li, 3, invalidReg, invalidReg, 1000},
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 8},
            {Opcode::Lw, 4, 3, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "reload");
    const MemOpInfo *m = r.memOpAt(3);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::LoopInvariant);
    ASSERT_EQ(r.diags.size(), 1u) << r.format();
    EXPECT_EQ(r.diags[0].code, LintCode::InvariantAddressReload);
}

TEST(Chains, DeepChainDiagnostic)
{
    //  2: lw x3, [x1+0]   ; loop: root, then 4 dependent hops
    const ChainReport r = analyze(
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 64},
            {Opcode::Lw, 3, 1, invalidReg, 0},
            {Opcode::Ld, 4, 3, invalidReg, 0},
            {Opcode::Ld, 5, 4, invalidReg, 0},
            {Opcode::Ld, 6, 5, invalidReg, 0},
            {Opcode::Ld, 7, 6, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 4},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 2},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "deep");
    ASSERT_EQ(r.chains.size(), 1u);
    const ChainInfo &c = r.chains[0];
    EXPECT_EQ(c.rootIndex, 2u);
    EXPECT_EQ(c.depth, 4u);
    EXPECT_EQ(c.chainLoads, (std::vector<std::size_t>{2, 3, 4, 5, 6}));
    ASSERT_EQ(r.diags.size(), 1u) << r.format();
    EXPECT_EQ(r.diags[0].code, LintCode::ChainTooDeep);
    EXPECT_EQ(r.diags[0].index, 2u);
}

TEST(Chains, RegisterStepInductionIsAffineUnknownStride)
{
    //  3: lw x3, [x1+0]   ; loop: root; x1 += x8 (register step)
    //  4: ld x4, [x3+0]   ;   dependent hop (so the verdict mentions
    //                     ;   the runtime-step caveat, not chain-free)
    const ChainReport r = analyze(
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 8, invalidReg, invalidReg, 16},
            {Opcode::Li, 2, invalidReg, invalidReg, 160},
            {Opcode::Lw, 3, 1, invalidReg, 0},
            {Opcode::Ld, 4, 3, invalidReg, 0},
            {Opcode::Add, 1, 1, 8, 0},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "regstep");
    const MemOpInfo *m = r.memOpAt(3);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::StrideRooted);
    EXPECT_FALSE(m->strideKnown);
    ASSERT_EQ(r.chains.size(), 1u);
    EXPECT_NE(r.chains[0].verdict.find("register step"),
              std::string::npos)
        << r.chains[0].verdict;
}

TEST(Chains, OversizedStrideIsNotVectorizable)
{
    const ChainReport r = analyze(
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 4096},
            {Opcode::Lw, 3, 1, invalidReg, 0},
            {Opcode::Ld, 4, 3, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 256},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 2},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "bigstride");
    ASSERT_EQ(r.chains.size(), 1u);
    EXPECT_FALSE(r.chains[0].vectorizable);
    EXPECT_NE(r.chains[0].verdict.find("not vectorizable"),
              std::string::npos);
}

TEST(Chains, IntraIterationRegisterReuseIsNotACycle)
{
    // The camel idiom: x7 is written by the slli and then read by its
    // own second definition in the *same* iteration. A flow-sensitive
    // walk must see the slli value (chain depth 1), not a phantom
    // loop-carried cycle.
    const ChainReport r = analyze(
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 4, invalidReg, invalidReg, 5000},
            {Opcode::Li, 2, invalidReg, invalidReg, 64},
            {Opcode::Lw, 6, 1, invalidReg, 0},
            {Opcode::Slli, 7, 6, invalidReg, 3},
            {Opcode::Add, 7, 4, 7, 0},
            {Opcode::Ld, 8, 7, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 4},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "reuse");
    const MemOpInfo *m = r.memOpAt(6);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::ChainDependent) << m->reason;
    EXPECT_EQ(m->depth, 1u);
    EXPECT_EQ(m->rootIndex, 3);
}

TEST(Chains, ConditionalResetAccumulatorStaysIrregular)
{
    // x5 is reset on one path and accumulated on the other; claiming
    // it Invariant (or affine) would be unsound, so the load from it
    // must classify Irregular.
    const ChainReport r = analyze(
        {
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 32},
            {Opcode::Li, 5, invalidReg, invalidReg, 0},
            {Opcode::Li, 9, invalidReg, invalidReg, 16},
            {Opcode::Cmp, invalidReg, 1, 9, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 7},
            {Opcode::Li, 5, invalidReg, invalidReg, 0},
            {Opcode::Add, 5, 5, 1, 0},
            {Opcode::Lw, 6, 5, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 4},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        },
        "accum");
    const MemOpInfo *m = r.memOpAt(8);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->cls, MemOpClass::Irregular) << m->reason;
}

TEST(Chains, CamelIsTheCanonicalDepthTwoChain)
{
    const WorkloadInstance inst = findWorkload("Camel").make();
    const ChainReport r = analyzeChains(*inst.program);
    ASSERT_EQ(r.chains.size(), 1u) << r.format();
    const ChainInfo &c = r.chains[0];
    EXPECT_EQ(c.depth, 2u);
    EXPECT_TRUE(c.strideKnown);
    EXPECT_EQ(c.stride, 4);
    EXPECT_EQ(c.chainLoads.size(), 3u);
    EXPECT_TRUE(c.vectorizable);
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_EQ(r.warningCount(), 0u) << r.format();
}

TEST(Chains, ForwardClosureCoversDependents)
{
    const WorkloadInstance inst = findWorkload("Camel").make();
    const ChainReport r = analyzeChains(*inst.program);
    ASSERT_EQ(r.chains.size(), 1u);
    const ChainInfo &c = r.chains[0];
    for (std::size_t load : c.chainLoads) {
        EXPECT_TRUE(std::binary_search(c.members.begin(), c.members.end(),
                                       load))
            << "chain load " << load << " missing from closure";
    }
}

TEST(Chains, NewLintCodesAreWarnings)
{
    EXPECT_STREQ(lintCodeName(LintCode::ChainTooDeep), "chain-too-deep");
    EXPECT_STREQ(lintCodeName(LintCode::IrregularRootInLoop),
                 "irregular-root-in-loop");
    EXPECT_STREQ(lintCodeName(LintCode::InvariantAddressReload),
                 "invariant-address-reload");
    EXPECT_FALSE(lintCodeIsError(LintCode::ChainTooDeep));
    EXPECT_FALSE(lintCodeIsError(LintCode::IrregularRootInLoop));
    EXPECT_FALSE(lintCodeIsError(LintCode::InvariantAddressReload));
}

TEST(Chains, WholeSuiteAnalyzesErrorFree)
{
    std::vector<WorkloadSpec> specs = fullSuite();
    for (const WorkloadSpec &spec : specSuite())
        specs.push_back(spec);
    for (const WorkloadSpec &spec : specs) {
        const WorkloadInstance inst = spec.make();
        const ChainReport r = analyzeChains(*inst.program);
        EXPECT_EQ(r.errorCount(), 0u) << spec.name << ":\n" << r.format();
    }
}

// ---- Static-vs-dynamic cross-validation. ----------------------------

TEST(ChainXcheck, SyntheticViolationsAreCaught)
{
    const WorkloadInstance inst = findWorkload("Camel").make();
    const ChainReport report = analyzeChains(*inst.program);

    // A trigger PC that is not a load.
    std::map<Addr, DynChainRecord> log;
    log[Program::pcOf(0)] = {4, 1, 0, {}, {}};
    EXPECT_FALSE(chainViolations(*inst.program, report, log).empty());

    // A stride disagreeing with the static +4.
    log.clear();
    log[Program::pcOf(7)] = {8, 1, 0, {}, {}};
    EXPECT_FALSE(chainViolations(*inst.program, report, log).empty());

    // A replicated member outside the root's forward closure.
    log.clear();
    log[Program::pcOf(7)] = {4, 1, 0, {Program::pcOf(0)}, {}};
    EXPECT_FALSE(chainViolations(*inst.program, report, log).empty());

    // The true record: right stride, members inside the closure.
    log.clear();
    log[Program::pcOf(7)] = {4, 1, 0, {Program::pcOf(10)}, {}};
    EXPECT_TRUE(chainViolations(*inst.program, report, log).empty())
        << joined(chainViolations(*inst.program, report, log));

    // Records that never triggered are ignored entirely.
    log.clear();
    log[Program::pcOf(0)] = {4, 0, 0, {}, {}};
    EXPECT_TRUE(chainViolations(*inst.program, report, log).empty());
}

TEST(ChainXcheck, LoopInvariantRootIsAViolation)
{
    const Program prog(
        "reload",
        {
            {Opcode::Li, 3, invalidReg, invalidReg, 1000},
            {Opcode::Li, 1, invalidReg, invalidReg, 0},
            {Opcode::Li, 2, invalidReg, invalidReg, 8},
            {Opcode::Lw, 4, 3, invalidReg, 0},
            {Opcode::Addi, 1, 1, invalidReg, 1},
            {Opcode::Cmp, invalidReg, 1, 2, 0},
            {Opcode::Blt, invalidReg, invalidReg, invalidReg, 3},
            {Opcode::Halt, invalidReg, invalidReg, invalidReg, 0},
        });
    const ChainReport report = analyzeChains(prog);
    std::map<Addr, DynChainRecord> log;
    log[Program::pcOf(3)] = {4, 1, 0, {}, {}};
    const auto v = chainViolations(prog, report, log);
    ASSERT_EQ(v.size(), 1u) << joined(v);
    EXPECT_NE(v[0].find("loop-invariant"), std::string::npos) << v[0];
}

TEST(ChainXcheck, MatrixQuickSuiteUnderSvr16AndSvr64)
{
    if (!chainRecordingEnabled())
        GTEST_SKIP() << "chain recording compiled out (Release)";
    std::size_t totalDynRoots = 0;
    for (unsigned n : {16u, 64u}) {
        SimConfig config = presets::svrCore(n);
        config.maxInstructions = 20000;
        for (const WorkloadSpec &spec : quickSuite()) {
            SCOPED_TRACE(config.label + " / " + spec.name);
            const ChainCrossCheck res = crossValidateChains(config, spec);
            EXPECT_TRUE(res.available);
            EXPECT_TRUE(res.violations.empty()) << joined(res.violations);
            // The static oracle predicts every dynamic chain root as
            // stride-rooted (ARCHITECTURE.md section 12).
            EXPECT_DOUBLE_EQ(res.coverage(), 1.0)
                << res.coveredStrideRooted << " of " << res.dynRoots
                << " dynamic roots covered";
            // Every dynamic root must be accounted for: covered as
            // stride-rooted, or explicitly reported (chain-dependent /
            // irregular are legal dynamic roots, never silent).
            EXPECT_LE(res.coveredStrideRooted + res.irregularRoots,
                      res.dynRoots);
            totalDynRoots += res.dynRoots;
        }
    }
    EXPECT_GT(totalDynRoots, 0u)
        << "no SVR rounds anywhere in the matrix; the cross-check "
           "was vacuous";
}

TEST(ChainXcheck, CamelCoverageIsExact)
{
    if (!chainRecordingEnabled())
        GTEST_SKIP() << "chain recording compiled out (Release)";
    SimConfig config = presets::svrCore(16);
    config.maxInstructions = 20000;
    const ChainCrossCheck res =
        crossValidateChains(config, findWorkload("Camel"));
    EXPECT_TRUE(res.violations.empty()) << joined(res.violations);
    ASSERT_GT(res.dynRoots, 0u);
    // Camel's single chain is stride-rooted and statically known, so
    // coverage and precision are both exact here.
    EXPECT_DOUBLE_EQ(res.coverage(), 1.0);
    EXPECT_EQ(res.staticChains, 1u);
    EXPECT_EQ(res.staticChainsTriggered, 1u);
}
