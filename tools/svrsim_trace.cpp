/**
 * @file
 * svrsim_trace — print an annotated execution trace: disassembly,
 * operand values, memory addresses, and (with --svr) the engine's
 * runahead events interleaved. The debugging companion to svrsim_cli.
 *
 * Usage:
 *   svrsim_trace [--workload NAME] [--count N] [--skip M] [--svr]
 */

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/executor.hh"
#include "isa/disassembler.hh"
#include "mem/memory_system.hh"
#include "svr/svr_engine.hh"
#include "workloads/suites.hh"

using namespace svr;

namespace
{

const char *
eventName(SvrEventKind kind)
{
    switch (kind) {
      case SvrEventKind::Trigger: return "TRIGGER";
      case SvrEventKind::Terminate: return "TERMINATE";
      case SvrEventKind::Timeout: return "TIMEOUT";
      case SvrEventKind::NestedAbort: return "NESTED-ABORT";
      case SvrEventKind::ExtraChain: return "EXTRA-CHAIN";
      case SvrEventKind::Retarget: return "RETARGET";
      case SvrEventKind::WaitSuppress: return "WAIT";
      case SvrEventKind::GovernorBan: return "GOVERNOR-BAN";
      default: return "?";
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string workload = "PR_KR";
    std::uint64_t count = 64;
    std::uint64_t skip = 0;
    bool with_svr = false;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            workload = next();
        else if (arg == "--count")
            count = parseNumber<std::uint64_t>(next(), "--count");
        else if (arg == "--skip")
            skip = parseNumber<std::uint64_t>(next(), "--skip");
        else if (arg == "--svr")
            with_svr = true;
        else
            fatal("unknown argument '%s'", arg.c_str());
    }

    setInformEnabled(false);
    const WorkloadInstance w = findWorkload(workload).make();
    MemorySystem mem(MemParams{});
    Executor exec(*w.program, *w.mem);

    SvrParams sp;
    sp.enableEventLog = true;
    sp.eventLogCapacity = 1u << 20;
    SvrEngine engine(sp, mem, exec);

    std::printf("# trace of %s (%s SVR)\n", workload.c_str(),
                with_svr ? "with" : "without");
    std::printf("# %-8s %-10s %-34s %-18s %s\n", "seq", "pc", "disasm",
                "addr", "result");

    std::size_t last_event = 0;
    Cycle cycle = 0;
    for (std::uint64_t i = 0; i < skip + count && !exec.halted(); i++) {
        const DynInst dyn = exec.step();
        if (with_svr) {
            engine.onIssue(dyn, cycle);
            cycle += 2;
        }
        if (i < skip)
            continue;
        char addr_buf[24] = "";
        if (dyn.si->isMem())
            std::snprintf(addr_buf, sizeof(addr_buf), "[0x%llx]",
                          static_cast<unsigned long long>(dyn.addr));
        char result_buf[32] = "";
        if (dyn.si->writesIntReg())
            std::snprintf(result_buf, sizeof(result_buf), "-> 0x%llx",
                          static_cast<unsigned long long>(dyn.result));
        else if (dyn.si->isCondBranch())
            std::snprintf(result_buf, sizeof(result_buf), "%s",
                          dyn.taken ? "taken" : "not-taken");
        std::printf("  %-8llu 0x%-8llx %-34s %-18s %s\n",
                    static_cast<unsigned long long>(dyn.seq),
                    static_cast<unsigned long long>(dyn.pc),
                    disassemble(*dyn.si).c_str(), addr_buf, result_buf);
        if (with_svr) {
            const auto &log = engine.eventLog();
            for (; last_event < log.size(); last_event++) {
                const SvrEvent &e = log[last_event];
                std::printf("           >>> SVR %-12s pc=0x%llx lanes=%u\n",
                            eventName(e.kind),
                            static_cast<unsigned long long>(e.pc),
                            e.lanes);
            }
        }
    }
    return 0;
} catch (const SimError &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
