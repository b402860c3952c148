/**
 * @file
 * svrsim_sweep — run a cartesian sweep of (workload x machine) and
 * emit CSV or JSON for downstream analysis.
 *
 * Usage:
 *   svrsim_sweep [--suite graph|hpcdb|full|spec|quick]
 *                [--configs LIST] [--window INSTRS] [--jobs N] [--json]
 *                [--sample-every E] [--sample-window W] [--warmup U]
 *                [--out PATH] [--resume] [--keep-going] [--retries N]
 *                [--workers N] [--coordinator ADDR] [--shards LIST]
 *                [--keep-journal] [--lease-timeout MS] [--chunk N]
 *                [--heartbeat-ms MS] [--hedge-ms MS] [--journal-fsync]
 *
 * LIST is comma-separated from: ino, imp, ooo, svrN (e.g. svr16).
 * Default: --suite quick --configs ino,imp,ooo,svr16,svr64
 *
 * Cells run on --jobs threads (or the SVRSIM_JOBS environment
 * variable, default: all hardware threads), or on fabric workers with
 * --workers/--coordinator; either way every finished cell is recorded
 * through the same cell ledger (sim/ledger.hh). Output is byte-
 * identical for any job or worker count; progress and the cells/sec
 * summary go to stderr. Malformed numbers are an error (exit 1).
 *
 * Distributed sweeps (the fabric, sim/fabric.hh):
 *   --workers N       run as coordinator and spawn N local worker
 *                     processes (svrsim_worker, found next to this
 *                     binary or via SVRSIM_WORKER_BIN); cells are
 *                     leased to workers and merged back into an
 *                     artifact byte-identical to a serial run
 *   --coordinator A   listen on an explicit endpoint ("unix:PATH" or
 *                     "tcp:HOST:PORT") so external svrsim_worker
 *                     processes can attach; combines with --workers
 *   --shards LIST     merge comma-separated journal shard files
 *                     (e.g. journals shipped from another host) as
 *                     already-completed cells before sweeping
 *   --lease-timeout   silence window [ms] after which the coordinator
 *                     declares a worker dead (default 60000)
 *   --heartbeat-ms    worker PING period [ms] (default 1000); must be
 *                     < leaseTimeout/3 so a busy worker fits several
 *                     heartbeats into one timeout window. Forwarded
 *                     to spawned workers; shipped to external ones
 *                     via WELCOME.
 *   --hedge-ms MS     straggler hedging: speculatively re-lease the
 *                     cells of a lease older than MS ms to an idle
 *                     worker (0 = auto leaseTimeout/2, the default;
 *                     negative disables hedging)
 *   --chunk N         cells per lease (default: auto)
 *   --keep-journal    keep PATH.journal after a successful sweep
 *   --journal-fsync   fsync every journal record (and the artifact
 *                     rename) so the sweep survives power loss, not
 *                     just process death; slower per cell
 *
 * Fault tolerance:
 *   --out PATH      write the artifact atomically (tmp+rename) to PATH
 *                   instead of stdout, journaling each completed cell
 *                   to PATH.journal as it finishes
 *   --resume        restore cells already in PATH.journal (after a
 *                   crash/SIGKILL) instead of re-simulating them; the
 *                   final artifact is byte-identical to an
 *                   uninterrupted run
 *   --keep-going    record a failing cell as a structured failure row
 *                   (status=failed) and keep sweeping; exit code 3
 *                   when any cell failed. Default is fail-fast.
 *   --retries N     attempts per cell before a failure counts (def. 1)
 *
 * Sampled sweeps (--sample-every, see svrsim_cli) append three CSV
 * columns (sample_windows, measured_instructions, cpi_stderr) and tag
 * the journal header with the sampling parameters, so --resume
 * rejects a journal written under different sampling.
 *
 * The SVRSIM_FAULT environment variable injects deterministic cell,
 * artifact and network faults for testing (see src/common/fault.hh
 * for the grammar).
 *
 * Examples:
 *   svrsim_sweep --suite full --configs ino,svr16 > results.csv
 *   svrsim_sweep --suite quick --json --out results.json --resume
 *   svrsim_sweep --suite full --workers 8 --out results.csv
 *   svrsim_sweep --coordinator tcp:0.0.0.0:7707 --workers 2 --out r.csv
 *   svrsim_worker --connect tcp:buildhost:7707 --jobs 16
 */

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/experiment.hh"
#include "sim/fabric.hh"
#include "sim/simulator.hh"

using namespace svr;

namespace
{

std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string{}
                                      : path.substr(0, slash);
}

int
runSweepTool(int argc, char **argv)
{
    SweepSpec spec;
    spec.key = {"quick", "ino,imp,ooo,svr16,svr64", presets::simWindow(),
                MatrixOptions{}.baseSeed, {}};
    SamplingParams sampling;
    SweepOutput out;
    unsigned jobs = 0; // 0 = SVRSIM_JOBS / hardware default
    FabricOptions fopts;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        auto number = [&](auto &field) {
            field = parseNumber<std::remove_reference_t<decltype(field)>>(
                next(), arg.c_str());
        };
        if (arg == "--suite") {
            spec.key.suite = next();
        } else if (arg == "--configs") {
            spec.key.configs = next();
        } else if (arg == "--window") {
            number(spec.key.window);
        } else if (arg == "--jobs") {
            number(jobs);
        } else if (arg == "--sample-every") {
            number(sampling.sampleEvery);
        } else if (arg == "--sample-window") {
            number(sampling.sampleWindow);
        } else if (arg == "--warmup") {
            number(sampling.warmup);
        } else if (arg == "--json") {
            out.json = true;
        } else if (arg == "--out") {
            out.path = next();
        } else if (arg == "--resume") {
            out.resume = true;
        } else if (arg == "--keep-going") {
            spec.keepGoing = true;
        } else if (arg == "--keep-journal") {
            out.keepJournal = true;
        } else if (arg == "--retries") {
            number(spec.retries);
            if (spec.retries == 0)
                fatal("--retries must be >= 1");
        } else if (arg == "--workers") {
            number(fopts.spawnWorkers);
        } else if (arg == "--coordinator") {
            fopts.listen = next();
        } else if (arg == "--shards") {
            out.shards = splitList(next(), ',');
        } else if (arg == "--lease-timeout") {
            number(fopts.leaseTimeoutMs);
        } else if (arg == "--heartbeat-ms") {
            // runFabricSweep() rejects a heartbeat that is not
            // positive and below leaseTimeout/3.
            number(fopts.heartbeatMs);
        } else if (arg == "--hedge-ms") {
            number(fopts.hedgeMs);
        } else if (arg == "--journal-fsync") {
            out.fsync = true;
        } else if (arg == "--chunk") {
            number(fopts.chunk);
        } else {
            fatal("unknown argument '%s' (see header comment)",
                  arg.c_str());
        }
    }
    spec.setSampling(sampling);
    const bool fabric = fopts.spawnWorkers > 0 || !fopts.listen.empty();
    fopts.scratchDir = dirName(out.path);
    fopts.workerJobs = jobs > 0 ? jobs : 1;
    fopts.maxCellAttempts = spec.retries > 3 ? spec.retries : 3;

    const std::size_t failed =
        runSweep(spec, out, jobs, fabric ? &fopts : nullptr);
    return failed > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runSweepTool(argc, argv);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
