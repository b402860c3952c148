/**
 * @file
 * svrsim_worker — fabric worker process for distributed sweeps.
 *
 * Usage:
 *   svrsim_worker --connect ADDR [--jobs N] [--heartbeat-ms MS]
 *                 [--reconnect-ms MS]
 *
 * ADDR is the coordinator endpoint, "unix:PATH" or "tcp:HOST:PORT"
 * (what `svrsim_sweep --coordinator` printed, or what the coordinator
 * passes when it spawns workers itself via --workers N). Everything
 * about the sweep — suite, configs, window, seed, sampling, retry
 * policy — arrives from the coordinator in the WELCOME message, so a
 * worker needs no sweep flags and cannot disagree with the
 * coordinator about what a cell means.
 *
 * --jobs N simulates the cells of one lease on N threads (default 1).
 * --heartbeat-ms MS pings the coordinator every MS ms while busy
 *   (default 1000; --heartbeat is an accepted alias). Clamped below
 *   leaseTimeout/3 from the WELCOME so a busy worker is never
 *   mistaken for a dead one.
 * --reconnect-ms MS keeps retrying a lost coordinator connection with
 *   exponential backoff + jitter for MS ms before giving up (default
 *   30000; 0 disables reconnecting) — rides out coordinator restarts
 *   and network partitions.
 *
 * Exit codes: 0 = sweep finished (FIN), 1 = fatal simulation error
 * (also reported to the coordinator) or a malformed flag, 2 = lost
 * the coordinator for longer than the reconnect window.
 */

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/fabric.hh"

using namespace svr;

int
main(int argc, char **argv)
{
    try {
        WorkerOptions opts;
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for %s", arg.c_str());
                return argv[++i];
            };
            if (arg == "--connect") {
                opts.connect = next();
            } else if (arg == "--jobs") {
                opts.jobs = parseNumber<unsigned>(next(), "--jobs");
                if (opts.jobs == 0)
                    opts.jobs = 1;
            } else if (arg == "--heartbeat" || arg == "--heartbeat-ms") {
                opts.heartbeatMs = parseNumber<int>(next(), arg.c_str());
                if (opts.heartbeatMs <= 0)
                    fatal("--heartbeat-ms must be > 0");
            } else if (arg == "--reconnect-ms") {
                opts.reconnectMs = parseNumber<int>(next(), arg.c_str());
                if (opts.reconnectMs < 0)
                    fatal("--reconnect-ms must be >= 0");
            } else {
                fatal("unknown argument '%s' (want --connect ADDR "
                      "[--jobs N] [--heartbeat-ms MS] "
                      "[--reconnect-ms MS])",
                      arg.c_str());
            }
        }
        if (opts.connect.empty())
            fatal("--connect ADDR is required");
        return runFabricWorker(opts);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
