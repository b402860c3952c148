#!/usr/bin/env python3
"""The svr-sim benchmark.

Builds the simulator and the benchmark's measuring process (svrbench)
from the checkout, runs one workload, checks its outputs and prints
every metric by name with its unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig11-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(a separate, traced run). --smoke runs every workload at a tiny size in
both modes and checks that every metric named in BENCHMARK.json appears
with its unit. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
# Relative to the checkout: the sweep tool puts its fabric socket next
# to its --out artifact, and socket paths must stay short.
WORK = Path(os.path.relpath(BUILD / "perfbench", ROOT))
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SVRBENCH = BUILD / "bin" / "svrbench"
SWEEP = BUILD / "svrsim" / "tools" / "svrsim_sweep"
WORKER = BUILD / "svrsim" / "tools" / "svrsim_worker"

FABRIC_WORKERS = 2
SETUP_PROBES = 2  # in-process workloads: fresh setup-only processes
SETUP_PROBES_MAX = 12
SETUP_PROBE_SECONDS = 2.0
# The sharded workload: in-process serial processes, each repeating the
# matrix for at least SERIAL_SECONDS (two or more repetitions), and one
# sharded sweep after each.
SERIAL_PROCESSES = 4
SERIAL_SECONDS = 6.0
# Every host time is stated at the host speed at which the calibration
# kernel (calibrate.hh) takes CAL_REF_MS, about its time on the 4-vCPU
# VM the benchmark was written on: a time t measured while the kernel
# took c ms is reported as t * CAL_REF_MS / c. The host's co-tenants
# slow the simulator by up to 50% for minutes at a time, and the kernel
# with it (see README.md).
CAL_REF_MS = 1.6
# Time limits: building and the per-build references get their own, so
# a rebuild after a change cannot eat into the run's.
PREPARE_LIMIT_S = 690
RUN_LIMIT_S = 165

# name -> suite, machine presets, instructions per cell (the region for
# a sampled workload), and the smoke-mode size.
WORKLOADS = {
    "fig11-full": dict(
        suite="full", configs="ino,imp,ooo,svr16,svr64", window=50000,
        sampled=False, smoke=dict(subset=4, window=5000)),
    "spec-regular": dict(
        suite="spec", configs="ino,ooo,svr16", window=400000,
        sampled=False, smoke=dict(subset=3, window=20000)),
    "graph-sampled-sharded": dict(
        suite="graph", configs="ino,svr16", window=4000000,
        sampled=True, smoke=dict(suite="quick", window=200000)),
}

# Published reference points for svr16_speedup on fig11-full.
PAPER_FIG1_SPEEDUP = 3.2
EXPERIMENTS_MD_SPEEDUP = 2.76

class BenchError(Exception):
    pass


class Deadline:
    """Every subprocess of one stage of a run (preparing, measuring)
    shares one time limit."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(cmd, deadline):
    """Run cmd to completion in its own process group.

    Returns (stdout, exit code, peak RSS in KiB of the process and of
    any children it waited for, wall seconds). On the deadline the whole
    group is killed and reaped before BenchError is raised.
    """
    err_path = WORK / "stderr.log"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        chunks = []
        reader = threading.Thread(
            target=lambda: chunks.append(proc.stdout.read()))
        reader.start()
        expired = threading.Event()

        def expire():
            expired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(deadline.left(), expire)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Workers of a killed sweep are in the same group; make sure
        # none outlives the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        reader.join()
        proc.stdout.close()
    if expired.is_set():
        raise BenchError(f"{Path(str(cmd[0])).name} exceeded the time limit")
    return chunks[0].decode(), proc.returncode, usage.ru_maxrss, wall


def stderr_tail():
    try:
        return (WORK / "stderr.log").read_text(errors="replace")[-2000:]
    except OSError:
        return ""


def build(deadline):
    """Configure once, then bring the build up to date (a no-op when
    nothing changed)."""
    WORK.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _, rc, _, _ = spawn(cmd, deadline)
        if rc != 0:
            # A failed configure must not leave a cache that a later
            # run would mistake for a configured tree.
            shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            raise BenchError("configure failed:\n" + stderr_tail())
    jobs = str(min(4, os.cpu_count() or 1))
    _, rc, _, _ = spawn(["cmake", "--build", BUILD, "-j", jobs], deadline)
    if rc != 0:
        raise BenchError("build failed:\n" + stderr_tail())


def build_id():
    """Hash of the binaries that simulate: a cached reference is only
    ever compared with results of the build that made it."""
    h = hashlib.sha256()
    for path in (SVRBENCH, SWEEP, WORKER):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """One benchmark run: shape of the workload plus the bookkeeping
    every phase adds to (attempted/failed cells, peak RSS, checks)."""

    def __init__(self, name, args, deadline):
        spec = dict(WORKLOADS[name])
        smoke = spec.pop("smoke")
        if args.smoke:
            spec.update(smoke)
        self.name = name
        self.suite = spec["suite"]
        self.configs = spec["configs"]
        self.window = spec["window"]
        self.sampled = spec["sampled"]
        self.subset = spec.get("subset", 0)
        self.seed = args.seed
        self.seconds = args.seconds
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.sweep_rss_kb = []
        self.problems = []

    def peak_rss_mb(self):
        """The largest process of the run. A sweep's largest process is
        a worker whose size depends on which cells it was leased, so
        sweeps count with their median."""
        sweeps = statistics.median(self.sweep_rss_kb or [0])
        return max(self.peak_rss_kb, sweeps) / 1024.0

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def svrbench(self, phase, builtin=False, suite=None, configs=None,
                 sampled=None, count_rss=True, **extra):
        """One svrbench process. builtin: the suite as svrsim_sweep
        builds it (built-in inputs, never thinned)."""
        sampled = self.sampled if sampled is None else sampled
        cmd = [SVRBENCH, "--phase", phase,
               "--suite", suite or self.suite,
               "--configs", configs or self.configs,
               "--window", self.window,
               "--sampled", int(sampled), "--seed", self.seed,
               "--builtin", int(builtin),
               "--subset", 0 if builtin else self.subset]
        for key, value in extra.items():
            cmd += ["--" + key, value]
        out, rc, rss, _ = spawn(cmd, self.deadline)
        if rc != 0:
            raise BenchError(f"svrbench {phase} failed:\n" + stderr_tail())
        if count_rss:
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return json.loads(out.strip().splitlines()[-1])

    def fabric_suite(self):
        """The suite as the sweep tool names it. A thinned smoke-size
        suite cannot go through the fabric (workers rebuild suites by
        name), so smoke runs use the quick suite there."""
        return "quick" if self.subset else self.suite

    def setup_samples(self, first):
        """setup_s of the measuring process plus fresh setup-only ones:
        at least SETUP_PROBES, more while they add up to less than
        SETUP_PROBE_SECONDS (a cheap setup is a noisy one)."""
        samples = [first]
        while len(samples) <= SETUP_PROBES or \
                (sum(samples[1:]) < SETUP_PROBE_SECONDS and
                 len(samples) < SETUP_PROBES_MAX):
            res = self.svrbench("setup")
            samples.append(at_ref_speed(res["setup_s"],
                                        res["setup_cal_ms"]))
        return samples

    def matrix(self, builtin, suite=None, sampled=None, **extra):
        """Repetitions of the matrix in one svrbench process. Every cell
        is an operation; each cell's time is its mean over the
        repetitions (see cell_times), so noise cannot reorder cells
        around the percentiles. Every host time is at the reference
        speed: a row's by the mean of the calibrations before and after
        it."""
        res = self.svrbench("matrix", builtin=builtin, suite=suite,
                            sampled=sampled, **extra)
        cells = int(res["cells_per_rep"])
        reps = len(res["rep_instructions"])
        cal = [(a + b) / 2 for a, b in zip(res["cal_ms"], res["cal_ms"][1:])]
        per_row = cells * reps // len(cal)
        res["setup_s"] = at_ref_speed(res["setup_s"], res["setup_cal_ms"])
        res["row_wall_s"] = [at_ref_speed(w, c)
                             for w, c in zip(res["row_wall_s"], cal)]
        res["cell_ms"] = [at_ref_speed(t, cal[k // per_row])
                          for k, t in enumerate(res["cell_ms"])]
        self.attempted += cells * reps
        self.failed += int(sum(res["rep_failed"]))
        self.check(sum(res["rep_invalid"]) == 0, "cells ran short")
        self.check(len(set(res["rep_digests"])) == 1,
                   "results differ between repetitions")
        res["rep_cell_ms"] = res["cell_ms"]
        res["cell_ms"] = cell_times([res], cells)
        if "out" in extra:
            res["artifact"] = Path(extra["out"]).read_bytes()
        return res

    def sweep_args(self, sampled, suite):
        args = ["--suite", suite, "--configs", self.configs,
                "--window", self.window, "--json"]
        if sampled:
            every = self.window // 4
            args += ["--sample-every", every,
                     "--sample-window", every // 50,
                     "--warmup", every // 100]
        return args

    def sharded(self, sampled, suite, serial, tag):
        """One `svrsim_sweep --workers N` run; its artifact must match
        the in-process serial artifact byte for byte. Returns its wall
        time at the reference speed, by the mean of the serial run's
        last calibration, just before it, and one just after it."""
        out = WORK / f"sharded-{tag}.json"
        out.unlink(missing_ok=True)
        cmd = [SWEEP, *self.sweep_args(sampled, suite),
               "--workers", FABRIC_WORKERS, "--jobs", 1, "--out", out]
        _, rc, rss, wall = spawn(cmd, self.deadline)
        self.sweep_rss_kb.append(rss)
        cells = int(serial["cells_per_rep"])
        self.attempted += cells
        if rc != 0 or not out.exists() or \
                out.read_bytes() != serial["artifact"]:
            self.failed += cells
            self.check(False, f"sharded sweep (exit {rc}) artifact "
                              "differs from the serial run")
        after = self.svrbench("calibrate", count_rss=False)["cal_ms"]
        return at_ref_speed(wall, (serial["cal_ms"][-1] + after) / 2)

    def prepare(self):
        """Everything this workload caches per build."""
        if self.sampled:
            self.reference(self.fabric_suite(), self.configs)
        else:
            self.sampling_accuracy()

    def reference(self, suite, configs):
        """The full-detail CPIs of the built-in matrix, computed once per
        build outside any timed work (and outside peak_rss_mb). Cache
        key: simulator build, input seed and workload shape. The
        built-in matrix has seed 0's inputs: fabric workers rebuild a
        suite by name, so no seed reaches it."""
        key = f"{build_id()}-seed0-{suite}-{configs}-{self.window}"
        path = WORK / f"fullref-{key}.txt"
        if not path.exists():
            self.svrbench("reference", builtin=True, suite=suite,
                          configs=configs, count_rss=False, out=path)
        return path

    def sampling_accuracy(self):
        """Sampled-CPI error of a full-detail workload: its InO and
        SVR16 cells on the built-in inputs, sampled, against full
        detail. Simulated and exact, so it is computed once per build
        and cached beside the full-detail reference."""
        configs = "ino,svr16"
        suite = self.fabric_suite()
        ref = self.reference(suite, configs)
        path = ref.with_suffix(".err.json")
        if not path.exists():
            res = self.svrbench("matrix", builtin=True, suite=suite,
                                configs=configs, sampled=True,
                                count_rss=False, reference=ref)
            if sum(res["rep_failed"]) or sum(res["rep_invalid"]):
                raise BenchError("sampled reference run failed")
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(
                {k: res[k] for k in ("cpi_err", "detail_share")}))
            tmp.replace(path)
        return json.loads(path.read_text())


def at_ref_speed(host_time, cal_ms):
    return host_time * CAL_REF_MS / cal_ms


def cell_times(matrices, cells):
    """Each cell's mean time over every repetition in the matrices.

    The host's speed drifts by tens of percent over seconds to minutes.
    A mean weighs every stretch of a run by its length; a median of a
    dozen samples jumps between fast and slow stretches, and measured
    twice as wide a spread from run to run."""
    return [statistics.mean(t for m in matrices
                            for t in m["rep_cell_ms"][i::cells])
            for i in range(cells)]


def tail_value(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def e2e_in_process(run):
    res = run.matrix(builtin=False, seconds=run.seconds)
    reps = len(res["rep_instructions"])
    print(f"{run.name}: {reps} repetitions of "
          f"{int(res['cells_per_rep'])} cells, results digest "
          f"{res['rep_digests'][0]}")
    return dict(msimips=sum(res["rep_instructions"]) /
                sum(res["row_wall_s"]) / 1e6,
                setup=run.setup_samples(res["setup_s"]),
                cell_ms=res["cell_ms"], reps=reps, cal=res["cal_ms"],
                svr16_speedup=res["svr16_speedup"],
                cpi_err=run.sampling_accuracy()["cpi_err"])


def e2e_sharded(run):
    """Alternate in-process serial processes (each fresh, so each also
    gives a setup sample) with sharded sweeps, so both sample the same
    stretch of host time. Each serial process repeats the matrix, and
    each cell's time is its mean over every serial repetition."""
    suite = run.fabric_suite()
    ref = run.reference(suite, run.configs)
    serials, walls = [], []
    t0 = time.monotonic()
    while len(serials) < SERIAL_PROCESSES or \
            time.monotonic() - t0 < run.seconds:
        serials.append(run.matrix(
            builtin=True, suite=suite, reference=ref,
            seconds=min(SERIAL_SECONDS, run.seconds),
            out=WORK / f"serial-e2e{len(serials)}.json"))
        walls.append(run.sharded(True, suite, serials[-1],
                                 f"e2e{len(walls)}"))
    first = serials[0]
    cells = int(first["cells_per_rep"])
    run.check(len({s["rep_digests"][0] for s in serials}) == 1,
              "results differ between serial runs")
    run.check(len(first["cpi_err"]) == cells,
              "full-detail reference does not cover every cell")
    reps = sum(len(s["rep_instructions"]) for s in serials)
    cell_ms = cell_times(serials, cells)
    print(f"{run.name}: {len(walls)} sharded sweeps of {cells} cells "
          f"({FABRIC_WORKERS} workers), each artifact identical to the "
          f"in-process serial run before it (digest "
          f"{first['rep_digests'][0]}); cell times are from {reps} "
          f"repetitions in {len(serials)} serial processes")
    return dict(msimips=first["rep_instructions"][0] * len(walls) /
                sum(walls) / 1e6,
                setup=[s["setup_s"] for s in serials],
                cell_ms=cell_ms, reps=reps,
                cal=[c for s in serials for c in s["cal_ms"]],
                svr16_speedup=first["svr16_speedup"],
                cpi_err=first["cpi_err"])


def end_to_end(run):
    r = e2e_sharded(run) if run.sampled else e2e_in_process(run)
    tail, pct = tail_value(r["cell_ms"])
    run.check(len(r["cpi_err"]) > 0, "no sampled CPI error measured")
    err = [100.0 * e for e in r["cpi_err"]] or [0.0]
    metrics = {
        "msimips": r["msimips"],
        "setup_s": statistics.median(r["setup"]),
        "cell_ms_p50": statistics.median(r["cell_ms"]),
        "cell_ms_tail": tail,
        "peak_rss_mb": run.peak_rss_mb(),
        "svr16_speedup": r["svr16_speedup"],
        "sampled_cpi_err_pct": statistics.mean(err),
        "sampled_cpi_err_max_pct": max(err),
    }
    print(f"host speed: the calibration kernel took a median "
          f"{statistics.median(r['cal']):.2f} ms ({len(r['cal'])} "
          f"calibrations); host times are stated at {CAL_REF_MS} ms")
    print(f"cell_ms_tail is p{pct:.1f} of {len(r['cell_ms'])} cells, each "
          f"the mean of {r['reps']} repetitions; setup_s is the median "
          f"of {len(r['setup'])} fresh processes")
    if run.name == "fig11-full":
        print(f"svr16_speedup {metrics['svr16_speedup']:.3f}x beside "
              f"{PAPER_FIG1_SPEEDUP}x (paper Fig. 1) and "
              f"{EXPERIMENTS_MD_SPEEDUP}x (EXPERIMENTS.md); the model is "
              "otherwise unvalidated against hardware, and every cell "
              "starts with empty caches")
    sampled_from = "its cells" if run.sampled else \
        "its InO/SVR16 cells on the built-in inputs, sampled"
    print(f"sampled_cpi_err over {len(r['cpi_err'])} cells ({sampled_from})"
          " against full-detail runs of the same cells")
    return metrics


def per_layer(run):
    tr = run.svrbench("trace", builtin=run.sampled)
    run.attempted += int(tr["cells"])
    run.failed += int(tr["failed"])
    run.check(tr["untraced_digest"] == tr["traced_digest"],
              "traced run changed simulated stats")
    # The fabric: the same sweep in-process and sharded.
    suite = run.fabric_suite()
    ser = run.matrix(builtin=True, suite=suite, out=WORK / "serial-trace.json")
    wall = run.sharded(run.sampled, suite, ser, "trace")
    in_process_s = sum(ser["cell_ms"]) / 1000.0
    fabric_overhead = 100.0 * (1.0 - in_process_s / (FABRIC_WORKERS * wall))
    detail_share = ser["detail_share"] if run.sampled \
        else run.sampling_accuracy()["detail_share"]
    layers = dict(tr)
    layers["sim.sampled.detail_share"] = detail_share
    layers["sim.fabric.overhead_pct"] = fabric_overhead
    layers["trace.overhead_pct"] = \
        100.0 * (tr["traced_wall_s"] / tr["untraced_wall_s"] - 1.0)
    print(f"{run.name}: traced {int(tr['cells'])} cells, simulated stats "
          f"digest {tr['traced_digest']} identical to the untraced run")
    return layers


def run_workload(name, args, deadline):
    run = Run(name, args, deadline)
    group = "per_layer" if args.trace else "end_to_end"
    values = per_layer(run) if args.trace else end_to_end(run)
    missing = [m["name"] for m in DECLARED[group] if m["name"] not in values]
    if missing:
        raise BenchError("not measured: " + ", ".join(missing))
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in DECLARED[group]}
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    correct = not run.problems and run.failed == 0
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    return dict(correct=correct, attempted=run.attempted, failed=run.failed,
                metrics={k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})


def prepare(args, deadline):
    """Bring the build up to date, then compute what every workload
    caches per build (its full-detail reference), so that no later run
    of any workload pays for it."""
    build(deadline)
    for name in WORKLOADS:
        Run(name, args, deadline).prepare()


def smoke(args):
    """Every workload, tiny, both modes: every declared metric is
    printed with its unit (run_workload fails on a missing one) and has
    a finite value, and every output check passes."""
    ok = True
    deadline = Deadline(900)
    prepare(args, deadline)
    check = Run("fig11-full", args, deadline).svrbench(
        "check", suite="full")
    if check["seed0_mismatched"] != 0:
        print("seed 0 does not reproduce the built-in graph inputs")
        ok = False
    for name in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            result = run_workload(name, args, deadline)
            for key, entry in result["metrics"].items():
                if not math.isfinite(entry["value"]):
                    print(f"{name} trace={trace}: {key} is not a number")
                    ok = False
            if not result["correct"]:
                print(f"{name} trace={trace}: output checks failed")
                ok = False
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            args.seconds = 0.1
            return smoke(args)
        if not args.workload:
            ap.error("--workload is required")
        # A run that builds, or that is the first of a build, may take
        # a while; the run itself starts its own clock after that.
        prepare(args, Deadline(PREPARE_LIMIT_S))
        result = run_workload(args.workload, args, Deadline(RUN_LIMIT_S))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
