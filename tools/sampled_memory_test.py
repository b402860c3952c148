#!/usr/bin/env python3
"""Sampled-sweep memory gate: a sampled row's peak memory must not grow
with the region it samples.

Runs svrsim_sweep over the quick suite with InO alone, sampled every 1M
instructions with a 20k window and a 10k warmup, at a 5M and a 20M
region, and reads each run's peak RSS (ru_maxrss) from the kernel. It
fails if the 20M run's peak is more than 1.25x the 5M run's: a sampled
row must hold one machine, not one per window it has passed.

Usage: sampled_memory_test.py <svrsim_sweep-binary>
"""

import os
import subprocess
import sys

LIMIT = 1.25
SAMPLING = ["--sample-every", "1000000", "--sample-window", "20000",
            "--warmup", "10000"]


def peak_rss_mb(sweep, region):
    """Peak RSS [MB] of one sampled sweep over @p region instructions."""
    proc = subprocess.Popen(
        [sweep, "--suite", "quick", "--configs", "ino", "--jobs", "1",
         "--window", str(region)] + SAMPLING,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"FAIL: the {region}-instruction sweep exited "
                 f"{proc.returncode}")
    return usage.ru_maxrss / 1024.0


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    small = peak_rss_mb(sys.argv[1], 5_000_000)
    large = peak_rss_mb(sys.argv[1], 20_000_000)
    ratio = large / small
    print(f"peak RSS: {small:.1f} MB at 5M, {large:.1f} MB at 20M "
          f"({ratio:.2f}x, limit {LIMIT}x)")
    if ratio > LIMIT:
        sys.exit(f"FAIL: sampled sweep memory grows with the region "
                 f"({ratio:.2f}x > {LIMIT}x)")
    print("PASS")


if __name__ == "__main__":
    main()
