#!/usr/bin/env bash
# Determinism linter for the byte-identical-output paths.
#
# The sweep fabric's contract is that reports, journals, wire frames
# and stats artifacts are byte-identical across job counts, hosts, and
# resumes. That contract dies quietly the day someone iterates an
# unordered container into a report, keys an ordering on a pointer, or
# stamps host time into an artifact. This linter greps the artifact-
# producing sources for the known footguns and fails on any hit:
#
#   - unordered_map / unordered_set    (iteration order is unspecified)
#   - time( / clock( / localtime       (host time in artifact paths)
#   - rand( / srand( / random_device   (unseeded randomness; the
#                                       seeded common/rng.hh is fine)
#   - "%p" / <<(void*)                 (address-based output: ASLR)
#
# A deliberate, reviewed exception can be annotated with
# `// det-lint: allow` on the same line.
#
# Usage: determinism_lint.sh <repo-root>

set -u
root="${1:-.}"

# The artifact-producing sources: everything whose output is under the
# byte-identity contract (reports, journals, wire frames, stats, the
# lint/chain reports themselves). functional_memory.cc is here because
# snapshotPages() feeds the InputGolden digests, which pin the bytes of
# every generated input; rng.cc,
# graph.cc and workload.cc because every artifact depends on the bytes
# of the inputs they generate and lay out; sampled_sim.cc because a
# sampled row runs its configs window by window from one shared
# machine, so anything but the instruction count deciding where a
# window starts or what state a config carries into it would leak the
# row's grouping into every sampled result; result_fields.cc because
# its table orders every report, journal record and fabric RESULT.
files=(
    src/sim/report.cc
    src/sim/result_fields.cc
    src/sim/journal.cc
    src/sim/experiment.cc
    src/sim/fabric.cc
    src/sim/ledger.cc
    src/sim/sampled_sim.cc
    src/mem/functional_memory.cc
    src/common/stats.cc
    src/common/io.cc
    src/common/parallel.cc
    src/common/wire.cc
    src/common/rng.cc
    src/workloads/graph.cc
    src/workloads/workload.cc
    src/analysis/verifier.cc
    src/analysis/chains.cc
    src/analysis/chain_xcheck.cc
    tools/svrsim_lint.cpp
    tools/bench_report.cpp
    tools/svrsim_figures.cpp
)

patterns=(
    'unordered_map'
    'unordered_set'
    '\btime[[:space:]]*\('
    '\bclock[[:space:]]*\('
    'localtime'
    '\brand[[:space:]]*\('
    '\bsrand[[:space:]]*\('
    'random_device'
    '%p\b'
    '<<[[:space:]]*\(void[[:space:]]*\*\)'
)

status=0
for f in "${files[@]}"; do
    path="$root/$f"
    if [ ! -f "$path" ]; then
        echo "determinism-lint: missing file $f (update the list?)" >&2
        status=1
        continue
    fi
    for pat in "${patterns[@]}"; do
        # Strip allow-listed lines, then search.
        hits=$(grep -nE "$pat" "$path" | grep -v 'det-lint: allow' || true)
        if [ -n "$hits" ]; then
            echo "determinism-lint: $f matches /$pat/:" >&2
            echo "$hits" | sed 's/^/    /' >&2
            status=1
        fi
    done
done

if [ "$status" -eq 0 ]; then
    echo "determinism-lint: ${#files[@]} artifact-path files clean"
fi
exit "$status"
