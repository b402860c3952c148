#!/usr/bin/env bash
# Golden-bytes test for svrsim_figures output.
#
# Each figure ID's stdout at SVR_WINDOW=20000 is pinned byte-for-byte
# in <golden-dir>/<id>.txt. The files were captured from the
# per-figure binaries svrsim_figures replaced, so a diff here means a
# figure changed, not just its harness. The test also checks:
#   - fig16 once more under SVRSIM_JOBS=1 (job-count independence);
#   - a run with no ID, which prints every figure in paper order from
#     shared cell sets, against the goldens concatenated in that order.
#
# Refresh after an intentional timing-model change with:
#   UPDATE_GOLDEN=1 tools/figures_golden_test.sh <figures-binary> \
#       tests/golden/figures
#
# Usage: figures_golden_test.sh <svrsim_figures-binary> <golden-dir>
#                               [tmp-dir]

set -eu
figures="$1"
golden="$2"
tmp="${3:-$(mktemp -d)}"
mkdir -p "$tmp" "$golden"
export SVR_WINDOW=20000

ids="fig01 fig03 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 tab02
     sec6d ext_nesting ext_multicore"

for id in $ids; do
    "$figures" "$id" >"$tmp/$id.txt" 2>/dev/null
done

if [ "${UPDATE_GOLDEN:-0}" = "1" ]; then
    for id in $ids; do
        cp "$tmp/$id.txt" "$golden/$id.txt"
    done
    echo "figures-golden: refreshed $golden"
    exit 0
fi

SVRSIM_JOBS=1 "$figures" fig16 >"$tmp/fig16.jobs1.txt" 2>/dev/null
"$figures" >"$tmp/all.txt" 2>/dev/null
for id in $ids; do
    cat "$golden/$id.txt"
done >"$tmp/all.golden.txt"

status=0
check() { # <golden> <actual> <what>
    if ! cmp -s "$1" "$2"; then
        echo "figures-golden: $3 diverged from golden:" >&2
        diff -u "$1" "$2" | head -40 >&2
        status=1
    fi
}
for id in $ids; do
    check "$golden/$id.txt" "$tmp/$id.txt" "$id"
done
check "$golden/fig16.txt" "$tmp/fig16.jobs1.txt" "fig16 (SVRSIM_JOBS=1)"
check "$tmp/all.golden.txt" "$tmp/all.txt" "all figures (no ID)"

if [ "$status" -eq 0 ]; then
    echo "figures-golden: every figure byte-identical"
else
    echo "figures-golden: refresh with UPDATE_GOLDEN=1 if intended" >&2
fi
exit "$status"
