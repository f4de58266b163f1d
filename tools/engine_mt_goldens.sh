#!/usr/bin/env bash
# Print the multi-thread engine snapshot that the `engine_mt_goldens`
# ctest compares byte-for-byte against
# tests/golden/engine_mt_all_workloads.txt.
#
#   tools/engine_mt_goldens.sh <diag-run binary>
#
# For every bundled workload it runs diag-run on the paper's
# multi-thread arrangement (F4C32-16x2, 16 threads) and, when the
# workload has a simt variant, on the MT+SIMT arrangement
# (F4C32-8x4-simt, 8 threads, --simt). Each run contributes a header
# line, its stdout and its --stats-json counter dump, as in
# tools/engine_goldens.sh.
set -euo pipefail

run="${1:?usage: engine_mt_goldens.sh <diag-run binary>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

snapshot() {
    local name="$1"
    shift
    echo "== $name $*"
    "$run" --workload "$name" "$@" --stats-json "$tmp/stats.json"
    cat "$tmp/stats.json"
}

"$run" --list-workloads |
    awk '/^  [a-z0-9]/ { print $1, ($NF == "[simt]") }' |
    while read -r name simt; do
        snapshot "$name" --engine diag --config F4C32-16x2 --threads 16
        if [[ "$simt" == 1 ]]; then
            snapshot "$name" --engine diag --config F4C32-8x4-simt \
                --threads 8 --simt
        fi
    done
