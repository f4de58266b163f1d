#!/usr/bin/env bash
# Print the engine snapshot that the `engine_goldens` ctest compares
# byte-for-byte against tests/golden/engine_all_workloads.txt.
#
#   tools/engine_goldens.sh <diag-run binary>
#
# For every bundled workload it runs diag-run on the OoO baseline, on
# DiAG F4C32 and, when the workload has a simt variant, on DiAG F4C16
# with --simt. Each run contributes a header line, its stdout (output
# check, cycles, instructions, energy) and its --stats-json counter
# dump. Any change to a simulated number or counter shows up as a diff.
set -euo pipefail

run="${1:?usage: engine_goldens.sh <diag-run binary>}"
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
        snapshot "$name" --engine ooo
        snapshot "$name" --engine diag --config F4C32
        if [[ "$simt" == 1 ]]; then
            snapshot "$name" --engine diag --config F4C16 --simt
        fi
    done
