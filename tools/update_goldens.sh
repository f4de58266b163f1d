#!/usr/bin/env bash
# Regenerate the golden snapshots from a built tree.
#
#   tools/update_goldens.sh [build-dir]
#
# The snapshots are the diag-bound JSON (lint findings + bound model),
# the diag-stream JSON and the diag-verify JSON for every bundled
# workload, compared byte-for-byte by the `analysis_goldens`,
# `stream_goldens` and `verify_goldens` ctests, and the engine
# snapshots (tools/engine_goldens.sh, tools/engine_mt_goldens.sh)
# compared by `engine_goldens` and `engine_mt_goldens`.
# Rerun this after any intentional change to the analyzers, the
# engines' simulated numbers or the workloads, then commit the diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

for tool in diag-bound diag-stream diag-verify diag-run; do
    bin="$build/tools-bin/$tool"
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not built (cmake --build $build)" >&2
        exit 1
    fi
done

out="$repo/tests/golden/analysis_all_workloads.json"
"$build/tools-bin/diag-bound" --all-workloads --json > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/stream_all_workloads.json"
"$build/tools-bin/diag-stream" --all-workloads --json > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/verify_all_workloads.json"
"$build/tools-bin/diag-verify" --all-workloads --json > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/engine_all_workloads.txt"
"$repo/tools/engine_goldens.sh" "$build/tools-bin/diag-run" > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"

out="$repo/tests/golden/engine_mt_all_workloads.txt"
"$repo/tools/engine_mt_goldens.sh" "$build/tools-bin/diag-run" > "$out"
echo "wrote $out ($(wc -c < "$out") bytes)"
