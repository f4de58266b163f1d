#!/usr/bin/env python3
"""Gate simulator-throughput benchmark results (CI bench smoke).

Two inputs, either or both:

  * --suite FILE: the saved stdout of
        python3 suitebench/run.py --workload WORKLOAD --seed 1 \\
            --seconds 30 --trace 0
    The workload is read from its "# suitebench workload=" header and
    its last JSON line is the result. Fails (exit 1) when any
    operation failed, or when the calibrated sim_inst_per_s is below
    the floor. The default floor is FLOOR_FRACTION of that workload's
    sim_inst_per_s median in suitebench/BASELINE.json; --floor
    overrides it with an absolute rate.
  * BENCH_JSON: a bench_sim_speed --benchmark_out JSON file. Fails
    when the timing library self-reports a debug build, or the
    simulator under test was not optimized (the numbers would measure
    the compiler, not the simulator). BM_DiagModel's micro-loop rate
    is printed as a record and not gated.

With --trajectory, additionally validates the accumulated
BENCH_trajectory.json (see tools/bench_trajectory.py) against its
schema, so a malformed append fails the bench smoke rather than
rotting silently; an absent trajectory file is tolerated.

Usage: check_bench.py [BENCH_JSON] [--suite FILE] [--floor INSTS_PER_S]
                      [--trajectory FILE]
"""

import argparse
import json
import os
import sys
from typing import Optional

import bench_trajectory

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "suitebench", "BASELINE.json")
HEADER = "# suitebench workload="
# Fraction of the baseline median the calibrated rate must reach.
FLOOR_FRACTION = 0.5


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def last_json_line(text: str, where: str) -> dict:
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{where}: last JSON line does not parse: {e}")
    fail(f"{where}: no JSON result line")


def suite_workload(text: str, where: str) -> str:
    for line in text.splitlines():
        if line.startswith(HEADER):
            return line[len(HEADER):].split()[0]
    fail(f"{where}: no '{HEADER}' header line")


def baseline_floor(workload: str) -> float:
    with open(BASELINE) as f:
        doc = json.load(f)
    try:
        median = (doc["end_to_end"][workload]["summary"]
                  ["sim_inst_per_s"]["median"])
    except (KeyError, TypeError):
        fail(f"{BASELINE}: no {workload} sim_inst_per_s median")
    return FLOOR_FRACTION * median


def check_suite(path: str, floor: Optional[float]) -> None:
    with open(path) as f:
        text = f.read()
    workload = suite_workload(text, path)
    res = last_json_line(text, path)
    if floor is None:
        floor = baseline_floor(workload)
    failed = res.get("failed")
    rate = res.get("metrics", {}).get("sim_inst_per_s", {}).get("value")
    if failed is None or rate is None:
        fail(f"{path}: result lacks 'failed' or "
             f"'metrics.sim_inst_per_s.value'")
    print(f"check_bench: {workload} {res.get('attempted')} ops, "
          f"{failed} failed")
    print(f"check_bench: {workload} sim_inst_per_s {rate:.3e} "
          f"(floor {floor:.3e})")
    if failed > 0 or not res.get("correct", False):
        fail(f"{workload}: {failed} operations failed")
    if rate < floor:
        fail(f"{workload} sim_inst_per_s {rate:.3e} below the "
             f"{floor:.3e} floor")


def check_micro(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    ctx = doc.get("context", {})
    if ctx.get("library_build_type") != "release":
        fail(f"timing library built as "
             f"'{ctx.get('library_build_type')}' — numbers are not a "
             f"measurement (need a Release build of the bench tree)")
    if ctx.get("diag_optimized") == "false":
        fail("simulator under test compiled without optimization")
    rates = {run["name"]: run["sim_inst_per_s"]
             for run in doc.get("benchmarks", [])
             if "sim_inst_per_s" in run}
    diag = rates.get("BM_DiagModel")
    if diag is None:
        fail("BM_DiagModel missing from the benchmark output")
    print(f"check_bench: BM_DiagModel {diag:.3e} inst/s (not gated)")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_json", nargs="?", default=None,
                    help="bench_sim_speed --benchmark_out JSON")
    ap.add_argument("--suite", default=None,
                    help="saved suitebench --trace 0 stdout")
    ap.add_argument("--floor", type=float, default=None,
                    help="minimum sim_inst_per_s (default: "
                         f"{FLOOR_FRACTION} x the workload's baseline "
                         "median)")
    ap.add_argument("--trajectory", default=None,
                    help="also validate this BENCH_trajectory.json "
                         "(absent file tolerated)")
    args = ap.parse_args()
    if args.bench_json is None and args.suite is None:
        ap.error("give a bench JSON, --suite, or both")

    if args.trajectory is not None and os.path.exists(args.trajectory):
        with open(args.trajectory) as f:
            try:
                tdoc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{args.trajectory}: not JSON: {e}")
        errs = bench_trajectory.validate_doc(tdoc)
        if errs:
            fail(f"{args.trajectory}: {errs[0]}")
        print(f"check_bench: trajectory {args.trajectory} valid "
              f"({len(tdoc['records'])} records)")

    if args.bench_json is not None:
        check_micro(args.bench_json)
    if args.suite is not None:
        check_suite(args.suite, args.floor)
    print("check_bench: PASS")


if __name__ == "__main__":
    main()
