#!/usr/bin/env python3
"""Gate real-suite throughput results (CI bench smoke).

--suite FILE is the saved stdout of
    python3 suitebench/run.py --workload WORKLOAD --seed 1 \\
        --seconds 30 --trace 0
The workload is read from its "# suitebench workload=" header and its
last JSON line is the result. Fails (exit 1) when any operation
failed, or when the calibrated sim_inst_per_s is below the floor. The
default floor is FLOOR_FRACTION of that workload's sim_inst_per_s
median in suitebench/BASELINE.json; --floor overrides it with an
absolute rate.

With --trajectory, additionally validates BENCH_trajectory.json (see
tools/bench_trajectory.py) against its schema, so a malformed edit
fails the bench smoke rather than rotting silently; an absent
trajectory file is tolerated.

Usage: check_bench.py --suite FILE [--floor INSTS_PER_S]
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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True,
                    help="saved suitebench --trace 0 stdout")
    ap.add_argument("--floor", type=float, default=None,
                    help="minimum sim_inst_per_s (default: "
                         f"{FLOOR_FRACTION} x the workload's baseline "
                         "median)")
    ap.add_argument("--trajectory", default=None,
                    help="also validate this BENCH_trajectory.json "
                         "(absent file tolerated)")
    args = ap.parse_args()

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

    check_suite(args.suite, args.floor)
    print("check_bench: PASS")


if __name__ == "__main__":
    main()
