#!/usr/bin/env python3
"""Read and validate BENCH_trajectory.json.

The trajectory holds dated throughput records, kept as history: most
come from since-deleted micro-benchmarks, one from suitebench. Each
record names the bench that produced it, the build context that made
its numbers comparable (build type, optimization, host) and the per-s
rate counters of every benchmark in that capture.
The gated throughput number is the real-suite one (suitebench,
checked by check_bench.py --suite).

Usage:
  bench_trajectory.py show [--trajectory FILE]
  bench_trajectory.py validate [--trajectory FILE]

show    print one line per record: date, bench, headline rates.
validate exit non-zero unless the file matches the schema below; also
        invoked by check_bench.py --trajectory.

Schema (version 1):
  {"version": 1,
   "records": [
     {"date": "...", "bench": "bench_sim_speed",
      "context": {"library_build_type": "release", ...},
      "rates": {"BM_DiagModel": {"sim_inst_per_s": 9.8e6}, ...}},
     ...]}

Records are kept in file order, which is not necessarily date order.
Stdlib only.
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1


def fail(msg: str) -> None:
    print(f"bench_trajectory: FAIL: {msg}")
    sys.exit(1)


def load_trajectory(path: str) -> dict:
    if not os.path.exists(path):
        return {"version": SCHEMA_VERSION, "records": []}
    with open(path) as f:
        doc = json.load(f)
    errs = validate_doc(doc)
    if errs:
        fail(f"{path}: {errs[0]}")
    return doc


def validate_doc(doc) -> list:
    """Schema errors in @p doc, empty when valid."""
    errs = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("version") != SCHEMA_VERSION:
        errs.append(f"version is {doc.get('version')!r}, "
                    f"expected {SCHEMA_VERSION}")
    records = doc.get("records")
    if not isinstance(records, list):
        return errs + ["'records' is not an array"]
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            errs.append(f"{where} is not an object")
            continue
        for key, kind in (("date", str), ("bench", str),
                          ("context", dict), ("rates", dict)):
            if not isinstance(rec.get(key), kind):
                errs.append(f"{where}.{key} missing or not "
                            f"{kind.__name__}")
        for name, counters in rec.get("rates", {}).items():
            if not isinstance(counters, dict):
                errs.append(f"{where}.rates[{name!r}] is not an object")
                continue
            for ck, cv in counters.items():
                if not isinstance(cv, (int, float)):
                    errs.append(f"{where}.rates[{name!r}].{ck} is not "
                                f"a number")
    return errs


def cmd_show(args) -> None:
    doc = load_trajectory(args.trajectory)
    if not doc["records"]:
        print("bench_trajectory: no records")
        return
    for rec in doc["records"]:
        parts = []
        for name in sorted(rec["rates"]):
            counters = rec["rates"][name]
            key = sorted(counters)[0]
            parts.append(f"{name}={counters[key]:.3e}")
        tail = " ..." if len(parts) > 4 else ""
        print(f"{rec['date']}  {rec['bench']:24s} "
              + "  ".join(parts[:4]) + tail)


def cmd_validate(args) -> None:
    if not os.path.exists(args.trajectory):
        # Tolerated, as in check_bench.py --trajectory.
        print(f"bench_trajectory: {args.trajectory} absent (ok)")
        return
    with open(args.trajectory) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{args.trajectory}: not JSON: {e}")
    errs = validate_doc(doc)
    for e in errs:
        print(f"bench_trajectory: {args.trajectory}: {e}")
    if errs:
        sys.exit(1)
    print(f"bench_trajectory: {args.trajectory} valid "
          f"({len(doc['records'])} records)")


def main() -> None:
    ap = argparse.ArgumentParser(
        description="show or validate a benchmark trajectory file")
    ap.add_argument("--trajectory", default="BENCH_trajectory.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("show")
    sub.add_parser("validate")
    args = ap.parse_args()
    {"show": cmd_show, "validate": cmd_validate}[args.cmd](args)


if __name__ == "__main__":
    main()
