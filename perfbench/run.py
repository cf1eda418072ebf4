#!/usr/bin/env python3
"""Benchmark of ``stabcert certify``: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 20260810 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

One run sets up the workload, then certifies its problems through
``stabcert.cli.main`` in a closed loop with one client for ``--seconds``
(whole passes; at least one).  With ``--trace 0`` the last stdout line is
the end-to-end result; with ``--trace 1`` it holds the per-layer metrics.
The line before it is the run's record: provenance, matrix sizes and the
figures that are not gated (see README.md).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here: before numpy loads

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "maxwell-n3", "maxwell-n3-hetero")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the run's record (spans included) to this JSON file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _fix_blas_threads() -> int:
    """Pin OpenBLAS to the default users get, one thread per usable CPU."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def run_all(args) -> int:
    """Run every workload untraced, then traced, and print every metric."""
    records = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])
            record["result"] = json.loads(lines[-1])
            records.append(record)
    for record in records:
        result = record["result"]
        print(f"\n== {record['workload']} (trace {record['trace']}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        details = record.get("details", {})
        if "failed_share" in details:
            print(f"  {'failed_share':40s} {details['failed_share']:.6g} share")
        if "certify_p95_s" in details:
            print(f"  {'certify_p95_s':40s} {details['certify_p95_s']:.6g} s")
        if "certify_samples" in details:
            print(f"  {'certify samples':40s} {details['certify_samples']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": records}, fh, indent=1)
    return 0 if all(r["result"]["correct"] for r in records) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabcert", "__init__.py")):
        print(f"no stabcert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    blas_threads = _fix_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import bench  # noqa: E402  (numpy loads here, after the thread count is fixed)

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_only:
            bench.setup(args.workload, args.seed, workdir)
            print(time.perf_counter() - T_START)
            return 0
        record = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                               T_START, os.path.abspath(__file__), ROOT, blas_threads)
    except bench.SetupFailure as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    result = record.pop("result")
    record.pop("spans", None)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
