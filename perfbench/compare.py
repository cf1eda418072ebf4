#!/usr/bin/env python3
"""Compare two benchmark records written with ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints, for every workload and metric both records hold, the base value,
the new value and the relative change.  Refuses (exit 2) when the two
records ran with different BLAS thread counts: timings and the last digits
of the certificates both depend on it.
"""

from __future__ import annotations

import json
import sys


def _runs(path: str) -> dict[tuple[str, int], dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs = data["runs"] if "runs" in data else [data]
    return {(r["workload"], r["trace"]): r for r in runs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = _runs(argv[0]), _runs(argv[1])
    threads = {r["provenance"]["blas_threads"] for r in [*base.values(), *new.values()]}
    if len(threads) != 1:
        print(f"refusing to compare runs with different BLAS thread counts {sorted(threads)}",
              file=sys.stderr)
        return 2
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key]["result"], new[key]["result"]
        print(f"== {key[0]} (trace {key[1]}): failed {b['failed']}/{b['attempted']} -> "
              f"{n['failed']}/{n['attempted']}")
        for name, bm in b["metrics"].items():
            if name not in n["metrics"]:
                continue
            bv, nv = bm["value"], n["metrics"][name]["value"]
            change = f"{(nv - bv) / abs(bv):+.1%}" if bv else "n/a"
            print(f"  {name:40s} {bv:12.6g} {nv:12.6g} {bm['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
