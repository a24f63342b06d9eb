#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and on this one in alternating
pairs, and write one record of both sides.

    python3 scripts/bench_ab.py ../parent --out ab.json
    python3 scripts/bench_ab.py ../parent --out ab.json --seed 500

Each run is a checkout's own `perfbench/run.py`, started from that
checkout's root, so each side imports `xform` from its own `src/`, for the
`run_seconds` of this checkout's `BENCHMARK.json`.  Per workload, pair k of
10 runs both sides with seed `--seed + k`, the parent first in even pairs
and the change first in odd ones, untraced (`--trace 0`).  Then each side
runs once traced (`--trace 1`) at the first seed.

The record holds, per workload and end-to-end metric (as `BENCHMARK.json`
of this checkout declares them), each side's runs, median and quartiles,
the pairs the change won (ties count for neither side) and whether the
benchmark's rule for a claimed gain holds: the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the distance between the parent's quartiles.  It also holds each side's
traced per-layer metrics, `src_lines` and commit, and the Python version
and core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of a checkout's benchmark: its result JSON and `src_lines`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    found = re.search(r"^src_lines (\d+)", proc.stdout, re.M)
    result["src_lines"] = int(found.group(1)) if found else None
    return result


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides of one metric, and the benchmark's rule for a claimed gain."""
    sign = 1 if better == "lower" else -1  # positive: the change is better
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    a, b = summary(parent), summary(change)
    margin = sign * (a["median"] - b["median"])
    return {"parent": a, "change": b, "change_won": won, "pairs": len(parent),
            "median_ratio": a["median"] / b["median"] if b["median"] else None,
            "gain_rule_met": won >= 0.9 * len(parent) and margin > a["q3"] - a["q1"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("--out", type=Path, required=True, help="the record to write")
    ap.add_argument("--seed", type=int, default=100, help="the seed of the first pair")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "python": platform.python_version(), "cores": os.cpu_count(),
        "pairs": PAIRS, "seconds": seconds, "seeds": [args.seed + k for k in range(PAIRS)],
        "commits": {side: commit(path) for side, path in sides.items()},
        "workloads": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        runs: dict = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(perfbench(sides[side], workload, args.seed + k, seconds, 0))
                print(f"{workload} pair {k} {side}: "
                      + " ".join(f"{n}={v['value']:.4g}"
                                 for n, v in runs[side][-1]["metrics"].items()), flush=True)
        traced = {side: perfbench(path, workload, args.seed, seconds, 1)
                  for side, path in sides.items()}
        record["workloads"][workload] = {
            "metrics": {
                name: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                       **compare(*[[r["metrics"][name]["value"] for r in runs[side]]
                                   for side in ("parent", "change")], m["better"])}
                for name, m in metrics.items()},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "src_lines": {side: runs[side][0]["src_lines"] for side in runs},
            "traced": {side: {n: v["value"] for n, v in traced[side]["metrics"].items()}
                       for side in traced},
        }
        for name, m in record["workloads"][workload]["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} won {m['change_won']}/{m['pairs']}",
                  flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
