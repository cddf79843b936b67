#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written to ``BENCH_<workload>.json``.

    python tools/bench_pair.py --base <rev> --head <rev> --workload <name>

Run from inside the repository; the file is written at its root.  Each
side is a ``git archive`` of its commit, extracted to its own temporary
directory, and each run is ``python3 perfbench/run.py --workload <name>
--seed <s> --seconds <t> --trace 0`` in that copy, for seeds 1-10 and the
``run_seconds`` of the head's BENCHMARK.json, with every ``__pycache__``
removed first, so each run imports from source as a fresh checkout does.
For each seed the two sides run back to back, and the side that runs
first alternates from seed to seed.

The file holds each seed's pair of end-to-end metrics, and for each metric
of BENCHMARK.json the medians and quartiles of both sides, the head's
relative change of the median, and the pairs the head wins (ties count for
neither side) and loses.  The benchmark code is each side's own, so a
change that edits ``perfbench/`` is measured with two benchmarks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The tree of ``rev``, as ``git archive`` writes it, under ``into``."""
    tar = subprocess.run(["git", "archive", rev], check=True,
                         capture_output=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)


def run(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed perfbench run in ``copy``: its JSON result line."""
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench printed nothing in {copy} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def numpy_version() -> str:
    import numpy
    return numpy.__version__


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return list(values) * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(pairs: List[dict], better: Dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the head's wins."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        if None in base or None in head:
            out[name] = {"better": direction, "unresolved": "a run gave "
                         "no finite value"}
            continue
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        base_median, head_median = statistics.median(base), \
            statistics.median(head)
        out[name] = {
            "better": direction,
            "unit": pairs[0]["base"]["metrics"][name]["unit"],
            "base_median": base_median, "head_median": head_median,
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "change": (head_median - base_median) / base_median
            if base_median else None,
            "head_wins": wins, "head_losses": losses, "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--head", required=True, help="the change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    sides = {"base": git("rev-parse", args.base),
             "head": git("rev-parse", args.head)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        copies = {side: Path(tmp, side) for side in sides}
        for side, commit in sides.items():
            extract(commit, copies[side])
        spec = json.loads((copies["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(copies[side], args.workload, seed, seconds)
                print(f"seed {seed} {side}: "
                      + json.dumps({k: v["value"] for k, v in
                                    pair[side]["metrics"].items()}),
                      file=sys.stderr)
            pairs.append(pair)

    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed <seed> --seconds {seconds:g} --trace 0",
        "base": {"rev": args.base, "commit": sides["base"]},
        "head": {"rev": args.head, "commit": sides["head"]},
        "machine": {"python": platform.python_version(),
                    "numpy": numpy_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "summary": summary(pairs, better),
        "pairs": pairs,
    }
    path = Path(git("rev-parse", "--show-toplevel"),
                f"BENCH_{args.workload}.json")
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
