#!/usr/bin/env python3
"""Run alternating benchmark pairs between two source trees and judge their metrics.

    python tools/bench_pairs.py --parent DIR --change DIR --workload NAME --seeds 41-50
        [--seconds 50] [--trace --metric NAME [--metric NAME ...]]

For each seed, runs each tree's own ``perfbench/run.py --workload NAME --seed
SEED --seconds S --trace 0``, the parent first on odd seeds and the change
first on even ones, and reads each run's last line of standard output, the
benchmark's JSON result.  Then, for every end-to-end metric of the parent's
``BENCHMARK.json``, it prints the per-pair values, each side's median and
quartiles, the change's wins (ties count for neither) and a verdict:

- ``improved``: the change wins at least nine tenths of the pairs, and the
  medians differ, in the metric's better direction, by more than the
  distance between the parent's quartiles;
- ``worse``: the change's median is past the parent's median by more than
  the metric's bound, a fraction of the parent's median;
- ``unresolved``: neither.

With ``--trace`` the runs are ``--trace 1``, and the metrics judged are the
per-layer metrics named by ``--metric``, each with its ``BENCHMARK.json``
direction.  A per-layer metric has no bound, so its verdict is ``improved``
or ``unresolved``.

It exits 1 if a run fails or its result lacks a metric, 2 on bad arguments,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

IMPROVED, WORSE, UNRESOLVED = "improved", "worse", "unresolved"


def seed_range(text: str) -> list[int]:
    """The seeds of ``A-B`` (both included) or of a single ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """``improved``, ``worse`` or ``unresolved`` for one metric's paired values (see above);
    with no ``bound``, never ``worse``."""
    sign = 1.0 if better == "lower" else -1.0
    low, parent_median, high = quartiles(parent)
    change_median = statistics.median(change)
    gain = sign * (parent_median - change_median)
    if wins(parent, change, better) >= 0.9 * len(parent) and gain > high - low:
        return IMPROVED
    if bound is not None and -gain > bound * abs(parent_median):
        return WORSE
    return UNRESOLVED


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The JSON result of one benchmark run of ``tree``."""
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}, seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def report(name: str, spec: dict, seeds: list[int], parent: list[float], change: list[float]):
    """Print one metric's pairs, medians, quartiles, wins and verdict."""
    unit, better, bound = spec["unit"], spec["better"], spec.get("bound")
    limit = "no bound" if bound is None else f"bound {bound:.0%}"
    print(f"{name} ({unit}, {better} is better, {limit})")
    print("  seed  parent  change")
    for seed, p, c in zip(seeds, parent, change):
        print(f"  {seed}  {p:.6g}  {c:.6g}")
    for side, values in (("parent", parent), ("change", change)):
        low, median, high = quartiles(values)
        print(f"  {side} median {median:.6g}, quartiles {low:.6g} to {high:.6g}")
    count = wins(parent, change, better)
    print(f"  change wins {count} of {len(parent)}; {verdict(parent, change, better, bound)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", action="store_true", help="judge per-layer metrics instead")
    parser.add_argument(
        "--metric", action="append", default=[], help="a per-layer metric to judge (repeatable)"
    )
    args = parser.parse_args(argv)
    if args.trace != bool(args.metric):
        parser.error("--trace needs at least one --metric, and --metric needs --trace")

    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    if args.trace:
        per_layer = {spec["name"]: spec for spec in benchmark["per_layer"]}
        unknown = [name for name in args.metric if name not in per_layer]
        if unknown:
            parser.error(f"not a per-layer metric of BENCHMARK.json: {', '.join(unknown)}")
        metrics = {name: per_layer[name] for name in args.metric}
    else:
        metrics = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    values = {side: {name: [] for name in metrics} for side in ("parent", "change")}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            try:
                tree = getattr(args, side)
                result = run_once(tree, args.workload, seed, args.seconds, args.trace)
                row = {name: result["metrics"][name]["value"] for name in metrics}
                if None in row.values():
                    raise ValueError(f"a metric has no value: {row}")
            except (RuntimeError, ValueError, KeyError) as err:
                print(f"error: {side} run failed: {err!r}", file=sys.stderr)
                return 1
            print(f"seed {seed} {side}: {result['failed']} of {result['attempted']} failed")
            for name, value in row.items():
                values[side][name].append(value)
    for name, spec in metrics.items():
        report(name, spec, args.seeds, values["parent"][name], values["change"][name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
