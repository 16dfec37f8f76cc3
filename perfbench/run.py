#!/usr/bin/env python3
"""vmpfpca benchmark: time to fit and study throughput, with per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is ``sparse-wide``, ``dense-narrow``, ``study`` or ``all``.  Each
workload is a closed loop driven from this process: one ``vmpfpca`` command
at a time, the next started when the previous one exits, until S seconds have
passed (at least one command runs).  Inputs come from the seed.  Every output
is checked outside the timed interval.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See README.md.
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
import threading
import time
from pathlib import Path

from checks import check_fit, check_study_rows, score_fit, score_study
from inputs import write_dataset
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FIT_FLAGS = ["--num-eigen", "3", "--num-splines", "10", "--max-iter", "3000"]

WORKLOADS = {
    "sparse-wide": {"kind": "fit", "num_curves": 150, "obs": (20, 30)},
    "dense-narrow": {"kind": "fit", "num_curves": 20, "obs": (150, 300)},
    "study": {"kind": "study", "replicates": 1, "n_grid": (10, 50, 100), "workers": 1},
}
# Sizes for the self-test only: every code path, a few seconds each.
TINY = {
    "sparse-wide": {"kind": "fit", "num_curves": 20, "obs": (20, 30)},
    "dense-narrow": {"kind": "fit", "num_curves": 10, "obs": (60, 80)},
    "study": {"kind": "study", "replicates": 2, "n_grid": (20,), "workers": 2},
}

END_TO_END = {"fit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0  # every command of a run is killed after this much time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# running one command


def run_command(cli_args: list[str], mode: str, work: Path, deadline: float) -> dict:
    """Run ``vmpfpca CLI_ARGS`` through launch.py; return exit code, times, peak RSS and side data."""
    side_path = work / f"side-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "launch.py"), str(side_path), mode, *cli_args]
    with open(work / "command.log", "ab") as log:
        started = now()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=log, stderr=log)
        killer = threading.Timer(max(1.0, deadline - started), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = now() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    side = json.loads(side_path.read_text()) if side_path.exists() else {}
    marks_path = Path(f"{side_path}.marks")
    marks = [float(x) for x in marks_path.read_text().split()] if marks_path.exists() else []
    return {
        "exit_code": proc.returncode,
        "wall_s": wall - side.get("check_s", 0.0),
        "setup_s": min(marks) - started if marks else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "side": side,
    }


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Samples and failures gathered by one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.traced: list[dict] = []  # per traced command: per-layer metrics
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value) -> None:
        if value is not None:
            self.samples.setdefault(name, []).append(value)

    def add_pair(self, walls: dict) -> None:
        """Tracing overhead from one untraced and one traced command on the same input."""
        if len(walls) == 2:
            self.add("trace.untraced_s", walls["plain"])
            self.add("trace.traced_s", walls["trace"])
            self.add("trace.overhead_frac", walls["trace"] / walls["plain"] - 1.0)


def fit_unit(spec: dict, seed: int, index: int, work: Path, trace: bool, deadline: float, run: Run) -> None:
    """Fit one dataset with ``vmpfpca fit`` (twice with --trace 1: plain, then traced)."""
    csv = work / f"dataset-{index}.csv"
    write_dataset(csv, seed, index, spec["num_curves"], spec["obs"])
    modes = ["plain", "trace"] if trace else ["plain"]
    walls = {}
    for mode in modes:
        out = work / f"fit-{index}-{mode}.json"
        result = run_command(["fit", str(csv), *FIT_FLAGS, "--out", str(out)], mode, work, deadline)
        document = read_json(out) if result["exit_code"] == 0 else None
        problems = check_fit(result["exit_code"], document, result["side"].get("rotation"))
        run.attempted += 1
        if problems:
            run.failed += 1
            run.problems += [f"dataset {index} ({mode}): {p}" for p in problems]
            continue
        walls[mode] = result["wall_s"]
        if mode == "plain":
            run.add("fit_s", result["wall_s"])
            run.add("setup_s", result["setup_s"])
            run.add("peak_rss_mb", result["peak_rss_mb"])
            run.add("sweeps", document["manifest"]["iterations"])
            for key, value in score_fit(document["fit"]).items():
                run.add(key, value)
        else:
            run.traced.append(layer_metrics(result["side"], workers=1))
    run.add_pair(walls)


def study_unit(spec: dict, seed: int, index: int, work: Path, trace: bool, deadline: float, run: Run) -> None:
    """Run one ``vmpfpca eval --study`` (twice with --trace 1: plain, then traced)."""
    cells = spec["replicates"] * len(spec["n_grid"])
    base_seed = 1000 * seed + spec["replicates"] * index  # distinct replicate seeds across the run
    modes = ["plain", "trace"] if trace else ["plain"]
    walls = {}
    for mode in modes:
        out = work / f"study-{index}-{mode}.json"
        args = [
            "eval", "--study",
            "--replicates", str(spec["replicates"]),
            "--n-grid", ",".join(map(str, spec["n_grid"])),
            "--workers", str(spec["workers"]),
            "--seed", str(base_seed),
            *FIT_FLAGS,
            "--out", str(out),
        ]  # fmt: skip
        result = run_command(args, mode, work, deadline)
        rows = read_json(out) if result["exit_code"] == 0 else None
        problems, failed_cells = check_study_rows(result["exit_code"], rows, cells)
        run.attempted += cells
        run.failed += failed_cells
        run.problems += [f"study {index} ({mode}): {p}" for p in problems]
        if problems:
            continue
        walls[mode] = result["wall_s"]
        if mode == "plain":
            run.add("fit_s", result["wall_s"] / cells)
            run.add("study_fits_per_s", cells / result["wall_s"])
            run.add("setup_s", result["setup_s"])
            run.add("peak_rss_mb", result["peak_rss_mb"])
            run.add("sweeps", sum(row["iterations"] for row in rows))
            for key, value in score_study(rows).items():
                run.add(key, value)
        else:
            run.traced.append(layer_metrics(result["side"], workers=spec["workers"]))
    run.add_pair(walls)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path) -> Run:
    spec = (TINY if tiny else WORKLOADS)[name]
    unit = fit_unit if spec["kind"] == "fit" else study_unit
    run = Run()
    started = now()
    deadline = started + RUN_LIMIT_S
    index = 0
    while index == 0 or now() - started < seconds:
        unit(spec, seed, index, work, trace, deadline, run)
        index += 1
    return run


# ---------------------------------------------------------------------------
# per-layer metrics of one traced command


def layer_metrics(side: dict, workers: int) -> dict:
    """Per-layer metrics of one traced command; None marks a name that no longer exists."""
    trace = side.get("trace", {"stats": {}, "scope_self": {}, "counts": {}, "absent": []})
    stats, counts, absent = trace["stats"], trace["counts"], set(trace["absent"])

    def calls(key):
        return stats[key][0] if key in stats else None

    def seconds(key):
        return stats[key][1] if key in stats else None

    def count(name):
        return None if name in absent else counts.get(name, 0)

    m: dict = {"cli.import_s": side.get("import_s")}
    for layer, targets in LAYERS.items():
        keys = [f"{layer}.{metric}" for _, metric in targets if f"{layer}.{metric}" in stats]
        m[f"{layer}.calls"] = sum(stats[k][0] for k in keys) if keys else None
        m[f"{layer}.self_s"] = sum(stats[k][2] for k in keys) if keys else None
    for key in (
        "data.read_dataset_csv", "data.validate", "splines.design_matrix",
        "expfam.gaussian_vec_to_moments", "graph.stochastic_to_factor",
        "graph.q_natural_params", "graph.npbf",
        "fragments.likelihood_expectations", "fragments.likelihood_message_to_nu",
        "fragments.likelihood_messages_to_zeta", "fragments.likelihood_message_to_sigsq_eps",
    ):  # fmt: skip
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.s"] = seconds(key)
    m["graph.store_get.calls"] = calls("graph.store_get")
    m["graph.store_set.calls"] = calls("graph.store_set")
    for key in (
        "fragments.build_likelihood_cache", "fragments.penalization_messages",
        "fragments.iterated_igw_messages", "orchestrator.initialize", "orchestrator.fit_state",
        "orchestrator.convergence_metric", "orchestrator.rotation_snap",
        "postprocess.extract", "postprocess.orthogonalize", "postprocess.finalize",
        "simulate.generate", "cli.run_fit",
    ):  # fmt: skip
        m[f"{key}.s"] = seconds(key)
    m["data.rows"] = count("data.rows")
    sweeps = count("orchestrator.sweeps")
    m["orchestrator.sweeps"] = sweeps
    fit_state_s = seconds("orchestrator.fit_state")
    m["orchestrator.sweep_ms"] = 1000.0 * fit_state_s / sweeps if fit_state_s and sweeps else None
    m["trace.fit_state_coverage"] = (
        sum(trace["scope_self"].values()) / fit_state_s if fit_state_s else None
    )
    main_s = seconds("cli.main")
    inner = [seconds(k) or 0.0 for k in ("data.read_dataset_csv", "cli.run_fit", "cli.run_study")]
    m["cli.output_s"] = main_s - sum(inner) if main_s is not None else None
    cells = side.get("cells", [])
    study_s = seconds("cli.run_study")
    m["cli.study.cells"] = len(cells)
    m["cli.study.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    m["cli.study.cell_s.max"] = max(cells) if cells else 0.0
    m["cli.study.pool_busy_frac"] = sum(cells) / (workers * study_s) if cells and study_s else 0.0
    m["cli.study.sweeps_total"] = sweeps if cells else 0
    return m


# ---------------------------------------------------------------------------
# reporting


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with at least ten samples above it."""
    ordered = sorted(values)
    k = len(ordered) - 10
    return (100.0 * k / len(ordered), ordered[k - 1]) if k >= 1 else None


PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "import_s": "s", "output_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.startswith("accuracy."):
        return "y2" if "ise" in name else "ratio"
    special = {
        "data.rows": "count", "orchestrator.sweeps": "count", "orchestrator.sweep_ms": "ms",
        "cli.study.cells": "count", "cli.study.sweeps_total": "count",
        "cli.study.pool_busy_frac": "ratio", "trace.overhead_frac": "ratio",
        "trace.fit_state_coverage": "ratio",
    }  # fmt: skip
    return special.get(name) or PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def summarize(name: str, run: Run, trace: bool) -> dict:
    """Print the run's human-readable report; return its result object."""
    s = run.samples
    print(f"workload {name}: {run.attempted} fits attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    fail_frac = run.failed / run.attempted
    print(f"  fail_frac {fail_frac!r} ratio ({run.failed}/{run.attempted})")
    lines = [("fit_s", "s"), ("setup_s", "s"), ("study_fits_per_s", "fits/s"), ("peak_rss_mb", "MB")]
    for metric, unit in lines:
        if metric in s:
            values = s[metric]
            high = tail(values)
            high_text = f"p{high[0]:.0f} {high[1]!r}" if high else "no percentile with 10 samples beyond"
            print(f"  {metric} median {statistics.median(values)!r} {unit}; {high_text}; {len(values)} samples")
    for metric in ("ise_mean", "ise_psi_max", "eigval_relerr", "sigma2_relerr", "sweeps"):
        if metric in s:
            unit = {"sweeps": "count", "ise_mean": "y2", "ise_psi_max": "y2"}.get(metric, "ratio")
            print(f"  {metric} median {statistics.median(s[metric])!r} {unit} over {len(s[metric])}")

    if not trace:
        metrics = {
            key: {"value": statistics.median(s[key]), "unit": unit}
            for key, unit in END_TO_END.items()
            if key in s
        }
        complete = len(metrics) == len(END_TO_END)
    else:
        names = sorted({k for m in run.traced for k in m})
        metrics = {}
        for key in names:
            values = [m[key] for m in run.traced if m.get(key) is not None]
            metrics[key] = {"value": statistics.median(values) if values else None, "unit": per_layer_unit(key)}
        for key in ("trace.untraced_s", "trace.traced_s", "trace.overhead_frac"):
            if key in s:
                metrics[key] = {"value": statistics.median(s[key]), "unit": per_layer_unit(key)}
        for key in ("ise_mean", "ise_psi_max", "eigval_relerr", "sigma2_relerr"):
            if key in s:
                metrics[f"accuracy.{key}"] = {
                    "value": statistics.median(s[key]), "unit": per_layer_unit(f"accuracy.{key}")
                }
        absent = sorted(k for k, v in metrics.items() if v["value"] is None)
        for key in absent:
            metrics[key]["absent"] = True
        if absent:
            print(f"  absent layers (name no longer exists): {', '.join(absent)}")
        complete = bool(run.traced)
        for key, entry in metrics.items():
            print(f"  {key} {entry['value']!r} {entry['unit']}")
    return {
        "correct": run.failed == 0 and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def environment() -> dict:
    """What the timings depend on: cores, BLAS and its threads, interpreter and library versions."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):  # fmt: skip
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "vmpfpca" / "cli.py").is_file():
        print(f"error: the vmpfpca sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vmpfpca

    if Path(vmpfpca.__file__).resolve().parent != SRC / "vmpfpca":
        print(f"error: imported vmpfpca from {vmpfpca.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    results = {}
    for name in names:
        work = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{name}-"))
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results[name] = summarize(name, run, bool(args.trace))
    try:
        scratch.rmdir()
    except OSError:  # another run is using it
        pass
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
