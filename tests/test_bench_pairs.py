"""``tools/bench_pairs.py``: the verdict on alternating benchmark pairs, and the pairs' order."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartiles 1.0225, 1.0675


@pytest.mark.parametrize(
    "change, better, expected",
    [
        # all ten pairs won, median gap 0.1 against a quartile spread of 0.045
        ([p - 0.1 for p in PARENT], "lower", "improved"),
        ([p + 0.1 for p in PARENT], "higher", "improved"),
        # nine wins are enough; the tenth pair is a tie, which counts for neither
        ([p - 0.1 for p in PARENT[:9]] + [PARENT[9]], "lower", "improved"),
        # eight wins are not, however large the gap
        ([p - 0.5 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], "lower", "unresolved"),
        # every pair won, but the gap is inside the parent's quartile spread
        ([p - 0.01 for p in PARENT], "lower", "unresolved"),
        # slower by 20%, inside the 25% bound
        ([p * 1.2 for p in PARENT], "lower", "unresolved"),
        # slower by 30%, past it
        ([p * 1.3 for p in PARENT], "lower", "worse"),
        ([p * 0.7 for p in PARENT], "higher", "worse"),
    ],
)
def test_verdict(bench_pairs, change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better, 0.25) == expected


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([p - 0.1 for p in PARENT], "lower", "improved"),
        ([p + 0.1 for p in PARENT], "higher", "improved"),
        # a per-layer metric has no bound: however much slower, never worse
        ([p * 3.0 for p in PARENT], "lower", "unresolved"),
        ([p * 0.1 for p in PARENT], "higher", "unresolved"),
    ],
)
def test_verdict_without_a_bound(bench_pairs, change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better, None) == expected


def test_wins_and_quartiles(bench_pairs):
    assert bench_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert bench_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.0225, 1.045, 1.0675))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("41-50") == list(range(41, 51))
    assert bench_pairs.seed_range("7") == [7]


def fake_tree(root: Path, name: str, fit_s: float, log: Path, traced: dict | None = None):
    """A tree whose benchmark logs each run and prints fixed metrics as its last line: the
    end-to-end ones with ``--trace 0``, and ``traced``, per-layer name -> value, with 1."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    benchmark = {
        "end_to_end": [
            {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        ],
        "per_layer": [
            {"name": "orchestrator.sweep_ms", "unit": "ms", "better": "lower"},
            {"name": "cli.study.cells", "unit": "count", "better": "higher"},
        ],
    }
    (tree / "BENCHMARK.json").write_text(json.dumps(benchmark))
    result = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"fit_s": {"value": fit_s, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}},
    }  # fmt: skip
    traced_result = {**result, "metrics": {k: {"value": v} for k, v in (traced or {}).items()}}
    script = (
        "import sys\n"
        "seed, trace = (sys.argv[sys.argv.index(flag) + 1] for flag in ('--seed', '--trace'))\n"
        f"open({str(log)!r}, 'a').write({name!r} + ' ' + seed + ' ' + trace + '\\n')\n"
        "print('human-readable line')\n"
        f"documents = {json.dumps(json.dumps(result))}, {json.dumps(json.dumps(traced_result))}\n"
        "print(documents[int(trace)])\n"
    )
    (tree / "perfbench" / "run.py").write_text(script)
    return tree


def test_runs_alternate_and_report(bench_pairs, tmp_path, capsys):
    log = tmp_path / "runs.log"
    parent = fake_tree(tmp_path, "parent", 0.2, log)
    change = fake_tree(tmp_path, "change", 0.1, log)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "study"]
    assert bench_pairs.main([*argv, "--seeds", "41-42", "--seconds", "1"]) == 0
    # the parent runs first on odd seeds, the change on even ones
    runs = ["parent 41 0", "change 41 0", "change 42 0", "parent 42 0"]
    assert log.read_text().split("\n")[:-1] == runs
    out = capsys.readouterr().out
    assert "change wins 2 of 2; improved" in out  # fit_s
    assert "change wins 0 of 2; unresolved" in out  # peak_rss_mb, tied


def test_a_failed_run_exits_1(bench_pairs, tmp_path):
    log = tmp_path / "runs.log"
    parent = fake_tree(tmp_path, "parent", 0.2, log)
    change = fake_tree(tmp_path, "change", 0.1, log)
    (change / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "study"]
    assert bench_pairs.main([*argv, "--seeds", "41"]) == 1


def test_trace_judges_the_chosen_per_layer_metrics(bench_pairs, tmp_path, capsys):
    log = tmp_path / "runs.log"
    traced = {"orchestrator.sweep_ms": 0.5, "cli.study.cells": 3}
    parent = fake_tree(tmp_path, "parent", 0.2, log, traced)
    traced = {"orchestrator.sweep_ms": 2.0, "cli.study.cells": 4}
    change = fake_tree(tmp_path, "change", 0.1, log, traced)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "study", "--trace"]
    metrics = ["--metric", "cli.study.cells", "--metric", "orchestrator.sweep_ms"]
    assert bench_pairs.main([*argv, *metrics, "--seeds", "41-42", "--seconds", "1"]) == 0
    runs = ["parent 41 1", "change 41 1", "change 42 1", "parent 42 1"]
    assert log.read_text().split("\n")[:-1] == runs
    out = capsys.readouterr().out
    # only the chosen metrics, each in its own direction, none with a bound
    assert "fit_s" not in out and "peak_rss_mb" not in out
    assert "cli.study.cells (count, higher is better, no bound)" in out
    assert "orchestrator.sweep_ms (ms, lower is better, no bound)" in out
    assert out.count("change wins 2 of 2; improved") == 1  # cli.study.cells
    assert "change wins 0 of 2; unresolved" in out  # four times slower, and no bound


@pytest.mark.parametrize(
    "options",
    [["--trace"], ["--metric", "orchestrator.sweep_ms"], ["--trace", "--metric", "fit_s"]],
    ids=["no-metric", "no-trace", "end-to-end-name"],
)
def test_trace_arguments_are_checked(bench_pairs, tmp_path, options):
    log = tmp_path / "runs.log"
    parent = fake_tree(tmp_path, "parent", 0.2, log)
    argv = ["--parent", str(parent), "--change", str(parent), "--workload", "study"]
    argv += ["--seeds", "41"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([*argv, *options])
    assert exit_info.value.code == 2
    assert not log.exists()


def test_an_absent_per_layer_metric_exits_1(bench_pairs, tmp_path):
    log = tmp_path / "runs.log"
    parent = fake_tree(tmp_path, "parent", 0.2, log, {"orchestrator.sweep_ms": 0.5})
    change = fake_tree(tmp_path, "change", 0.1, log, {"orchestrator.sweep_ms": None})
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "study", "--trace"]
    assert bench_pairs.main([*argv, "--metric", "orchestrator.sweep_ms", "--seeds", "41"]) == 1
