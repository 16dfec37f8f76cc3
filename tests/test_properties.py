"""Property tests: every subcommand ends in a documented exit code, never a traceback.

Hypothesis draws tiny CSVs (2-6 curves of 1-8 observations, tied times,
constant values) and fit flags, with up to two more components than the
2 + num_splines coefficients of a function, which exit 2.  Every run must
end in a documented exit code, and every fit it writes (exit 0, or 4 with
output retained) must meet the post-processing invariants of the acceptance
suite's criterion 7: trapezoid-orthonormal eigenfunctions, mean-zero scores
and descending eigenvalues.  The same cases with a curve label over the
``csv`` module's field limit, or with 604 or 1000 splines, must exit 2.
Further properties draw ``simulate`` flags
(non-finite, zero and negative variances, too few observations),
``eval --study`` runs on tiny curve-count grids, ``eval --fit/--truth`` on
mutated documents (a malformed ``eigenvalues`` list or a NaN or infinite
number exits 2), and ``fit`` hyperparameters whose prior precisions over- or
underflow.  The examples are derandomised, so each run sees the same cases.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from vmpfpca import cli
from vmpfpca.data import read_dataset_csv, write_dataset_csv
from vmpfpca.postprocess import trapezoid_inner
from vmpfpca.simulate import SimConfig, generate

EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_VALIDATION,
    cli.EXIT_IO,
    cli.EXIT_NONCONVERGENCE,
    cli.EXIT_DEGENERACY,
}

UNIT_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)
WIDE_TIMES = st.one_of(st.integers(-3, 3).map(float), st.floats(-50.0, 50.0, allow_nan=False))
VALUES = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def fit_cases(draw):
    rescale = draw(st.booleans())
    times = WIDE_TIMES if rescale else UNIT_TIMES
    constant = draw(st.sampled_from(["none", "per-curve", "all"]))
    shared_value = draw(VALUES)
    rows = []
    for curve in range(draw(st.integers(2, 6))):
        curve_times = draw(st.lists(times, min_size=1, max_size=8))
        if constant == "all":
            values = [shared_value] * len(curve_times)
        elif constant == "per-curve":
            values = [draw(VALUES)] * len(curve_times)
        else:
            values = draw(st.lists(VALUES, min_size=len(curve_times), max_size=len(curve_times)))
        rows.extend((curve, t, y) for t, y in zip(curve_times, values))
    num_splines = draw(st.integers(3, 8))
    flags = [
        "--num-eigen", str(draw(st.integers(1, num_splines + 4))),
        "--num-splines", str(num_splines),
        "--max-iter", str(draw(st.integers(1, 30))),
        "--grid-size", "101",
    ]  # fmt: skip
    if rescale:
        flags.append("--rescale-time")
    return rows, flags


def check_invariants(fit: dict) -> None:
    grid = np.asarray(fit["grid"])
    funcs = np.asarray(fit["eigenfunctions"])  # one row per component
    scores = np.asarray(fit["scores"])
    eigenvalues = np.asarray(fit["eigenvalues"])
    assert np.all(np.isfinite(funcs)) and np.all(np.isfinite(scores))

    gram = np.array([[trapezoid_inner(f, g, grid) for g in funcs] for f in funcs])
    assert np.abs(gram - np.eye(len(funcs))).max() <= 1e-3

    assert np.abs(scores.mean(axis=0)).max() <= 1e-8 * np.abs(scores).max()

    assert np.all(eigenvalues > 0)
    assert np.all(eigenvalues[1:] <= eigenvalues[:-1] * (1.0 + 1e-9))


def derandomised(max_examples):
    return settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


@derandomised(60)
@given(fit_cases())
def test_fit_exits_cleanly_and_meets_invariants(case):
    rows, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(
            "curve_id,t,y\n" + "".join(f"{c},{t!r},{y!r}\n" for c, t, y in rows),
            encoding="utf-8",
        )
        out = Path(tmp) / "fit.json"
        code = cli.main(["fit", str(data), *flags, "--out", str(out)])
        assert code in EXIT_CODES
        event(f"exit {code}")
        if code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE):
            check_invariants(json.loads(out.read_text())["fit"])


@derandomised(30)
@given(fit_cases(), st.sampled_from(["curve label", "604 splines", "1000 splines"]))
def test_oversized_inputs_exit_2(case, oversized):
    """A curve label over the ``csv`` module's field limit, or a basis past the
    603 columns ``FitConfig`` allows, exits 2 before any fit runs."""
    rows, flags = case
    if oversized == "curve label":
        rows[0] = ("c" * (csv.field_size_limit() + 1), *rows[0][1:])
    else:
        flags[flags.index("--num-splines") + 1] = oversized.split()[0]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(
            "curve_id,t,y\n" + "".join(f"{c},{t!r},{y!r}\n" for c, t, y in rows),
            encoding="utf-8",
        )
        code = cli.main(["fit", str(data), *flags, "--out", str(Path(tmp) / "fit.json")])
        assert code == cli.EXIT_VALIDATION
        event(f"{oversized}: exit {code}")


VARIANCES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"])


def flags_with_awkward_values(draw, choices, max_awkward):
    """One flag per ``choices`` entry (valid, awkward), up to ``max_awkward`` of them awkward.

    Flags are written as ``--flag=value``, so argparse reads values such as
    "-inf" as values.
    """
    awkward = draw(st.sets(st.sampled_from(sorted(choices)), max_size=max_awkward))
    return [f"--{flag}={draw(pair[flag in awkward])}" for flag, pair in choices.items()]


@st.composite
def simulate_flags(draw):
    choices = {
        "n": (st.integers(1, 3), st.integers(-1, 0)),
        "t-min": (st.integers(2, 3), st.integers(0, 1)),
        "t-max": (st.integers(3, 5), st.integers(0, 2)),
        "noise-variance": (st.sampled_from(["0", "0.5", "1e300"]), VARIANCES),
        "score-variances": (
            st.sampled_from(["1,0.25", "2,2", "1e300,1e-300"]),
            st.lists(VARIANCES, min_size=1, max_size=3).map(",".join),
        ),
        "grid-size": (st.just(101), st.just(100)),
        "seed": (st.integers(0, 9), st.just(-1)),
    }
    return flags_with_awkward_values(draw, choices, 3)


@derandomised(80)
@given(simulate_flags())
def test_simulate_exits_cleanly_and_writes_finite_data(flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sim"
        code = cli.main(["simulate", *flags, "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
        event(f"exit {code}")
        if code == cli.EXIT_OK:
            dataset = read_dataset_csv(out / "dataset.csv")
            assert np.all(np.isfinite(dataset.values))
        else:
            assert not out.exists()


def curve_counts(entries):
    return st.lists(entries, min_size=1, max_size=2).map(lambda counts: ",".join(map(str, counts)))


@st.composite
def study_flags(draw):
    choices = {
        "n-grid": (curve_counts(st.integers(2, 4)), curve_counts(st.integers(-1, 4))),
        "replicates": (st.integers(1, 2), st.integers(0, 2)),
        "seed": (st.integers(0, 3), st.just(-1)),
    }
    return [
        *flags_with_awkward_values(draw, choices, 2),
        f"--max-iter={draw(st.integers(1, 5))}",
        f"--num-eigen={draw(st.integers(1, 9))}",
        "--num-splines=5",
        "--grid-size=101",
    ]


@derandomised(80)
@given(study_flags())
def test_study_exits_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "study.json"
        code = cli.main(["eval", "--study", *flags, "--out", str(out)])
        assert code in EXIT_CODES
        event(f"exit {code}")
        assert out.exists() == (code == cli.EXIT_OK)


EIGENVALUE_MUTATIONS = [
    "ragged eigenvalues", "string eigenvalues", "object eigenvalues", "eigenvalue count"
]
NON_FINITE_MUTATIONS = ["NaN", "Infinity", "-Infinity"]


@st.composite
def eval_documents(draw):
    """A fit and a truth document, one of them mutated."""
    grids = [np.linspace(0.0, 1.0, draw(st.integers(1, 5))).tolist() for _ in "ft"]
    docs = []
    for grid in grids:
        rows = draw(st.integers(1, 3))
        docs.append(
            {
                "grid": grid,
                "mean": draw(st.lists(VALUES, min_size=len(grid), max_size=len(grid))),
                "eigenfunctions": [
                    draw(st.lists(VALUES, min_size=len(grid), max_size=len(grid)))
                    for _ in range(rows)
                ],
            }
        )
    fit_doc, truth_doc = docs
    fit_doc["eigenvalues"] = [1.0] * len(fit_doc["eigenfunctions"])
    fit_doc["noise_precision_mean"] = draw(st.sampled_from([None, 0, 2.0]))
    if draw(st.booleans()):
        fit_doc = {"fit": fit_doc, "manifest": {}}

    target = draw(st.sampled_from(["fit", "truth"]))
    doc = fit_doc if target == "fit" else truth_doc
    inner = doc.get("fit", doc)
    mutations = ["none", "drop", "list", "truncate", *NON_FINITE_MUTATIONS]
    if target == "fit":
        mutations += EIGENVALUE_MUTATIONS
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        del inner[draw(st.sampled_from(sorted(inner)))]
    elif mutation == "list":
        doc = [inner] if inner is doc else {**doc, "fit": [inner]}
    elif mutation == "truncate":
        curves = [inner["grid"], inner["mean"], *inner["eigenfunctions"]]
        curve = draw(st.sampled_from(curves))
        del curve[-1:]
    elif mutation == "ragged eigenvalues":
        inner["eigenvalues"] = [inner["eigenvalues"] + [1.0], [1.0]]
    elif mutation == "string eigenvalues":
        inner["eigenvalues"] = "abc"
    elif mutation == "object eigenvalues":
        inner["eigenvalues"] = {"a": 1}
    elif mutation == "eigenvalue count":
        count = len(inner["eigenfunctions"])
        inner["eigenvalues"] = [1.0] * draw(st.integers(0, 4).filter(lambda k: k != count))
    elif mutation in NON_FINITE_MUTATIONS:
        value = float(mutation.lower().replace("infinity", "inf"))
        numbers = [inner["grid"], inner["mean"], *inner["eigenfunctions"]]
        if target == "fit":
            numbers.append(inner["eigenvalues"])
        if target == "fit" and draw(st.booleans()):
            inner["noise_precision_mean"] = value
        else:
            curve = draw(st.sampled_from(numbers))
            curve[draw(st.integers(0, len(curve) - 1))] = value
    if target == "fit":
        fit_doc = doc
    else:
        truth_doc = doc
    return fit_doc, truth_doc, mutation


@derandomised(100)
@given(eval_documents())
def test_eval_exits_cleanly_on_mutated_documents(case):
    fit_doc, truth_doc, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "fit.json", Path(tmp) / "truth.json"]
        for path, doc in zip(paths, (fit_doc, truth_doc)):
            path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "metrics.json"
        code = cli.main(
            ["eval", "--fit", str(paths[0]), "--truth", str(paths[1]), "--out", str(out)]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
        event(f"{mutation}: exit {code}")
        if mutation == "none":
            assert code == cli.EXIT_OK
        elif mutation in EIGENVALUE_MUTATIONS + NON_FINITE_MUTATIONS:
            assert code == cli.EXIT_VALIDATION


@pytest.fixture(scope="module")
def simulated_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "dataset.csv"
    write_dataset_csv(generate(SimConfig(num_curves=10, seed=3))[0], path)
    return path


HYPERPARAMETER = st.sampled_from(
    ["1e-320", "1e-300", "1e-150", "1", "1e5", "1e150", "1e200", "inf"]
)


# some extreme values collapse the scores, whose near-tied eigenvalues finalize warns of
@pytest.mark.filterwarnings(r"ignore:score covariance has \(near-\)tied eigenvalues:RuntimeWarning")
@derandomised(80)
@given(st.lists(HYPERPARAMETER, min_size=4, max_size=4))
def test_fit_exits_cleanly_on_extreme_hyperparameters(simulated_csv, values):
    flags = ["--prior-beta-var", "--hyper-a-eps", "--hyper-a-mu", "--hyper-a-psi"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fit.json"
        code = cli.main(
            [
                "fit", str(simulated_csv), *[x for pair in zip(flags, values) for x in pair],
                "--max-iter", "50", "--grid-size", "101", "--out", str(out),
            ]
        )  # fmt: skip
        assert code in EXIT_CODES
        event(f"exit {code}")
        if code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE):
            check_invariants(json.loads(out.read_text())["fit"])
