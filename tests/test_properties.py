"""Property tests: ``vmpfpca fit`` on small, awkward datasets never raises.

Hypothesis draws tiny CSVs (2-6 curves of 1-8 observations, tied times,
constant values) and fit flags.  Every run must end in a documented exit
code, and every fit it writes (exit 0, or 4 with output retained) must meet
the post-processing invariants of the acceptance suite's criterion 7:
trapezoid-orthonormal eigenfunctions, mean-zero scores and descending
eigenvalues.  The examples are derandomised, so each run sees the same
cases.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from vmpfpca import cli
from vmpfpca.postprocess import trapezoid_inner

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
    flags = [
        "--num-eigen", str(draw(st.integers(1, 4))),
        "--num-splines", str(draw(st.integers(3, 8))),
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


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
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
