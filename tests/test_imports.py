"""The package runs on numpy and the standard library alone; scipy is a test oracle only.

A fit also leaves the process pool's modules unimported: only a study with
more than one worker needs them.  The fragments and the sweep keep every
message in the store's array form, and post-processing and the command line
read only that form, so none of them imports the natural-parameter objects
or the vec/vech algebra that converts to them.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

FIT_THEN_LIST_SCIPY = """
import json, sys
from vmpfpca import cli
work = sys.argv[1]
codes = [
    cli.main(["simulate", "--n", "20", "--seed", "3", "--out", work]),
    cli.main(["fit", work + "/dataset.csv", "--num-eigen", "2", "--num-splines", "8",
              "--max-iter", "2000", "--out", work + "/fit.json"]),
]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "process_pool": "concurrent.futures.process" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def fit_report(tmp_path_factory):
    """Exit codes and imported modules of a simulate + fit run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FIT_THEN_LIST_SCIPY, str(tmp_path_factory.mktemp("fit"))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    return report


def test_full_fit_leaves_scipy_unimported(fit_report):
    assert fit_report["scipy"] == []


def test_full_fit_leaves_process_pool_unimported(fit_report):
    assert fit_report["process_pool"] is False


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import scipy|from scipy)", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "vmpfpca").rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


NATURAL_PARAMETER_NAMES = {
    "GaussianVecParams",
    "GaussianVechParams",
    "InvChiSqParams",
    "vec",
    "unvec",
    "vech",
    "duplication_matrix",
    "moore_penrose_duplication",
}


@pytest.mark.parametrize("module", ["fragments.py", "orchestrator.py", "postprocess.py", "cli.py"])
def test_run_path_imports_no_natural_parameter_form(module):
    tree = ast.parse((SRC / "vmpfpca" / module).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & NATURAL_PARAMETER_NAMES == set()
    # nor through a module object, as in expfam.vec
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & NATURAL_PARAMETER_NAMES == set()
