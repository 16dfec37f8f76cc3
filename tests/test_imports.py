"""The package runs on numpy and the standard library alone; scipy is a test oracle only."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_full_fit_leaves_scipy_unimported(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FIT_THEN_LIST_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import scipy|from scipy)", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "vmpfpca").rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
