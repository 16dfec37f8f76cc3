"""The names the benchmark in ``perfbench/`` traces and hooks still exist.

The benchmark wraps package functions by module and attribute name
(``perfbench/tracer.py``) and its launcher patches a few more
(``perfbench/launch.py``).  A refactor that renames or removes one of them
turns a per-layer metric of ``BENCHMARK.json`` into null or breaks the
launcher, so these checks resolve every such name.  Nothing is fitted.
"""

import dataclasses
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _traced_path(layer: str, metric: str):
    """Attribute path behind ``layer.metric`` in the tracer, or None if it is derived."""
    for path, name in tracer.LAYERS.get(layer, []):
        if name == metric:
            return path
    return None


def _per_layer_targets() -> list[tuple[str, str]]:
    targets = set()
    for metric in SPEC["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        path = _traced_path(layer, rest.split(".")[0])
        if path is not None:
            targets.add((layer, path))
    return sorted(targets)


@pytest.mark.parametrize("layer, path", _per_layer_targets())
def test_per_layer_metric_target_resolves(layer, path):
    assert tracer.resolve(f"vmpfpca.{layer}", path) is not None, f"vmpfpca.{layer}.{path}"


def test_every_layer_with_metrics_keeps_a_traced_name():
    layers = {m["name"].split(".")[0] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
    for layer in layers & set(tracer.LAYERS):
        assert any(
            tracer.resolve(f"vmpfpca.{layer}", path) is not None
            for path, _ in tracer.LAYERS[layer]
        ), layer


def test_observed_spans_resolve():
    # orchestrator.sweeps and data.rows are read off these calls
    for key in tracer.OBSERVERS:
        layer, metric = key.split(".")
        path = _traced_path(layer, metric)
        assert path is not None and tracer.resolve(f"vmpfpca.{layer}", path) is not None, key


def test_launch_hooks_exist():
    source = (PERFBENCH / "launch.py").read_text()
    patched = re.findall(r'replace\("(vmpfpca\.\w+)", "([\w.]+)"', source)
    imported = [
        (module, name.strip())
        for module, names in re.findall(r"from (vmpfpca\.\w+) import ([\w, ]+)", source)
        for name in names.split(",")
    ]
    assert patched and imported
    for module, path in patched + imported + [("vmpfpca.cli", "main")]:
        assert tracer.resolve(module, path) is not None, f"{module}.{path}"


def test_hooked_results_keep_their_fields():
    # launch.py reads state.iterations, state.basis, result.grid and result.fitted.
    orchestrator = importlib.import_module("vmpfpca.orchestrator")
    postprocess = importlib.import_module("vmpfpca.postprocess")
    data = importlib.import_module("vmpfpca.data")
    assert {"iterations", "basis"} <= {f.name for f in dataclasses.fields(orchestrator.VmpState)}
    assert {"grid", "fitted"} <= {f.name for f in dataclasses.fields(postprocess.FpcaFit)}
    assert isinstance(data.FunctionalDataset.num_observations, property)
