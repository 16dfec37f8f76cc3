"""Per-layer span tracing applied from outside the package.

Every layer is one module of ``vmpfpca``.  The tracer wraps the functions
listed in ``LAYERS`` by module and attribute name and replaces every
reference to the original object in the loaded ``vmpfpca`` modules, so calls
made through ``from .x import f`` bindings are traced too.  A listed name that
no longer exists is recorded as absent instead of raising, so the benchmark
keeps running after a refactor removes or renames it.

Each span records calls, inclusive seconds and self seconds (inclusive minus
the spans it encloses), so the self times of nested spans partition the time
of the outermost span exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> [(attribute path in vmpfpca.<layer>, metric name)]
LAYERS: dict[str, list[tuple[str, str]]] = {
    "data": [
        ("read_dataset_csv", "read_dataset_csv"),
        ("write_dataset_csv", "write_dataset_csv"),
        ("FunctionalDataset.validate", "validate"),
    ],
    "splines": [("build_basis", "build_basis"), ("design_matrix", "design_matrix")],
    "expfam": [
        (name, name)
        for name in (
            "gaussian_vec_to_moments",
            "gaussian_vech_to_moments",
            "invchisq_mean_reciprocal",
            "invert_spd",
            "duplication_matrix",
            "moore_penrose_duplication",
            "symmetrize",
            "vec",
            "unvec",
        )
    ],
    "graph": [
        ("stochastic_to_factor", "stochastic_to_factor"),
        ("q_natural_params", "q_natural_params"),
        ("npbf", "npbf"),
        ("fpca_factor_graph", "fpca_factor_graph"),
        ("MessageStore.get_to_node", "store_get"),
        ("MessageStore.set_to_node", "store_set"),
    ],
    "fragments": [
        (name, name)
        for name in (
            "build_likelihood_cache",
            "likelihood_expectations",
            "likelihood_message_to_nu",
            "likelihood_messages_to_zeta",
            "likelihood_message_to_sigsq_eps",
            "penalization_messages",
            "iterated_igw_messages",
            "gaussian_prior_message",
            "igw_prior_message",
        )
    ],
    "orchestrator": [
        ("initialize", "initialize"),
        ("fit", "fit"),
        ("fit_state", "fit_state"),
        ("_sweep", "sweep"),
        ("_align_component_rotation", "rotation_snap"),
        ("convergence_metric", "convergence_metric"),
    ],
    "postprocess": [
        ("extract", "extract"),
        ("evaluate_grid", "evaluate_grid"),
        ("orthogonalize", "orthogonalize"),
        ("finalize", "finalize"),
        ("sign_align", "sign_align"),
    ],
    "simulate": [("generate", "generate"), ("ise", "ise")],
    "cli": [
        ("main", "main"),
        ("run_fit", "run_fit"),
        ("run_study", "run_study"),
        ("_study_cell", "study_cell"),
    ],
}

# The span whose time the layers' self times are checked to account for.
SCOPE = "orchestrator.fit_state"

# Work counts read off a wrapped call: span key -> (count name, f(args, result)).
OBSERVERS = {
    "orchestrator.initialize": ("data.rows", lambda args, result: args[0].num_observations),
    "orchestrator.fit_state": ("orchestrator.sweeps", lambda args, result: result.iterations),
}


def resolve(module_name: str, path: str):
    """Return (owner, attribute, value) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


def replace(module_name: str, path: str, make_wrapper) -> bool:
    """Swap a function for ``make_wrapper(original)`` everywhere in ``vmpfpca``.

    Module-level functions are replaced in every loaded ``vmpfpca`` module that
    holds a reference to them; methods are replaced on their class.  Returns
    False, changing nothing, when the name no longer exists.
    """
    found = resolve(module_name, path)
    if found is None:
        return False
    owner, attr, original = found
    wrapper = functools.wraps(original)(make_wrapper(original))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "vmpfpca" or name.startswith("vmpfpca.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
    return True


class Tracer:
    """Span counters for the wrapped functions of one process."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # key -> [calls, inclusive s, self s]
        self.scope_self: dict[str, float] = {}  # layer -> self s spent inside SCOPE
        self.counts: dict[str, float] = {}  # OBSERVERS results, summed over calls
        self.absent: list[str] = []
        self._stack: list[float] = []  # child seconds of each open span
        self._scope_depth = 0

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for path, metric in targets:
                key = f"{layer}.{metric}"
                if not replace(f"vmpfpca.{layer}", path, lambda fn, k=key, lay=layer: self._span(fn, k, lay)):
                    self.absent.append(key)
                    if key in OBSERVERS:
                        self.absent.append(OBSERVERS[key][0])

    def reset(self) -> None:
        """Zero every counter (used at the start of a forked worker's task)."""
        for record in self.stats.values():
            record[:] = [0, 0.0, 0.0]
        self.scope_self.clear()
        self.counts.clear()
        self._stack.clear()
        self._scope_depth = 0

    def _span(self, fn, key: str, layer: str):
        record = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        scoped = key == SCOPE
        observer = OBSERVERS.get(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if scoped:
                self._scope_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observer is not None:
                    self._observe(observer, args, result)
                return result
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += own
                if self._scope_depth:
                    self.scope_self[layer] = self.scope_self.get(layer, 0.0) + own
                if stack:
                    stack[-1] += elapsed
                if scoped:
                    self._scope_depth -= 1

        return wrapper

    def _observe(self, observer, args, result) -> None:
        name, count = observer
        try:
            value = count(args, result)
        except (AttributeError, IndexError, TypeError):
            if name not in self.absent:
                self.absent.append(name)
            return
        self.counts[name] = self.counts.get(name, 0) + value

    def export(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "scope_self": dict(self.scope_self),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def merge(self, exported: dict) -> None:
        """Add counters recorded in another process."""
        for key, (calls, inclusive, own) in exported["stats"].items():
            record = self.stats.setdefault(key, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += inclusive
            record[2] += own
        for layer, seconds in exported["scope_self"].items():
            self.scope_self[layer] = self.scope_self.get(layer, 0.0) + seconds
        for name, value in exported["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        for name in exported["absent"]:
            if name not in self.absent:
                self.absent.append(name)
