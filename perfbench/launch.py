"""Run the ``vmpfpca`` command line in this process and record what the benchmark needs.

    python3 launch.py SIDE_JSON {plain,trace} CLI_ARGS...

This does what the installed ``vmpfpca`` script does (import ``vmpfpca.cli``
and call ``main``), plus:

* at every entry to ``orchestrator.fit_state`` (after ``initialize``, before
  the first sweep) it appends a CLOCK_MONOTONIC stamp to ``SIDE_JSON.marks``,
  from which the benchmark reads the set-up time; study workers append too;
* it keeps the state and result of the last ``postprocess.finalize`` call and,
  after ``main`` returns, checks that the rotation left the fitted curves
  unchanged (pre-rotation ``extract`` + ``evaluate_grid`` against
  ``FpcaFit.fitted``), timing the check so the benchmark can subtract it;
* with ``trace`` it wraps every layer (see ``tracer.py``), ships the counters
  of forked study workers back with each study row, and writes them out.

The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    side_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    marks_path = side_path + ".marks"

    started = time.perf_counter()
    from vmpfpca import cli

    side: dict = {"import_s": time.perf_counter() - started}

    import tracer as tracing

    tracer = None
    cells: list[float] = []
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        _ship_study_traces(tracing, tracer, cells)

    def mark(fn):
        def fit_state(*args, **kwargs):
            with open(marks_path, "a", encoding="utf-8") as handle:
                handle.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r}\n")
            return fn(*args, **kwargs)

        return fit_state

    finalized: list = []

    def capture(fn):
        def finalize(state, *args, **kwargs):
            result = fn(state, *args, **kwargs)
            finalized[:] = [(state, result)]
            return result

        return finalize

    tracing.replace("vmpfpca.orchestrator", "fit_state", mark)
    tracing.replace("vmpfpca.postprocess", "finalize", capture)

    code = cli.main(argv)

    check_started = time.perf_counter()
    if tracer is not None:
        side["trace"] = tracer.export()
        side["cells"] = cells
    side["rotation"] = _rotation_check(finalized)
    side["check_s"] = time.perf_counter() - check_started
    with open(side_path, "w", encoding="utf-8") as handle:
        json.dump(side, handle)
    return code


def _ship_study_traces(tracing, tracer, cells: list[float]) -> None:
    """Return the counters of each forked study worker with the row it computes."""
    parent = os.getpid()

    def ship(fn):
        def study_cell(task):
            if os.getpid() == parent:  # run in this process (one worker)
                started = time.perf_counter()
                row = fn(task)
                cells.append(time.perf_counter() - started)
                return row
            tracer.reset()
            started = time.perf_counter()
            row = fn(task)
            return {**row, "_trace": {**tracer.export(), "cell_s": time.perf_counter() - started}}

        return study_cell

    def collect(fn):
        def run_study(*args, **kwargs):
            rows = fn(*args, **kwargs)
            for row in rows:
                shipped = row.pop("_trace", None)
                if shipped is not None:
                    tracer.merge(shipped)
                    cells.append(shipped["cell_s"])
            return rows

        return run_study

    tracing.replace("vmpfpca.cli", "_study_cell", ship)
    tracing.replace("vmpfpca.cli", "run_study", collect)


def _rotation_check(finalized: list) -> dict:
    if not finalized:
        return {"skipped": "postprocess.finalize did not run in this process"}
    import numpy as np

    state, result = finalized[0]
    try:
        from vmpfpca.postprocess import evaluate_grid, extract

        raw = extract(state)
        _, mean_curve, funcs, scores = evaluate_grid(raw, state.basis, result.grid.size)
        before = mean_curve[:, None] + funcs @ scores.T
        deviation = np.abs(before - result.fitted).max() / max(1.0, np.abs(before).max())
    except (ImportError, AttributeError, TypeError) as err:
        return {"skipped": f"{type(err).__name__}: {err}"}
    return {"max_rel_dev": float(deviation)}


if __name__ == "__main__":
    sys.exit(main())
