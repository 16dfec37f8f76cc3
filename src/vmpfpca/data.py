"""Columnar container for irregularly observed curves and its CSV serialization.

The on-disk format is a UTF-8 CSV with header ``curve_id,t,y``, one row per
observation, optionally preceded by the byte-order mark that spreadsheet
exports write.  Rows need not be grouped or sorted.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CSV_HEADER = ("curve_id", "t", "y")


class FunctionalDataset:
    """Curves built from rows (each row's curve label, t and y), in columnar form.

    Holds ``curve_ids`` in order of first appearance; flat ``times`` and
    ``values`` sorted by curve, time and value, so row order does not matter;
    and ``offsets``: curve i is rows ``offsets[i]:offsets[i+1]``.  A curve
    exists only if a row names it, so none is empty and none repeats.  Rows
    must be finite; :meth:`validate` checks what a fit needs on top."""

    def __init__(self, curves, times, values):
        labels = list(map(str, curves))
        times = np.asarray(times, dtype=float).reshape(-1)
        values = np.asarray(values, dtype=float).reshape(-1)
        if not len(labels) == times.size == values.size:
            raise ValueError(f"rows: {len(labels)} labels, {times.size} times, {values.size} values")
        bad = ~(np.isfinite(times) & np.isfinite(values))
        if bad.any():
            raise ValueError(f"curve {labels[int(np.argmax(bad))]!r} contains non-finite entries")
        first_seen = dict.fromkeys(labels)
        number = dict(zip(first_seen, range(len(first_seen))))
        curve = np.fromiter(map(number.__getitem__, labels), dtype=np.intp, count=len(labels))
        order = np.lexsort((values, times, curve))
        self.curve_ids = list(first_seen)
        self.times, self.values = times[order], values[order]
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(curve, minlength=len(number)))))

    @property
    def num_curves(self) -> int:
        return len(self.curve_ids)

    @property
    def num_observations(self) -> int:
        return self.times.size

    def _row_curves(self) -> np.ndarray:
        return np.repeat(np.asarray(self.curve_ids, dtype=object), np.diff(self.offsets))

    def validate(self) -> None:
        if self.num_curves < 2:
            raise ValueError(f"dataset has {self.num_curves} curve(s); at least two are needed")
        outside = (self.times < 0.0) | (self.times > 1.0)
        if outside.any():
            curve = self._row_curves()[np.argmax(outside)]
            raise ValueError(f"curve {curve!r} has times outside [0, 1]; rescale before fitting")
        with np.errstate(over="ignore"):
            sum_sq = self.values @ self.values
        if not np.isfinite(sum_sq):
            raise ValueError("the response overflows: the sum of squared y values is not finite")
        if np.ptp(self.values) == 0.0:
            raise ValueError("the response has zero variance: every y value is equal")

    def rescale_times(self) -> tuple["FunctionalDataset", tuple[float, float]]:
        """Affinely map all observation times onto [0, 1].

        Returns the rescaled dataset and the (offset, scale) of the original
        times, so that original = offset + scale * rescaled.
        """
        if self.num_observations == 0:
            raise ValueError("cannot rescale: the dataset has no rows")
        lo, hi = float(self.times.min()), float(self.times.max())
        if not hi > lo:
            raise ValueError("cannot rescale: all observation times are equal")
        rescaled = FunctionalDataset(self._row_curves(), (self.times - lo) / (hi - lo), self.values)
        return rescaled, (lo, hi - lo)


def write_dataset_csv(dataset: FunctionalDataset, path: str | Path) -> None:
    """Write a dataset in the ``curve_id,t,y`` format."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        times, values = map(repr, dataset.times.tolist()), map(repr, dataset.values.tolist())
        writer.writerows(zip(dataset._row_curves(), times, values))


def read_dataset_csv(path: str | Path) -> FunctionalDataset:
    """Read a ``curve_id,t,y`` file; rows may come in any order."""
    path = Path(path)
    curves: list[str] = []
    times: list[float] = []
    values: list[float] = []
    seen: dict[str, str] = {}  # one string object per curve label
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(
                        f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}"
                    )
                try:
                    t, y = float(row[1]), float(row[2])
                except ValueError as err:
                    raise ValueError(f"{path}:{reader.line_num}: {err}") from None
                curves.append(seen.setdefault(row[0], row[0]))
                times.append(t)
                values.append(y)
        except csv.Error as err:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if not curves:
        raise ValueError(f"{path}: no data rows")
    return FunctionalDataset(curves, times, values)
