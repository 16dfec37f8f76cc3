"""Container for irregularly observed curves and its CSV serialization.

The on-disk format is a UTF-8 CSV with header ``curve_id,t,y``, optionally
preceded by the byte-order mark that spreadsheet exports write.  Rows need
not be grouped or sorted; ingestion groups them by curve identifier in order
of first appearance.  Observation times within a curve are kept sorted, which
is safe because the model is order-invariant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = ("curve_id", "t", "y")


@dataclass
class FunctionalDataset:
    """A sample of curves, each with its own observation times in [0, 1].

    Construction checks each curve on its own: equal time and value lengths,
    finite entries.  :meth:`validate` checks what a fit needs on top.
    """

    curve_ids: list[str]
    times: list[np.ndarray]
    values: list[np.ndarray]

    def __post_init__(self):
        self.curve_ids = [str(c) for c in self.curve_ids]
        if not (len(self.curve_ids) == len(self.times) == len(self.values)):
            raise ValueError("curve_ids, times and values have mismatched lengths")
        paired = []
        for cid, t, y in zip(self.curve_ids, self.times, self.values):
            t = np.asarray(t, dtype=float).reshape(-1)
            y = np.asarray(y, dtype=float).reshape(-1)
            if t.size != y.size:
                raise ValueError(f"curve {cid!r} has mismatched time/value lengths")
            if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
                raise ValueError(f"curve {cid!r} contains non-finite entries")
            order = np.argsort(t, kind="stable")
            paired.append((t[order], y[order]))
        self.times = [t for t, _ in paired]
        self.values = [y for _, y in paired]

    @property
    def num_curves(self) -> int:
        return len(self.curve_ids)

    @property
    def num_observations(self) -> int:
        return int(sum(t.size for t in self.times))

    def validate(self) -> None:
        if self.num_curves == 0:
            raise ValueError("dataset has no curves")
        if self.num_curves < 2:
            raise ValueError("dataset has one curve; at least two are needed to fit")
        if len(set(self.curve_ids)) != len(self.curve_ids):
            raise ValueError("duplicate curve identifiers")
        for cid, t in zip(self.curve_ids, self.times):
            if t.size == 0:
                raise ValueError(f"curve {cid!r} has no observations")
            if t.min() < 0.0 or t.max() > 1.0:
                raise ValueError(
                    f"curve {cid!r} has time values outside [0, 1]; "
                    "rescale before fitting"
                )
        if np.ptp(np.concatenate(self.values)) == 0.0:
            raise ValueError("the response has zero variance: every y value is equal")

    def rescale_times(self) -> tuple["FunctionalDataset", tuple[float, float]]:
        """Affinely map all observation times onto [0, 1].

        Returns the rescaled dataset and the (offset, scale) of the original
        times, so that original = offset + scale * rescaled.
        """
        lo = min(float(t.min()) for t in self.times)
        hi = max(float(t.max()) for t in self.times)
        if not hi > lo:
            raise ValueError("cannot rescale: all observation times are equal")
        scale = hi - lo
        rescaled = FunctionalDataset(
            curve_ids=list(self.curve_ids),
            times=[(t - lo) / scale for t in self.times],
            values=[y.copy() for y in self.values],
        )
        return rescaled, (lo, scale)


def write_dataset_csv(dataset: FunctionalDataset, path: str | Path) -> None:
    """Write a dataset in the ``curve_id,t,y`` format."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for cid, t, y in zip(dataset.curve_ids, dataset.times, dataset.values):
            for tj, yj in zip(t, y):
                writer.writerow([cid, repr(float(tj)), repr(float(yj))])


def read_dataset_csv(path: str | Path) -> FunctionalDataset:
    """Read a ``curve_id,t,y`` file, grouping rows by curve identifier."""
    path = Path(path)
    grouped: dict[str, tuple[list[float], list[float]]] = {}
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{row_num}: expected 3 columns, got {len(row)}")
            cid = row[0]
            try:
                t, y = float(row[1]), float(row[2])
            except ValueError as err:
                raise ValueError(f"{path}:{row_num}: {err}") from None
            grouped.setdefault(cid, ([], []))
            grouped[cid][0].append(t)
            grouped[cid][1].append(y)
    if not grouped:
        raise ValueError(f"{path}: no data rows")
    return FunctionalDataset(
        curve_ids=list(grouped),
        times=[np.asarray(ts) for ts, _ in grouped.values()],
        values=[np.asarray(ys) for _, ys in grouped.values()],
    )
