"""Running per-class statistics for the streaming surrogate: class prior and
conditional feature means over the prefix of absorbed examples.

Sums, not means, are stored; division happens at snapshot time so every
snapshot is exactly the statistic of the absorbed multiset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Example, row_runs


class NotReadyError(ValueError):
    """Raised when a computation needs both classes observed and they are not."""


@dataclass(frozen=True)
class StatsSnapshot:
    """Value-type view of class statistics: prior p and class means u, v.

    `ready` is True once at least one example of each class has been seen;
    until then u and/or v are zero placeholders and consumers must not use
    them.
    """

    p: float
    u: np.ndarray
    v: np.ndarray
    ready: bool


class ClassStats:
    """Single-writer accumulator of per-class counts and feature sums.

    The sums are the rows of one (2, dim) array, `sums`, with sum_pos and
    sum_neg as views of its rows, so one matrix-vector product reads both.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.t = 0
        self.n_pos = 0
        self.sums = np.zeros((2, dim))
        self.sum_pos, self.sum_neg = self.sums

    @property
    def n_neg(self) -> int:
        return self.t - self.n_pos

    def update(self, z: Example) -> None:
        """Absorb one example: O(nnz) accumulation into the matching class sum."""
        if z.label == 1:
            self.n_pos += 1
            z.add_into(self.sum_pos)
        else:
            z.add_into(self.sum_neg)
        self.t += 1

    @property
    def ready(self) -> bool:
        return self.n_pos >= 1 and self.n_neg >= 1

    def snapshot(self) -> StatsSnapshot:
        """Current (p, u, v); p is 0 for an empty prefix, u/v are zeros until
        their class has been observed."""
        p = self.n_pos / self.t if self.t else 0.0
        u = self.sum_pos / self.n_pos if self.n_pos else np.zeros(self.dim)
        v = self.sum_neg / self.n_neg if self.n_neg else np.zeros(self.dim)
        return StatsSnapshot(p, u, v, self.ready)


def exact_snapshot(dataset: Dataset, rows: np.ndarray | None = None) -> StatsSnapshot:
    """Full-data moments (p, u, v) over the rows `rows` of a dataset, in
    that order (every row when None), which must hold both classes. The
    rows are read in place, a run of row_runs at a time, so the result is
    that of dataset.subset(rows) without the copy."""
    labels = dataset.labels if rows is None else dataset.labels[rows]
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos < 1 or n_neg < 1:
        raise NotReadyError(
            f"need at least one example of each class, got {n_pos} positive "
            f"and {n_neg} negative"
        )
    # the positive sums then the negative ones, in one flat array; entries
    # are added in row order, the same additions ClassStats.update makes
    d = dataset.dim
    sums = np.zeros(2 * d)
    for start, stop, bounds, at in row_runs(dataset.indptr, rows):
        offsets = np.repeat(np.where(labels[start:stop] == 1, 0, d), bounds[1:] - bounds[:-1])
        offsets += dataset.indices[at]
        np.add.at(sums, offsets, dataset.values[at])
    return StatsSnapshot(n_pos / labels.size, sums[:d] / n_pos, sums[d:] / n_neg, True)
