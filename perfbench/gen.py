"""Seeded synthetic LIBSVM inputs for the benchmark workloads.

Every value is a nonzero multiple of 1/256, so the text written here parses
back to exactly the same floats and the benchmark can score held-out rows
with its own copy of the data, independently of the program's parser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUANTUM = 1.0 / 256.0


@dataclass
class Rows:
    """Labelled sparse rows in CSR form; indices are 0-based and sorted."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray  # +1 / -1
    dim: int

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, start: int, stop: int) -> "Rows":
        lo, hi = self.indptr[start], self.indptr[stop]
        return Rows(self.indptr[start:stop + 1] - lo, self.indices[lo:hi],
                    self.values[lo:hi], self.labels[start:stop], self.dim)

    def scores(self, w: np.ndarray) -> np.ndarray:
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return np.bincount(rows, weights=self.values * w[self.indices],
                           minlength=len(self))

    def write(self, path: str) -> int:
        """Write LIBSVM text (1-based indices); returns the byte count."""
        idx = (self.indices + 1).tolist()
        vals = self.values.tolist()
        ptr = self.indptr.tolist()
        lines = []
        for i, y in enumerate(self.labels.tolist()):
            lo, hi = ptr[i], ptr[i + 1]
            feats = " ".join(map("{}:{!r}".format, idx[lo:hi], vals[lo:hi]))
            lines.append(("+1 " if y == 1 else "-1 ") + feats + "\n")
        text = "".join(lines)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(text)


def _quantize(x: np.ndarray) -> np.ndarray:
    """Round to the grid, keeping every entry nonzero and inside [-1, 1]."""
    q = np.clip(np.round(x / QUANTUM), -256, 256)
    q[q == 0] = 1
    return q * QUANTUM


def dense(seed: int, n: int, dim: int, pos_frac: float, spread: float,
          shift: float) -> Rows:
    """Dense rows in [-1, 1], shaped like a min-max scaled UCI table: each
    class is a Gaussian blob of standard deviation `spread`, the positive
    one moved by `shift` along a random direction."""
    rng = np.random.default_rng([seed, 8])
    labels = np.where(rng.random(n) < pos_frac, 1, -1)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    centre = rng.uniform(-0.3, 0.3, size=dim)
    x = centre + spread * rng.normal(size=(n, dim))
    x += np.outer(labels == 1, shift * direction)
    return Rows(np.arange(0, n * dim + 1, dim), np.tile(np.arange(dim), n),
                _quantize(x).ravel(), labels, dim)


def planted_sparse(seed: int, n: int, dim: int, nnz: int, n_informative: int,
                   informative_per_row: int, purity: float) -> Rows:
    """Unit-norm nonnegative sparse rows with a planted informative subset.

    Half of the informative features belong to each class. A row draws
    `informative_per_row` of them, each from its own class's half with
    probability `purity`, and the rest of its `nnz` features uniformly from
    the whole range. Row 0 always holds feature dim-1, so every split that
    keeps row 0 on the training side has the full dimension.
    """
    rng = np.random.default_rng([seed, dim, nnz])
    informative = rng.choice(dim, size=n_informative, replace=False)
    halves = {1: informative[: n_informative // 2],
              -1: informative[n_informative // 2:]}
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    indptr = [0]
    indices = []
    for i, y in enumerate(labels.tolist()):
        own = rng.random(informative_per_row) < purity
        picks = np.where(own, rng.choice(halves[y], informative_per_row),
                         rng.choice(halves[-y], informative_per_row))
        noise = rng.integers(0, dim, size=nnz - informative_per_row)
        row = np.unique(np.concatenate([picks, noise]))
        if i == 0:
            row = np.unique(np.append(row[:-1], dim - 1))
        indices.append(row)
        indptr.append(indptr[-1] + len(row))
    indptr = np.asarray(indptr)
    indices = np.concatenate(indices)
    raw = rng.uniform(0.2, 1.0, size=len(indices))
    norms = np.sqrt(np.add.reduceat(raw**2, indptr[:-1]))
    raw /= np.repeat(norms, np.diff(indptr))
    values = np.maximum(np.round(raw / QUANTUM), 1) * QUANTUM
    return Rows(indptr, indices, values, labels, dim)
