"""Sparse dataset handling: LIBSVM/SVMlight text parsing, label binarization,
train/test splitting and deterministic streaming order.

A Dataset is stored once, in compressed sparse row (CSR) form: four flat
arrays (indptr, indices, values, labels) and dim. Its rows, from indexing or
iteration, are Example views into those arrays, not copies. Feature indices
are 1-based in files (LIBSVM convention) and 0-based internally.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class ParseError(ValueError):
    """Malformed dataset text. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


BINARIZE_RULES = ("identity", "zero_one", "threshold")


@dataclass(frozen=True)
class BinarizeRule:
    """Maps raw integer labels to {+1, -1}.

    kinds:
      identity      labels are already in {+1, -1}
      zero_one      0 -> -1, 1 -> +1
      threshold(k)  label <= k -> +1, else -1
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in BINARIZE_RULES:
            raise ValueError(f"unknown binarize rule {self.kind!r}")

    @classmethod
    def identity(cls) -> "BinarizeRule":
        return cls("identity")

    @classmethod
    def zero_one(cls) -> "BinarizeRule":
        return cls("zero_one")

    @classmethod
    def threshold(cls, k: int) -> "BinarizeRule":
        return cls("threshold", k=k)


def binarize(raw_label: float, rule: BinarizeRule) -> int:
    """Apply a binarization rule to a raw label; returns +1 or -1."""
    if rule.kind == "identity":
        if raw_label == 1:
            return 1
        if raw_label == -1:
            return -1
        raise ValueError(f"identity rule expects labels in {{+1,-1}}, got {raw_label}")
    if rule.kind == "zero_one":
        if raw_label == 1:
            return 1
        if raw_label == 0:
            return -1
        raise ValueError(f"zero_one rule expects labels in {{0,1}}, got {raw_label}")
    # threshold(k): first half of the label alphabet becomes positive
    return 1 if raw_label <= rule.k else -1


class Example(NamedTuple):
    """One labeled observation with sparse features.

    indices are 0-based, strictly increasing; values are finite floats;
    label is +1 or -1. Rows of a Dataset are Examples whose arrays are views
    into the dataset's CSR arrays, so they cost no copy.
    """

    indices: np.ndarray
    values: np.ndarray
    label: int

    def dot(self, w: np.ndarray) -> float:
        """Inner product with a dense vector, O(nnz); 0.0 for an empty row."""
        return float(w[self.indices] @ self.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def add_into(self, out: np.ndarray, scale: float = 1.0) -> None:
        """out[indices] += scale * values (indices are unique by invariant)."""
        out[self.indices] += scale * self.values

    def to_dense(self, dim: int) -> np.ndarray:
        x = np.zeros(dim)
        x[self.indices] = self.values
        return x


class Dataset:
    """Labeled sparse rows in compressed sparse row (CSR) form, built once.

    Row i has the features indices[indptr[i]:indptr[i+1]] (0-based) with
    values values[indptr[i]:indptr[i+1]] and the label labels[i] in {+1, -1}.
    dim is at least 1 + the largest feature index. The class counts and the
    positive/negative row indices are computed in the constructor; nothing is
    filled in later, and the arrays must not be modified after construction.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
                 labels: np.ndarray, dim: int | None = None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        max_idx = int(self.indices.max()) if self.indices.size else -1
        if dim is None:
            dim = max_idx + 1
        elif dim < max_idx + 1:
            raise ValueError(f"dim {dim} smaller than 1 + max feature index {max_idx}")
        self.dim = dim
        self.pos_indices = np.flatnonzero(self.labels == 1)
        self.neg_indices = np.flatnonzero(self.labels == -1)
        self.n_pos = len(self.pos_indices)
        self.n_neg = len(self.labels) - self.n_pos

    @classmethod
    def from_examples(cls, examples: list[Example], dim: int | None = None) -> "Dataset":
        """Copy a list of Examples into one CSR dataset."""
        lengths = [ex.indices.size for ex in examples]
        return cls(np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
                   np.concatenate([np.zeros(0, np.int64)] + [ex.indices for ex in examples]),
                   np.concatenate([np.zeros(0)] + [ex.values for ex in examples]),
                   [ex.label for ex in examples], dim)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Example]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> Example:
        """Row i as an Example of views; negative i counts from the end."""
        i = range(len(self.labels))[i]  # list semantics: wraps negatives, raises IndexError
        # item() returns Python ints, which index and slice faster than numpy scalars
        start, stop = self.indptr.item(i), self.indptr.item(i + 1)
        return Example(self.indices[start:stop], self.values[start:stop],
                       self.labels.item(i))

    def scores(self, w: np.ndarray) -> np.ndarray:
        """All inner products w.x_i in one vectorized pass."""
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return np.bincount(rows, weights=self.values * w[self.indices],
                           minlength=len(self))

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset over the given rows, in that order, keeping this
        dataset's dim."""
        starts = self.indptr[:-1][rows]
        lengths = self.indptr[1:][rows] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        gather = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Dataset(indptr, self.indices[gather], self.values[gather],
                       self.labels[rows], self.dim)


def parse_libsvm(lines: Iterable[str] | str, rule: BinarizeRule | None = None) -> Dataset:
    """Parse LIBSVM/SVMlight text into a Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices. Blank lines and ``#`` comments are tolerated. Labels
    are normalized to {+1, -1} through `rule` (identity by default).

    Raises ParseError with the offending line number on malformed input or
    when no examples are found.
    """
    if rule is None:
        rule = BinarizeRule.identity()
    if isinstance(lines, str):
        lines = io.StringIO(lines)
    # flat typed buffers: 8 bytes per entry, no per-row or per-value objects
    indptr, indices, values, labels = array("q", [0]), array("q"), array("d"), array("q")
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", line_no) from None
        try:
            labels.append(binarize(raw_label, rule))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"expected idx:val, got {tok!r}", line_no)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"non-numeric feature token {tok!r}", line_no) from None
            if idx < 1:
                raise ParseError(f"feature index must be >= 1, got {idx}", line_no)
            if idx <= prev:
                raise ParseError(f"feature indices not strictly increasing at {idx}", line_no)
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {val_s!r}", line_no)
            if idx >= 2**63:  # the dimension, idx at least, must fit in int64
                raise ParseError(f"feature index {idx} is too large", line_no)
            indices.append(idx - 1)
            values.append(val)
            prev = idx
        indptr.append(len(indices))
    if not labels:
        raise ParseError("no examples found in input")
    return Dataset(np.frombuffer(indptr, dtype=np.int64),
                   np.frombuffer(indices, dtype=np.int64),
                   np.frombuffer(values, dtype=np.float64),
                   np.frombuffer(labels, dtype=np.int64))


def load_libsvm(path: str, rule: BinarizeRule | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, rule)


def write_libsvm(dataset: Dataset, stream) -> None:
    """Write a Dataset back to LIBSVM text (1-based indices, full precision)."""
    for ex in dataset:
        feats = " ".join(f"{int(i) + 1}:{float(v)!r}"
                         for i, v in zip(ex.indices, ex.values))
        stream.write(f"{'+1' if ex.label == 1 else '-1'} {feats}".rstrip() + "\n")


def save_libsvm(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_libsvm(dataset, fh)


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/test partition.

    Test size is floor(test_fraction * n); both parts keep the order of the
    shuffled permutation and the parent's dim.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(np.floor(test_fraction * n))
    return dataset.subset(perm[: n - n_test]), dataset.subset(perm[n - n_test:])


def stream_order(dataset: Dataset | int, epoch: int, seed: int) -> np.ndarray:
    """Permutation of example indices for one pass; distinct per epoch,
    deterministic given (seed, epoch)."""
    n = dataset if isinstance(dataset, int) else len(dataset)
    return np.random.default_rng([seed, epoch]).permutation(n)
