"""Sparse dataset handling: LIBSVM/SVMlight text parsing, label binarization,
train/test splitting and deterministic streaming order.

Text given as a file path, or as one string read as its UTF-8 text, is cut
by one block reader into blocks of whole lines (about 64 KiB); line ends may
be \\n, \\r\\n or \\r. A block in the strict form ``label idx:val ...``
(ASCII, single spaces, no comments, blank lines or trailing spaces,
digit-only indices) is read with one np.fromstring and checked, vectorised,
for everything the per-line parser checks; that pass returns the block's
line count, so no block is scanned twice. When every field of such a block
is a plain decimal (``[+-]digits[.digits]``, 1 to EXACT_DIGITS digits, no
exponent), that np.fromstring reads int64s with the dots deleted, and each
number is its integer over 10^k for its k fraction digits, exactly the
double a float read gives. Any other strict block (exponents, or the
17-digit repr values save_libsvm writes) is read as floats. Any other
block, or one that fails a check, is re-read by the per-line parser, which
defines the accepted syntax and raises every ParseError with its absolute
line number. All paths append to the same flat buffers, the strict ones
bit-identically. An iterable of lines is read by the per-line parser alone.

A Dataset is stored once, in compressed sparse row (CSR) form: four flat
arrays (indptr, indices, values, labels) and dim. The indices are int32
(MAX_DIM < 2^31) and the values float64, 12 bytes per stored nonzero. Its
rows, from indexing or iteration, are Example views into those arrays, not
copies. Feature indices are 1-based in files (LIBSVM convention) and 0-based
internally. The dimension is at most MAX_DIM: a larger index is a
ParseError naming its line, raised before anything of that size is
allocated.

Every pass over the rows (Dataset.scores, stats.exact_snapshot,
trainer.stream_run, baselines.compact) reads them a run of whole rows at a
time (row_runs), taking each row's terms in order, so its result does not
depend on the run size, SCORE_CHUNK. A numpy fancy index of int32 is cast
to intp on every call, so no per-row path indexes with a row's int32
indices: the passes widen a run's indices at once.
"""

from __future__ import annotations

import math
import numbers
import warnings
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

# The most entries a pass over the rows (row_runs) reads at once, rows kept
# whole, so its temporaries stay small whatever the dataset's size: 64 KiB
# of indices widened to intp. Of 2^12 to 2^16, 2^14 scored fastest alone,
# but its temporaries made the allocator give back and refetch its heap
# between the fits of one CLI process (100 to 230 more page faults a fit on
# the stream-sparse-d1e5 job, whose fits ran about 4% slower); from 2^15 up
# the peak resident set of a CLI run rose, as the allocator keeps freed
# buffers of that size.
SCORE_CHUNK = 1 << 13

# The largest dimension accepted. Each learner holds a few dense vectors of
# the dimension, so one stray index such as 10^12 would ask for terabytes;
# 2^25 (256 MiB per vector) still holds the widest LIBSVM benchmark sets
# (kdd2010, about 3 * 10^7 features).
MAX_DIM = 2**25


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
    into the dataset's CSR arrays, so they cost no copy; their indices are
    int32, which a learner's step indexes with more slowly than the intp
    rows trainer.stream_run gives it.
    """

    indices: np.ndarray
    values: np.ndarray
    label: int

    def dot(self, w: np.ndarray) -> float:
        """Inner product with a dense vector, O(nnz); 0.0 for an empty row."""
        return float(w[self.indices].dot(self.values))

    def norm(self) -> float:
        # the value np.linalg.norm returns (sqrt of the dot), at a third of its cost
        return math.sqrt(self.values.dot(self.values))

    def add_into(self, out: np.ndarray, scale: float = 1.0) -> None:
        """out[indices] += scale * values (indices are unique by invariant);
        a scale of 1 adds the values themselves, with no product built."""
        out[self.indices] += self.values if scale == 1.0 else scale * self.values


class Dataset:
    """Labeled sparse rows in compressed sparse row (CSR) form, built once.

    Row i has the features indices[indptr[i]:indptr[i+1]] (0-based) with
    values values[indptr[i]:indptr[i+1]] and the label labels[i] in {+1, -1}.
    dim is at least 1 + the largest feature index and at most MAX_DIM, and
    arrays not of this form are refused with ValueError. indices are stored
    as int32, checked before they are narrowed, indptr and labels as int64
    and values as float64. The class counts
    n_pos and n_neg are computed in the constructor; nothing is filled in
    later, and the arrays must not be modified after construction.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
                 labels: np.ndarray, dim: int | None = None):
        self.indptr = _integers("indptr", indptr).astype(np.int64, copy=False)
        indices = _integers("indices", indices)
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = _integers("labels", labels).astype(np.int64, copy=False)
        if len(self.indptr) != len(self.labels) + 1:
            raise ValueError(f"{len(self.labels)} labels for {len(self.indptr) - 1} rows")
        if len(self.values) != len(indices):
            raise ValueError(f"{len(self.values)} values for {len(indices)} indices")
        if self.indptr[0] != 0 or self.indptr[-1] != len(indices) \
                or (self.indptr[1:] < self.indptr[:-1]).any():
            raise ValueError(f"indptr must rise from 0 to {len(indices)}")
        max_idx = int(indices.max()) if indices.size else -1
        if indices.size and indices.min() < 0:
            raise ValueError(f"negative feature index {indices.min()}")
        if dim is None:
            dim = max_idx + 1
        elif not isinstance(dim, numbers.Integral):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        elif dim < max_idx + 1:
            raise ValueError(f"dim {dim} smaller than 1 + max feature index {max_idx}")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the largest supported, {MAX_DIM}")
        # every index is now in [0, MAX_DIM), so the narrowing is exact
        self.indices = indices.astype(np.int32, copy=False)
        self.dim = dim
        self.n_pos = int(np.count_nonzero(self.labels == 1))
        self.n_neg = int(np.count_nonzero(self.labels == -1))
        if self.n_pos + self.n_neg != len(self.labels):
            bad = np.setdiff1d(self.labels, [1, -1])[0]
            raise ValueError(f"labels must be +1 or -1, got {bad}")

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
        """All inner products w.x_i, one np.bincount per run of row_runs;
        each row's products are summed in its own order, so the result does
        not depend on the run size."""
        out = np.empty(len(self))
        for start, stop, bounds, at in row_runs(self.indptr):
            # each entry's row; the subtraction, not np.diff, whose
            # Python-level checks cost a sixth of the pass on a 200-row dataset
            rows = np.repeat(np.arange(stop - start), bounds[1:] - bounds[:-1])
            products = self.values[at] * w.take(self.indices[at])
            out[start:stop] = np.bincount(rows, weights=products, minlength=stop - start)
        return out

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset over the given rows, in that order, keeping this
        dataset's dim."""
        indptr, at = gather_rows(self.indptr, rows)
        return Dataset(indptr, self.indices[at], self.values[at],
                       self.labels[rows], self.dim)

    def on_columns(self, cols: np.ndarray) -> "Dataset":
        """New Dataset of the same rows over the columns `cols` (distinct
        and increasing), renumbered 0..len(cols)-1, so its dim is
        len(cols): an entry in column cols[j] moves to column j and an entry
        in any other column is dropped; each row keeps the order of the
        rest. When nothing is dropped, indptr, values and labels are this
        dataset's own arrays and only the indices are new. O(dim + nnz),
        through a map of dim int32s (MAX_DIM < 2^31)."""
        new = np.full(self.dim, -1, dtype=np.int32)  # each column's new index, or -1
        inside = cols[:np.searchsorted(cols, self.dim)]
        new[inside] = np.arange(inside.size, dtype=np.int32)
        at = new[self.indices]
        kept = at >= 0
        if kept.all():
            return Dataset(self.indptr, at, self.values, self.labels, cols.size)
        ends = np.concatenate(([0], np.cumsum(kept)))  # kept entries before each position
        return Dataset(ends[self.indptr], at[kept], self.values[kept], self.labels,
                       cols.size)


def _integers(name: str, a) -> np.ndarray:
    """`a` as an array, refused with ValueError naming it unless every value
    is an integer; an integer array pays only its dtype test."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        whole = np.isfinite(a) & (a == np.trunc(a))
        if not whole.all():
            raise ValueError(f"{name} must hold integers, got {a[~whole][0].item()!r}")
    return a


def gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR gather of the rows `rows`, in that order, of the rows whose
    bounds are indptr: the listed rows' bounds, counted from 0, and the
    positions of their entries, row by row."""
    starts = indptr[:-1][rows]
    lengths = indptr[1:][rows] - starts
    bounds = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    at = np.repeat(starts - bounds[:-1], lengths)
    at += np.arange(bounds[-1])
    return bounds, at


def row_runs(indptr: np.ndarray, rows: np.ndarray | None = None) -> Iterator[tuple]:
    """Cut the list `rows` (every row, in order, when None) of the rows whose
    bounds are indptr into runs of whole rows, each of at most SCORE_CHUNK
    entries (read at call time) or of one longer row. Yields, per run,
    (start, stop, bounds, at): the run is rows[start:stop], bounds are its
    rows' bounds counted from its first entry, and at the positions of its
    entries, row by row, a slice when rows is None."""
    # the listed rows' bounds, counted from 0
    ends = indptr if rows is None else \
        np.concatenate(([0], np.cumsum(indptr[1:][rows] - indptr[:-1][rows])))
    start, n = 0, ends.size - 1
    while start < n:
        lo = ends.item(start)
        # the last row bound within SCORE_CHUNK entries of this start
        stop = max(start + 1, int(ends.searchsorted(lo + SCORE_CHUNK, "right")) - 1)
        if rows is None:
            yield start, stop, ends[start:stop + 1] - lo, slice(lo, ends.item(stop))
        else:
            yield start, stop, *gather_rows(indptr, rows[start:stop])
        start = stop


# 64 KiB keeps the per-block temporaries small beside the parsed arrays;
# larger blocks raised peak memory and parsed no faster
BLOCK_SIZE = 1 << 16  # bytes read per block (characters for str input)

_STRICT_MARKS = b"+-.eE: \n"  # the only non-digit bytes of a strict block
_SPACE, _NEWLINE, _COLON, _PLUS, _MINUS, _DOT = 32, 10, 58, 43, 45, 46

# A decimal of at most 15 digits and no exponent is an integer M < 2^53 over
# 10^k with k <= 15: both are exact doubles, so M / 10^k is the correctly
# rounded value of the decimal, the double np.fromstring reads (Clinger,
# "How to Read Floating Point Numbers Accurately", PLDI 1990).
EXACT_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(EXACT_DIGITS + 1)])
_AS_INTEGERS = bytes.maketrans(b":", b" ")  # with the dots deleted


class _Rows:
    """Growing CSR buffers, no per-row or per-value objects: 4 bytes per
    index (int32, as Dataset keeps them) and 8 per value, row bound and
    label."""

    def __init__(self):
        self.indptr, self.indices = array("q", [0]), array("i")
        self.values, self.labels = array("d"), array("q")

    def dataset(self) -> Dataset:
        if not self.labels:
            raise ParseError("no examples found in input")
        return Dataset(np.frombuffer(self.indptr, dtype=np.int64),
                       np.frombuffer(self.indices, dtype=np.int32),
                       np.frombuffer(self.values, dtype=np.float64),
                       np.frombuffer(self.labels, dtype=np.int64))


def parse_libsvm(lines: Iterable[str] | str, rule: BinarizeRule | None = None) -> Dataset:
    """Parse LIBSVM/SVMlight text into a Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices. Blank lines and ``#`` comments are tolerated. Labels
    are normalized to {+1, -1} through `rule` (identity by default). `lines`
    is one string, read as its UTF-8 text exactly as load_libsvm reads a
    file, or an iterable of lines, such as a text file, parsed line by line.

    Raises ParseError with the offending line number on malformed input or
    when no examples are found.
    """
    if isinstance(lines, str):  # encoded a block at a time, never as a whole
        return _parse_blocks(_file_blocks(
            lines[start:start + BLOCK_SIZE].encode("utf-8", "surrogatepass")
            for start in range(0, len(lines), BLOCK_SIZE)), rule)
    rows = _Rows()  # other iterables are read line by line
    _parse_lines(lines, 1, rule or BinarizeRule.identity(), rows)
    return rows.dataset()


def load_libsvm(path: str, rule: BinarizeRule | None = None) -> Dataset:
    """parse_libsvm on a UTF-8 file, read in binary blocks; line ends may be
    \\n, \\r\\n or \\r, as in Python's text mode."""
    with open(path, "rb") as fh:
        return _parse_blocks(_file_blocks(iter(lambda: fh.read(BLOCK_SIZE), b"")), rule)


def _file_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of `chunks`, cut after the last line end of each chunk."""
    pending = []
    for chunk in chunks:
        # after the last \n, else after the last \r (\r line ends) unless it
        # ends the chunk, where it may be the first half of a \r\n
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
        if cut:
            yield b"".join(pending + [memoryview(chunk)[:cut]])  # no copy of the cut
            pending = [chunk[cut:]]
        else:  # no line ends in this chunk
            pending.append(chunk)
    tail = b"".join(pending)
    if tail:
        yield tail


def _decode(raw: bytes, first_line: int) -> str:
    """UTF-8 text of a block; a byte that is not UTF-8 (a string's lone
    surrogate included) is a ParseError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = first_line + raw.count(b"\n", 0, exc.start)
        raise ParseError(f"not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                         f"({exc.reason})", line_no) from None


def _parse_blocks(blocks: Iterable[bytes], rule: BinarizeRule | None) -> Dataset:
    if rule is None:
        rule = BinarizeRule.identity()
    rows, line_no = _Rows(), 1
    for raw in blocks:
        if b"\r" in raw:  # line ends as Python's text mode reads them
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if (read := _parse_strict(raw, rule, rows)) is None:
            lines = _decode(raw, line_no).split("\n")
            _parse_lines(lines, line_no, rule, rows)
            read = len(lines) - 1
        line_no += read
    return rows.dataset()


def _parse_lines(lines: Iterable[str], first_line: int, rule: BinarizeRule,
                 rows: _Rows) -> None:
    """The per-line parser: append each data line of `lines` to `rows`, or
    raise ParseError with its line number (counted from `first_line`)."""
    indptr, indices, values, labels = rows.indptr, rows.indices, rows.values, rows.labels
    for line_no, line in enumerate(lines, start=first_line):
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
            if idx > MAX_DIM:
                raise ParseError(f"feature index {idx} exceeds the largest supported "
                                 f"dimension, {MAX_DIM}", line_no)
            indices.append(idx - 1)
            values.append(val)
            prev = idx
        indptr.append(len(indices))


def _parse_strict(raw: bytes, rule: BinarizeRule, rows: _Rows) -> int | None:
    """Append a block of whole lines in the strict form ``label idx:val ...\\n``
    (ASCII, no comments or blank lines, single spaces, one colon per feature,
    digit-only indices) with one np.fromstring and return its line count; or
    append nothing and return None when the block is not in that form or
    holds a line the per-line parser would reject, to be re-read per line.

    Every check is vectorised over the block's features or its non-digit
    bytes, so the block costs O(nnz) numpy work, not per-character Python.
    """
    if not raw.endswith(b"\n"):
        raw += b"\n"
    byte = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero((byte - 48) > 9)  # the non-digit bytes: below "0" wraps past 9
    m = byte[at]
    # a block that starts blank is refused: np.fromstring reads one of only
    # whitespace as [-1.]
    if raw.startswith((b" ", b"\n")) or m.tobytes().translate(None, _STRICT_MARKS):
        return None
    is_colon, is_space, is_newline = m == _COLON, m == _SPACE, m == _NEWLINE
    # a colon exactly where the previous mark is a space: each feature token
    # holds one colon, the label none, index fields only digits, and no space
    # ends a line, so no field holds more than one number
    if is_colon[0] or not np.array_equal(is_colon[1:], is_space[:-1]):
        return None
    nums = _exact_decimals(raw, byte, at, m, is_colon | is_space | is_newline)
    if nums is None:  # exponents, long or irregular fields: read as floats
        try:
            with warnings.catch_warnings():  # older numpy only warns on unread text
                warnings.simplefilter("error", DeprecationWarning)
                nums = np.fromstring(raw.replace(b":", b" "), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    ends = np.searchsorted(np.flatnonzero(is_colon), np.flatnonzero(is_newline))
    n, nnz = ends.size, int(ends[-1])
    # every label and both sides of every colon must be a field read as one
    # number: an empty one (blank line, doubled or leading space, empty side
    # of a colon) makes the count come short
    if nums.size != n + 2 * nnz:
        return None
    at_label = np.arange(n)
    at_label[1:] += 2 * ends[:-1]
    labels = _binarize_block(nums[at_label], rule)
    features = np.delete(nums, at_label)
    idx, vals = features[0::2], features[1::2]
    rising = idx[1:] > idx[:-1]
    row_starts = ends[:-1][(ends[:-1] > 0) & (ends[:-1] < nnz)]
    rising[row_starts - 1] = True  # the first index of a row may be any
    if (labels is None or not rising.all() or not np.isfinite(vals).all()
            or nnz and not 1 <= idx.min() <= idx.max() <= MAX_DIM):  # below 2^53: exact
        return None
    # array.frombytes takes bytes-like buffers: contiguous arrays' uint8 views
    rows.indptr.frombytes((len(rows.indices) + ends).view(np.uint8))
    rows.indices.frombytes((idx - 1).astype(np.int32).view(np.uint8))
    rows.values.frombytes(vals.tobytes())  # a strided view: one copy either way
    rows.labels.frombytes(labels.view(np.uint8))
    return n


def _exact_decimals(raw: bytes, byte: np.ndarray, at: np.ndarray, m: np.ndarray,
                    is_sep: np.ndarray) -> np.ndarray | None:
    """The fields of a strict block, as the floats np.fromstring reads, from
    one int64 np.fromstring; None unless every field is ``[+-]digits[.digits]``
    (either digit run may be empty) with 1 to EXACT_DIGITS digits and no
    exponent. `byte` is the block, `at` the positions of its non-digit bytes,
    `m` those bytes and `is_sep` which of them end a field (space, colon or
    line end)."""
    if b"e" in raw or b"E" in raw:
        return None
    seps = np.flatnonzero(is_sep)
    digits = at[seps] - seps  # the block's digits up to each field's end ...
    digits[1:] -= digits[:-1].copy()  # ... and in each field
    if digits.min() < 1 or digits.max() > EXACT_DIGITS:
        return None
    # a sign only where a field starts: after a colon or a line end (a space
    # is always followed by an index and its colon), or at the block's start,
    # where the index -1 reads the block's closing line end
    signs = at[(m == _MINUS) | (m == _PLUS)]
    before = byte[signs - 1]
    if not ((before == _COLON) | (before == _NEWLINE)).all():
        return None
    # a dot only as its field's last mark, the fraction digits after it
    dotted = m[seps - 1] == _DOT  # m[-1], read for a first field of digits only, is "\n"
    if np.count_nonzero(dotted) != np.count_nonzero(m == _DOT):
        return None
    frac = np.where(dotted, at[seps] - at[seps - 1] - 1, 0)
    ints = np.fromstring(raw.translate(_AS_INTEGERS, b"."), dtype=np.int64, sep=" ")
    nums = ints / _POW10[frac]
    if not ints.all():  # -0 and -0.0 read as -0.0
        minus = np.searchsorted(seps, np.flatnonzero(m == _MINUS))
        nums[minus[ints[minus] == 0]] = -0.0
    return nums


def _binarize_block(raw_labels: np.ndarray, rule: BinarizeRule) -> np.ndarray | None:
    """`binarize` over an array of raw labels, as int64; None if any label is
    outside the rule's domain."""
    if rule.kind == "threshold":
        positive = raw_labels <= rule.k
    else:
        positive = raw_labels == 1
        negative = raw_labels == (-1 if rule.kind == "identity" else 0)
        if not (positive | negative).all():
            return None
    return np.where(positive, 1, -1).astype(np.int64)


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
    """Deterministic shuffled train/test partition: the rows split_rows
    gives each part, in that order, with the parent's dim."""
    fit_rows, test_rows = split_rows(len(dataset), test_fraction, seed)
    return dataset.subset(fit_rows), dataset.subset(test_rows)


def split_rows(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The row ids of split's two parts: a shuffled permutation of range(n)
    cut before its last floor(test_fraction * n) entries, the test part."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(np.floor(test_fraction * n))
    return perm[: n - n_test], perm[n - n_test:]


def stream_order(n: int, epoch: int, seed: int) -> np.ndarray:
    """Permutation of the n example indices for one pass; distinct per
    epoch, deterministic given (seed, epoch)."""
    return np.random.default_rng([seed, epoch]).permutation(n)
