"""Property tests of the CSR Dataset, its LIBSVM parser and its chunked
whole-dataset passes on random sparse datasets."""

import io
import os
import tempfile
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from aucstream import data
from aucstream.data import (BinarizeRule, Dataset, ParseError, load_libsvm,
                            parse_libsvm, write_libsvm)
from aucstream.stats import NotReadyError, exact_snapshot

from conftest import assert_same_csr, parse_per_line

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csr_datasets(draw, values=finite, max_rows=12, max_dim=20):
    """A Dataset built directly from CSR arrays: each row a sorted set of
    distinct 0-based indices with values drawn from `values`, labels +-1."""
    n = draw(st.integers(1, max_rows))
    rows = [sorted(draw(st.sets(st.integers(0, max_dim - 1), max_size=6)))
            for _ in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.int64)
    values = np.array(draw(st.lists(values, min_size=len(indices),
                                    max_size=len(indices))), dtype=np.float64)
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return Dataset(indptr, indices, values, labels)


@settings(deadline=None)
@given(csr_datasets())
def test_write_parse_roundtrip_is_bit_exact(ds):
    buf = io.StringIO()
    write_libsvm(ds, buf)
    assert_same_csr(parse_libsvm(buf.getvalue()), ds)


@settings(deadline=None)
@given(csr_datasets(values=st.floats(-1e3, 1e3)), st.data())
def test_subset_scores_equal_scores_of_the_rows(ds, data):
    rows = np.array(data.draw(st.lists(st.integers(0, len(ds) - 1), max_size=15)),
                    dtype=np.int64)
    w = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=ds.dim,
                                    max_size=ds.dim)), dtype=np.float64)
    sub = ds.subset(rows)
    assert sub.dim == ds.dim
    assert sub.scores(w).tobytes() == ds.scores(w)[rows].tobytes()
    np.testing.assert_array_equal(sub.labels, ds.labels[rows])


@settings(deadline=None)
@given(csr_datasets())
def test_from_examples_of_the_rows_reproduces_the_dataset(ds):
    again = Dataset.from_examples(list(ds), dim=ds.dim)
    assert_same_csr(again, ds)
    assert (again.n_pos, again.n_neg) == (ds.n_pos, ds.n_neg)


@contextmanager
def block_size(size: int, per_line_forbidden: bool = False):
    """parse_libsvm with blocks of `size`; with `per_line_forbidden`, a block
    that falls back to the per-line parser fails the test."""
    with ExitStack() as stack:
        stack.enter_context(patch.object(data, "BLOCK_SIZE", size))
        if per_line_forbidden:
            stack.enter_context(patch.object(
                data, "_parse_lines", side_effect=AssertionError("per-line fallback")))
        yield


extreme = st.one_of(finite, st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 0.1 + 0.2, 1.7976931348623157e308]))


@settings(deadline=None)
@given(csr_datasets(values=extreme), st.sampled_from([8, 64, 1 << 16]))
def test_written_text_takes_the_strict_path_bit_exactly(ds, size):
    buf = io.StringIO()
    write_libsvm(ds, buf)
    with block_size(size, per_line_forbidden=True):
        assert_same_csr(parse_libsvm(buf.getvalue()), ds)


MUTATIONS = ("drop colon", "double colon", "empty value", "index 1e3", "index +5",
             "nan", "inf", "reorder", "comment", "blank line", "double space",
             "crlf", "lone cr", "tab", "trailing space", "trailing digits")


def mutate(line: str, kind: str, k: int) -> str:
    """One written line with one defect or one tolerated irregularity."""
    label, *feats = line.split(" ")
    whole = {"comment": line + " # note", "blank line": "\n" + line,
             "double space": line.replace(" ", "  ", 1), "crlf": line + "\r",
             "lone cr": line.replace(" ", "\r", 1),
             "tab": line.replace(" ", "\t", 1), "trailing space": line + " ",
             "trailing digits": line + " 1"}  # a valid label under each rule
    if kind in whole:
        return whole[kind]
    if not feats:
        return "nan" if kind == "nan" else line
    j = k % len(feats)
    idx, _, val = feats[j].partition(":")
    if kind == "reorder":
        feats[j - 1], feats[j] = feats[j], feats[j - 1]
    else:
        feats[j] = {"drop colon": idx + val, "double colon": f"{idx}::{val}",
                    "empty value": f"{idx}:",
                    "index 1e3": f"1e3:{val}", "index +5": f"+{idx}:{val}",
                    "nan": f"{idx}:nan", "inf": f"{idx}:-inf"}[kind]
    return " ".join([label, *feats])


def outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc)


RULES = st.sampled_from([BinarizeRule.identity(), BinarizeRule.zero_one(),
                         BinarizeRule.threshold(0)])


def written_lines(ds: Dataset) -> list[str]:
    buf = io.StringIO()
    write_libsvm(ds, buf)
    return buf.getvalue().splitlines()


def assert_parses_as_the_per_line_parser(text: str, rule: BinarizeRule, size: int):
    """parse_libsvm on `text` as a string and as a list of lines, and
    load_libsvm on it as a file, each at blocks of `size`, give the per-line
    parser's arrays or its ParseError text: on the lines of the list as
    given, and on the string's and the file's as a file cuts them."""
    by_line = outcome(parse_per_line, text, rule)
    # a file also ends lines at a lone \r, as Python's text mode does, and a
    # string is read as a file
    in_file = outcome(parse_per_line,
                      text.replace("\r\n", "\n").replace("\r", "\n"), rule)
    with block_size(size), tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.libsvm")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for got, want in ((outcome(parse_libsvm, text, rule), in_file),
                          (outcome(parse_libsvm, list(io.StringIO(text)), rule), by_line),
                          (outcome(load_libsvm, path, rule), in_file)):
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
            else:
                assert_same_csr(got, want)


SIZES = st.sampled_from([8, 64, 1 << 16])


@settings(deadline=None)
@given(csr_datasets(values=st.floats(-1e3, 1e3)), st.data())
def test_mutated_text_parses_as_the_per_line_parser_does(ds, draw):
    lines = written_lines(ds)
    for _ in range(draw.draw(st.integers(1, 3))):
        i = draw.draw(st.integers(0, len(lines) - 1))
        lines[i] = mutate(lines[i], draw.draw(st.sampled_from(MUTATIONS)),
                          draw.draw(st.integers(0, 5)))
    text = "\n".join(lines) + draw.draw(st.sampled_from(["\n", ""]))
    assert_parses_as_the_per_line_parser(text, draw.draw(RULES), draw.draw(SIZES))


@settings(deadline=None)
@given(csr_datasets(values=st.floats(-1e3, 1e3)), st.data())
def test_an_extra_field_and_an_empty_field_parse_as_the_per_line_parser_does(ds, draw):
    """The strict path finds an empty field (a blank line or an empty value)
    by its number count. A field after a line's last feature adds a number,
    so the two together in one block must still not pass as strict text."""
    lines = written_lines(ds)
    i, j = (draw.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    lines[i] = mutate(lines[i], "trailing digits", 0)
    lines[j] = mutate(lines[j], draw.draw(st.sampled_from(["blank line", "empty value"])),
                      draw.draw(st.integers(0, 5)))
    assert_parses_as_the_per_line_parser("\n".join(lines) + "\n", draw.draw(RULES),
                                         draw.draw(SIZES))


@contextmanager
def per_line_blocks():
    """The first line of every block the per-line parser reads."""
    firsts, per_line = [], data._parse_lines

    def spy(lines, first_line, rule, rows):
        firsts.append(first_line)
        return per_line(lines, first_line, rule, rows)

    with patch.object(data, "_parse_lines", spy):
        yield firsts


@settings(deadline=None)
@given(csr_datasets(values=st.floats(-1e3, 1e3)), st.data())
def test_a_string_parses_as_a_file_of_its_text(ds, draw):
    """parse_libsvm(text) and load_libsvm on a file of the same bytes give
    the same arrays or ParseError, and re-read the same blocks line by line,
    whatever the line ends (\\n, \\r\\n, \\r or mixed), with comments, blank
    lines and defects. The text is ASCII, so the string's slices of
    BLOCK_SIZE characters are the file's reads of BLOCK_SIZE bytes."""
    lines = written_lines(ds)
    for _ in range(draw.draw(st.integers(0, 3))):
        lines.insert(draw.draw(st.integers(0, len(lines))),
                     draw.draw(st.sampled_from(["", " ", "# a comment"])))
    for _ in range(draw.draw(st.integers(0, 2))):
        i = draw.draw(st.integers(0, len(lines) - 1))
        lines[i] = mutate(lines[i], draw.draw(st.sampled_from(MUTATIONS)),
                          draw.draw(st.integers(0, 5)))
    ends = draw.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw.draw(st.booleans()):
        text = text.rstrip("\r\n")
    rule = draw.draw(RULES)
    with block_size(draw.draw(st.sampled_from([8, 32, 64, 1 << 16]))), \
            tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "text.libsvm")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        with per_line_blocks() as from_string:
            got = outcome(parse_libsvm, text, rule)
        with per_line_blocks() as from_file:
            want = outcome(load_libsvm, path, rule)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert_same_csr(got, want)
    assert from_string == from_file


# -- the integer read of strict blocks ------------------------------------

SPECIAL_DECIMALS = ["-0", "-0.0", "+0", "0.", "-0.", ".5", "5.", "-.5", "+.5", "007",
                    "-00.000", "999999999999999", "-99999999999999.9",
                    ".000000000000001", "1.00000000000000"]


@st.composite
def decimals(draw):
    """A field ``[+-]digits[.digits]`` of 1 to 15 digits, the dot anywhere
    or absent, leading and trailing zeros common."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(SPECIAL_DECIMALS))
    digits = draw(st.text("0123456789", min_size=1, max_size=data.EXACT_DIGITS))
    dot = draw(st.integers(0, len(digits) + 1))
    if dot <= len(digits):
        digits = digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(["", "+", "-"])) + digits


@st.composite
def decimal_blocks(draw):
    """Strict LIBSVM text whose labels and values are random decimals and
    whose indices are increasing, some with leading zeros."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        indices = sorted(draw(st.sets(st.integers(1, 10**6), max_size=6)))
        feats = [f"{draw(st.sampled_from(['', '0', '00']))}{i}:{draw(decimals())}"
                 for i in indices]
        lines.append(" ".join([draw(decimals()), *feats]) + "\n")
    return "".join(lines)


@settings(deadline=None)
@given(decimal_blocks(), SIZES)
def test_decimal_fields_read_as_integers_are_the_float_read(text, size):
    rule = BinarizeRule.threshold(0)  # takes any label
    exact, as_integers = [], data._exact_decimals

    def spy(*args):
        nums = as_integers(*args)
        exact.append(nums is not None)
        return nums

    with block_size(size, per_line_forbidden=True):
        with patch.object(data, "_exact_decimals", side_effect=spy):
            got = parse_libsvm(text, rule)
        with patch.object(data, "_exact_decimals", return_value=None):
            as_floats = parse_libsvm(text, rule)
    assert exact and all(exact)
    assert_same_csr(got, as_floats)
    assert_same_csr(got, parse_per_line(text, rule))


# -- chunked passes -------------------------------------------------------

def one_pass_scores(ds: Dataset, w: np.ndarray) -> np.ndarray:
    """Dataset.scores as one bincount over the whole dataset: the oracle."""
    rows = np.repeat(np.arange(len(ds)), np.diff(ds.indptr))
    return np.bincount(rows, weights=ds.values * w[ds.indices], minlength=len(ds))


def one_pass_snapshot(ds: Dataset) -> tuple[float, np.ndarray, np.ndarray]:
    """exact_snapshot's (p, u, v) from boolean masks over the whole dataset:
    the oracle."""
    row_is_pos = np.repeat(ds.labels == 1, np.diff(ds.indptr))
    sums = [np.bincount(ds.indices[mask], weights=ds.values[mask], minlength=ds.dim)
            for mask in (row_is_pos, ~row_is_pos)]
    return ds.n_pos / len(ds), sums[0] / ds.n_pos, sums[1] / ds.n_neg


@st.composite
def chunked_datasets(draw):
    """A Dataset whose rows may be empty (the first, the last or all of
    them) or longer than a small chunk, possibly wider than its indices."""
    n = draw(st.integers(1, 15))
    shape = draw(st.sampled_from(["any", "empty ends", "all empty"]))
    # few columns, so that sums of three or more terms, whose value depends
    # on the order of addition, are common
    rows = [sorted(draw(st.sets(st.integers(0, 5), max_size=0 if shape == "all empty"
                                else 6))) for _ in range(n)]
    if shape == "empty ends":
        rows[0] = rows[-1] = []
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([i for r in rows for i in r], dtype=np.int64)
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=len(indices),
                                    max_size=len(indices))), dtype=np.float64)
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    dim = int(indices.max(initial=-1)) + 1 + draw(st.integers(0, 2))
    return Dataset(indptr, indices, values, labels, dim)


CHUNKS = st.sampled_from([1, 3, 16])


@settings(deadline=None)
@given(chunked_datasets(), CHUNKS)
def test_chunks_cut_whole_rows_of_at_most_a_chunk(ds, chunk):
    with patch.object(data, "SCORE_CHUNK", chunk):
        bounds = data.chunk_bounds(ds.indptr)
    assert bounds[0] == 0 and bounds[-1] == len(ds)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        assert start < stop or len(ds) == 0
        assert ds.indptr[stop] - ds.indptr[start] <= chunk or stop == start + 1


@settings(deadline=None)
@given(chunked_datasets(), CHUNKS, st.data())
def test_chunked_scores_are_the_one_pass_scores(ds, chunk, draw):
    w = np.array(draw.draw(st.lists(st.floats(-1e3, 1e3), min_size=ds.dim,
                                    max_size=ds.dim)), dtype=np.float64)
    with patch.object(data, "SCORE_CHUNK", chunk):
        got = ds.scores(w)
    assert got.tobytes() == one_pass_scores(ds, w).tobytes()


@settings(deadline=None)
@given(chunked_datasets(), CHUNKS)
def test_chunked_snapshot_is_the_one_pass_snapshot(ds, chunk):
    with patch.object(data, "SCORE_CHUNK", chunk):
        if not (ds.n_pos and ds.n_neg):
            with pytest.raises(NotReadyError):
                exact_snapshot(ds)
            return
        got = exact_snapshot(ds)
    p, u, v = one_pass_snapshot(ds)
    assert got.p == p and got.ready
    assert got.u.tobytes() == u.tobytes() and got.v.tobytes() == v.tobytes()


@settings(deadline=None)
@given(chunked_datasets(), CHUNKS, st.data())
def test_snapshot_of_rows_is_the_snapshot_of_their_subset(ds, chunk, draw):
    rows = np.array(draw.draw(st.lists(st.integers(0, len(ds) - 1), unique=True)),
                    dtype=np.int64)
    sub = ds.subset(rows)
    with patch.object(data, "SCORE_CHUNK", chunk):
        if not (sub.n_pos and sub.n_neg):
            with pytest.raises(NotReadyError):
                exact_snapshot(ds, rows)
            return
        got, want = exact_snapshot(ds, rows), exact_snapshot(sub)
    assert got.p == want.p and got.ready
    assert got.u.tobytes() == want.u.tobytes() and got.v.tobytes() == want.v.tobytes()
