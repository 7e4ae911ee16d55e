import importlib.util
import io
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aucstream import data
from aucstream.data import (BinarizeRule, Dataset, Example, ParseError,
                            binarize, load_libsvm, parse_libsvm, split,
                            stream_order, write_libsvm)

from conftest import assert_same_csr, parse_per_line, random_dataset


class TestBinarize:
    def test_zero_one(self):
        assert binarize(1, BinarizeRule.zero_one()) == 1
        assert binarize(0, BinarizeRule.zero_one()) == -1

    def test_threshold_splits_label_alphabet(self):
        rule = BinarizeRule.threshold(5)
        assert binarize(3, rule) == 1
        assert binarize(7, rule) == -1
        assert [binarize(k, rule) for k in range(1, 11)] == [1] * 5 + [-1] * 5

    def test_identity(self):
        assert binarize(1, BinarizeRule.identity()) == 1
        assert binarize(-1, BinarizeRule.identity()) == -1

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            binarize(0, BinarizeRule.identity())
        with pytest.raises(ValueError):
            binarize(2, BinarizeRule.zero_one())


class TestParse:
    def test_basic(self):
        ds = parse_libsvm("+1 1:1.0 3:2.0\n-1 2:0.5")
        assert len(ds) == 2 and ds.dim == 3
        assert ds.n_pos == 1 and ds.n_neg == 1
        np.testing.assert_array_equal(ds[0].indices, [0, 2])
        np.testing.assert_array_equal(ds[0].values, [1.0, 2.0])
        assert ds[1].label == -1

    def test_zero_label_binarized(self):
        ds = parse_libsvm("0 1:1.0", rule=BinarizeRule.zero_one())
        assert ds[0].label == -1

    def test_comments_and_blanks(self):
        text = "# header\n\n+1 1:2.0  # inline\n\n-1 1:-1.0\n"
        ds = parse_libsvm(text)
        assert len(ds) == 2

    def test_order_preserved(self):
        text = "\n".join(f"+1 1:{float(i)!r}" for i in range(5)) + "\n-1 1:9.0"
        ds = parse_libsvm(text)
        assert [ex.values[0] for ex in ds][:5] == [float(i) for i in range(5)]

    @pytest.mark.parametrize("bad,lineno", [
        ("+1 1:1.0\nx 1:1.0", 2),
        ("+1 1:1.0\n-1 2-3", 2),
        ("+1 3:1.0 2:1.0", 1),
        ("+1 2:1.0 2:2.0", 1),
        ("+1 0:1.0", 1),
        ("+1 1:abc", 1),
        ("+1 1:1.0\n-1 9223372036854775808:1", 2),  # index 2^63: dim overflows int64
    ])
    def test_malformed_lines_carry_line_number(self, bad, lineno):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(bad)
        assert f"line {lineno}" in str(exc.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("")
        with pytest.raises(ParseError):
            parse_libsvm("# only comments\n\n")

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=40, d=12, density=0.4)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        again = parse_libsvm(buf.getvalue())
        assert len(again) == len(ds) and again.dim == ds.dim
        assert again.n_pos == ds.n_pos
        for a, b in zip(ds, again):
            assert a.label == b.label
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)

    def test_lone_cr_ends_a_line_as_in_a_file(self):
        got = parse_libsvm("+1 1:0.5\r-1 2:0.25\r")
        assert_same_csr(got, parse_libsvm("+1 1:0.5\n-1 2:0.25\n"))

    def test_lone_surrogate_is_not_utf8_text(self):
        # even inside a comment, as the same bytes in a file are
        with pytest.raises(ParseError, match="^line 2: not UTF-8 text: byte 0xed"):
            parse_libsvm("+1 1:0.5\n-1 2:0.25  # \ud800\n")

    def test_diabetes_file_if_available(self):
        path = os.environ.get("AUCSTREAM_DIABETES", "data/diabetes.libsvm")
        if not os.path.exists(path):
            pytest.skip(f"diabetes file not found at {path}")
        with open(path) as fh:
            ds = parse_libsvm(fh)
        assert len(ds) == 768 and ds.dim == 8


@pytest.fixture
def fallbacks(monkeypatch):
    """32-byte blocks, and the first line of every block that the per-line
    parser reads."""
    monkeypatch.setattr(data, "BLOCK_SIZE", 32)
    firsts, per_line = [], data._parse_lines

    def spy(lines, first_line, rule, rows):
        firsts.append(first_line)
        return per_line(lines, first_line, rule, rows)

    monkeypatch.setattr(data, "_parse_lines", spy)
    return firsts


def parsed(text: str, rule=None, parse=parse_libsvm):
    """The Dataset `parse` reads from `text`, or its ParseError's message."""
    try:
        return parse(text, rule)
    except ParseError as exc:
        return str(exc)


def assert_same_outcome(a, b) -> None:
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
    else:
        assert_same_csr(a, b)


class TestBlocks:
    """Block boundaries of parse_libsvm/load_libsvm at a 32-byte BLOCK_SIZE.
    Every line of ROWS is 15 bytes, so a block holds two lines."""

    ROWS = "".join(f"{'+1' if i % 3 else '-1'} {i % 7 + 1}:0.5 9:2.5\n"
                   for i in range(12))

    def test_strict_blocks_skip_the_per_line_parser(self, fallbacks):
        got = parse_libsvm(self.ROWS)
        assert fallbacks == []
        assert_same_csr(got, parse_per_line(self.ROWS))

    def test_malformed_line_in_third_block_names_its_line(self, fallbacks):
        lines = self.ROWS.splitlines(keepends=True)
        lines[5] = "+1 9:0.5 1:2.5\n"  # indices decrease; line 6, in block 3
        with pytest.raises(ParseError, match="^line 6: feature indices"):
            parse_libsvm("".join(lines))
        assert fallbacks == [5]

    def test_line_longer_than_a_block(self, fallbacks):
        long = "-1 " + " ".join(f"{i}:{i / 8}" for i in range(1, 30)) + "\n"
        text = self.ROWS[:30] + long + self.ROWS[30:]
        got = parse_libsvm(text)
        assert fallbacks == []
        assert_same_csr(got, parse_per_line(text))
        with pytest.raises(ParseError, match="^line 4: non-numeric"):
            parse_libsvm(self.ROWS[:30] + long + "+1 1:x\n" + self.ROWS[30:])

    def test_trailing_spaces_fall_back_to_the_same_arrays(self, fallbacks):
        text = self.ROWS.replace("\n", " \n")
        got = parse_libsvm(text)
        assert fallbacks == [1, 3, 5, 7, 9, 11]  # every block
        assert_same_csr(got, parse_per_line(self.ROWS))

    def test_last_line_without_newline(self, fallbacks):
        text = self.ROWS.rstrip("\n")
        got = parse_libsvm(text)
        assert fallbacks == []
        assert_same_csr(got, parse_per_line(self.ROWS))

    @pytest.mark.parametrize("line,rule", [
        ("+1 1:2:3 4\n", BinarizeRule.identity()),  # two colons in a token
        ("+1 1: -3 4:5\n", BinarizeRule.identity()),  # empty value, no colon
        ("5:1 2:3 7\n", BinarizeRule.threshold(0)),  # colon in the first label
        ("nan(1) 1:2\n", BinarizeRule.threshold(0)),  # numpy reads it, float() not
        ("+1 1:1e999\n", BinarizeRule.identity()),  # overflows to inf
        ("+1 3:1 1e3:2\n", BinarizeRule.identity()),  # exponent in an index
        ("+1 1:1 +5:2\n", BinarizeRule.identity()),  # int() takes the sign
        # a field after a line's last feature adds a number to the count, an
        # empty field takes one away
        ("1 2:3 1\n\n1 4:5\n", BinarizeRule.identity()),
        ("1 2: 3:4 1\n", BinarizeRule.identity()),
        ("1 2:3 5\n1 4:\n", BinarizeRule.threshold(0)),
    ])
    def test_irregular_line_gives_the_per_line_outcome(self, fallbacks, line, rule):
        text = self.ROWS[:30] + line + self.ROWS[30:]
        try:
            got = parse_libsvm(text, rule)
        except ParseError as exc:
            got = str(exc)
        assert fallbacks == [3]
        try:
            expected = parse_per_line(text, rule)
        except ParseError as exc:
            assert got == str(exc)
        else:
            assert_same_csr(got, expected)

    def test_block_of_one_blank_line(self, fallbacks):
        head = "+1 " + " ".join(f"{i}:1" for i in range(1, 7)) + " 17:1\n"
        assert len(head) == 32  # the blank line opens the second block
        long = "-1 " + " ".join(f"{i}:1" for i in range(1, 12)) + "\n"
        text = head + "\n" + long  # np.fromstring reads "\n" as [-1.]
        got = parse_libsvm(text)
        assert fallbacks == [2]
        assert_same_csr(got, parse_per_line(text))

    def test_cr_file_is_cut_at_its_line_ends(self, fallbacks):
        raw = self.ROWS.replace("\n", "\r").encode()
        reads = io.BytesIO(raw)
        blocks = list(data._file_blocks(iter(lambda: reads.read(32), b"")))
        assert b"".join(blocks) == raw
        assert len(blocks) > 1
        assert all(b.endswith(b"\r") and len(b) <= 32 for b in blocks)

    @pytest.mark.parametrize("size", [32, 15])  # 15: reads end between \r and \n
    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_files(self, fallbacks, monkeypatch, tmp_path, end, size):
        monkeypatch.setattr(data, "BLOCK_SIZE", size)
        path = tmp_path / "crlf.libsvm"
        path.write_bytes(self.ROWS.replace("\n", end).encode())
        got = load_libsvm(str(path))
        assert fallbacks == []
        assert_same_csr(got, parse_per_line(self.ROWS))
        path.write_bytes((self.ROWS + "+1 0:1\n").replace("\n", end).encode())
        with pytest.raises(ParseError, match="^line 13: feature index must be >= 1"):
            load_libsvm(str(path))

    def test_comments_and_blank_lines_fall_back_to_the_same_arrays(self, fallbacks):
        lines = self.ROWS.splitlines(keepends=True)
        lines[3] = "# a comment line\n"
        lines[7] = lines[7].rstrip("\n") + "  # inline\n"
        lines[9] = "\n"
        text = "".join(lines)
        got = parse_libsvm(text)
        assert fallbacks == [3, 8]  # only the blocks of line 4 and of lines 8 and 10
        assert_same_csr(got, parse_per_line(text))

    @pytest.mark.parametrize("line", [
        "+1 1:2.5e-3 4:1\n",  # an exponent
        "+1 1:25E3 4:1\n",  # an exponent without a dot
        "+1 1:0.1000000000000001\n",  # 16 digits
        "1234567890123456 1:1\n",  # 16 digits in the label
        "+1 1:1.2.3 4:1\n",  # two dots
        "+1 1:- 4:1\n",  # a lone sign
        "+1 1:. 4:1\n",  # a lone dot
        "+1 1:1-2 4:1\n",  # a sign inside a field
        "+1 1:+-2 4:1\n",  # two signs
        "+1 1:2.- 4:1\n",  # a sign after a dot
    ])
    def test_fields_outside_the_integer_form_read_as_floats(self, monkeypatch, line):
        """Only the block holding a field the integer read cannot take exactly
        is read as floats, with the arrays, or the ParseError and its line,
        that the float read and the per-line parser give."""
        monkeypatch.setattr(data, "BLOCK_SIZE", 32)
        text = self.ROWS[:30] + line + self.ROWS[30:]
        exact, as_integers = [], data._exact_decimals

        def spy(*args):
            nums = as_integers(*args)
            exact.append(nums is not None)
            return nums

        monkeypatch.setattr(data, "_exact_decimals", spy)
        got = parsed(text)
        assert exact[:2] == [True, False]  # the second block holds the line
        assert all(exact[2:])
        monkeypatch.setattr(data, "_exact_decimals", lambda *args: None)
        assert_same_outcome(got, parsed(text))
        assert_same_outcome(got, parsed(text, parse=parse_per_line))

    def test_generated_benchmark_text_is_read_as_integers(self, monkeypatch, tmp_path):
        """Text shaped like the benchmark's (perfbench/gen.py) never reaches
        the float np.fromstring."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # for its dataclass
        spec.loader.exec_module(gen)
        dtypes, fromstring = [], np.fromstring

        def spy(text, dtype=float, **kwargs):
            dtypes.append(np.dtype(dtype))
            return fromstring(text, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "fromstring", spy)
        for rows in (gen.dense(1, n=300, dim=8, pos_frac=0.35, spread=0.05, shift=0.075),
                     gen.planted_sparse(1, n=300, dim=10_000, nnz=100, n_informative=200,
                                        informative_per_row=8, purity=0.75)):
            path = tmp_path / "gen.libsvm"
            size = rows.write(str(path))
            before = len(dtypes)
            got = load_libsvm(str(path))
            assert len(dtypes) - before >= size // data.BLOCK_SIZE
            np.testing.assert_array_equal(got.values, rows.values)
            np.testing.assert_array_equal(got.indices, rows.indices)
        assert set(dtypes) == {np.dtype(np.int64)}

    def test_non_utf8_byte_names_its_line(self, fallbacks, tmp_path):
        path = tmp_path / "latin1.libsvm"
        path.write_bytes(self.ROWS.encode()[:75] + b"+1 1:0.5 # caf\xe9\n")
        with pytest.raises(ParseError, match="^line 6: not UTF-8 text: byte 0xe9"):
            load_libsvm(str(path))


class TestDimension:
    """Indices up to MAX_DIM parse; a larger one is refused naming its line,
    on the strict path and per line, before anything d-sized exists."""

    @pytest.mark.parametrize("text", ["+1 1:1\n-1 {}:2\n",
                                      "+1 1:1\n-1 {}:2  # comment\n"],
                             ids=["strict", "per-line"])
    def test_largest_index_sets_the_largest_dimension(self, text):
        ds = parse_libsvm(text.format(data.MAX_DIM))
        assert ds.dim == data.MAX_DIM and ds.indices[-1] == data.MAX_DIM - 1

    @pytest.mark.parametrize("text", ["+1 1:1\n-1 {}:2\n",
                                      "+1 1:1\n-1 {}:2  # comment\n"],
                             ids=["strict", "per-line"])
    @pytest.mark.parametrize("index", [data.MAX_DIM + 1, 10**12, 2**63])
    def test_larger_index_names_its_line(self, text, index):
        with pytest.raises(ParseError, match=f"^line 2: feature index {index} "
                                             "exceeds the largest supported dimension"):
            parse_libsvm(text.format(index))

    def test_dataset_refuses_a_larger_dimension(self):
        rows = [Example(np.array([0]), np.array([1.0]), 1)]
        assert Dataset.from_examples(rows, dim=data.MAX_DIM).dim == data.MAX_DIM
        with pytest.raises(ValueError, match="exceeds the largest supported"):
            Dataset.from_examples(rows, dim=data.MAX_DIM + 1)


class TestSplit:
    def test_sizes(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n=10, d=4)
        tr, te = split(ds, 0.2, seed=42)
        assert (len(tr), len(te)) == (8, 2)

    def test_sizes_follow_floor_rule(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n=768, d=4, density=0.9)
        tr, te = split(ds, 0.2, seed=0)
        # test part is floor(0.2 * 768) = 153
        assert (len(tr), len(te)) == (615, 153)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=23, d=4)
        a = split(ds, 0.3, seed=5)
        b = split(ds, 0.3, seed=5)
        for x, y in zip(a[0], b[0]):
            np.testing.assert_array_equal(x.indices, y.indices)
            np.testing.assert_array_equal(x.values, y.values)
            assert x.label == y.label

    def test_partition(self):
        # examples tagged by a unique value so the partition can be checked
        examples = [Example(np.array([0]), np.array([float(i)]), 1 if i % 2 else -1)
                    for i in range(17)]
        ds = Dataset.from_examples(examples)
        tr, te = split(ds, 0.25, seed=9)
        tags = sorted(ex.values[0] for ex in tr) + sorted(ex.values[0] for ex in te)
        assert sorted(tags) == [float(i) for i in range(17)]
        assert not set(ex.values[0] for ex in tr) & set(ex.values[0] for ex in te)

    def test_bad_fraction(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=6, d=3)
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(ds, f, seed=1)


class TestStreamOrder:
    def test_deterministic(self):
        np.testing.assert_array_equal(stream_order(3, epoch=0, seed=7),
                                      stream_order(3, epoch=0, seed=7))

    def test_is_permutation_per_epoch(self):
        for epoch in range(3):
            order = stream_order(10, epoch=epoch, seed=1)
            assert sorted(order) == list(range(10))

    def test_singleton(self):
        np.testing.assert_array_equal(stream_order(1, epoch=0, seed=0), [0])


def test_scores_match_example_dots():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, n=30, d=9, density=0.5)
    w = rng.normal(size=9)
    expected = np.array([ex.dot(w) for ex in ds])
    np.testing.assert_allclose(ds.scores(w), expected, rtol=1e-12, atol=1e-14)


def test_scores_memory_is_bounded_by_the_chunk():
    # the one-pass scores held three temporaries of the dataset's size (16
    # MB here); per run of rows they are a few hundred KiB
    n, per_row, d = 10_000, 100, 10_000
    rng = np.random.default_rng(13)
    ds = Dataset(np.arange(0, n * per_row + 1, per_row),
                 rng.integers(d, size=n * per_row), rng.normal(size=n * per_row),
                 rng.choice([1, -1], size=n), d)
    w = rng.normal(size=d)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ds.scores(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * 2**20


def test_subset_keeps_dim_and_counts():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, n=20, d=6)
    sub = ds.subset(np.array([0, 3, 5]))
    assert sub.dim == ds.dim
    assert sub.n_pos + sub.n_neg == 3


def test_every_way_of_building_keeps_the_labels_once():
    # the constructor also kept the rows of each class, a second copy of
    # the labels, in every subset and fold
    ds = Dataset([0, 2, 2, 3, 4], [0, 4, 1, 2], [1.0, 2.0, 3.0, 4.0], [1, -1, -1, 1])
    built = [ds, ds.subset(np.array([2, 0])), ds.on_columns(np.array([0, 4])),
             *split(ds, 0.5, seed=0), parse_libsvm("+1 1:1 5:2\n-1\n-1 2:3\n")]
    for got in built:
        assert set(vars(got)) == {"indptr", "indices", "values", "labels", "dim",
                                  "n_pos", "n_neg"}


class TestOnColumns:
    """Dataset.on_columns: the rows renumbered over a sorted set of columns,
    entries in other columns dropped."""

    def test_renumbers_in_order_and_drops_other_columns(self):
        ds = Dataset([0, 3, 3, 5], [1, 4, 6, 0, 4], [1.0, -2.0, 3.0, 4.0, -0.0],
                     [1, -1, 1], dim=8)
        got = ds.on_columns(np.array([0, 4, 6]))
        assert_same_csr(got, Dataset([0, 2, 2, 4], [1, 2, 0, 1], [-2.0, 3.0, 4.0, -0.0],
                                     [1, -1, 1], dim=3))
        assert (got.n_pos, got.n_neg) == (2, 1)

    def test_every_entry_kept_shares_all_but_the_indices(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=20, d=9)
        cols = np.unique(ds.indices)
        got = ds.on_columns(cols)
        assert got.dim == cols.size
        assert got.indptr is ds.indptr and got.values is ds.values \
            and got.labels is ds.labels
        np.testing.assert_array_equal(cols[got.indices], ds.indices)

    def test_columns_beyond_the_dimension_and_none(self):
        ds = Dataset([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], [1, -1], dim=3)
        assert_same_csr(ds.on_columns(np.array([2, 5, 7])),
                        Dataset([0, 1, 1], [0], [2.0], [1, -1], dim=3))
        assert_same_csr(ds.on_columns(np.zeros(0, np.int64)),
                        Dataset([0, 0, 0], [], [], [1, -1], dim=0))


class TestCSR:
    """Dataset refuses arrays that are not one CSR row per label, each
    label +1 or -1: a 0/1 label counted as negative had no negative row
    index, and a negative index read w[-1]."""

    def test_valid_arrays_build(self):
        ds = Dataset([0, 2, 2, 3], [0, 4, 1], [1.0, 2.0, 3.0], [1, -1, -1])
        assert (ds.dim, ds.n_pos, ds.n_neg) == (5, 1, 2)
        assert len(Dataset([0], [], [], [])) == 0

    def test_label_outside_plus_minus_one(self):
        with pytest.raises(ValueError, match="labels must be \\+1 or -1, got 0"):
            Dataset([0, 1, 1], [0], [1.0], [1, 0])

    def test_negative_feature_index(self):
        with pytest.raises(ValueError, match="negative feature index -1"):
            Dataset([0, 1], [-1], [2.0], [1], dim=2)

    @pytest.mark.parametrize("indptr", [[1, 2], [0, 1], [0, 3], [0, 2, 1, 2]])
    def test_indptr_not_rising_from_zero_to_the_entry_count(self, indptr):
        with pytest.raises(ValueError, match="indptr must rise from 0 to 2"):
            Dataset(indptr, [0, 1], [1.0, 2.0], [1] * (len(indptr) - 1))

    def test_values_and_indices_of_different_lengths(self):
        with pytest.raises(ValueError, match="1 values for 2 indices"):
            Dataset([0, 2], [0, 1], [1.0], [1])

    @pytest.mark.parametrize("labels", [[], [1, -1]])
    def test_not_one_label_per_row(self, labels):
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 1 rows"):
            Dataset([0, 1], [0], [1.0], labels)

    @pytest.mark.parametrize("args,message", [
        (([0, 1, 2], [0, 1], [1.0, 2.0], [1.9, -1.2]), "labels must hold integers, got 1.9"),
        (([0, 2], [0.5, 1.7], [1.0, 2.0], [1]), "indices must hold integers, got 0.5"),
        (([0.0, 1.5, 2], [0, 1], [1.0, 2.0], [1, -1]), "indptr must hold integers, got 1.5"),
        (([0, 1, 2], [0, 1], [1.0, 2.0], [1, -1], 2.5), "dim must be an integer, got 2.5"),
        (([0, 1, 2], [0, np.nan], [1.0, 2.0], [1, -1]), "indices must hold integers, got nan"),
        (([0, 1, np.inf], [0, 1], [1.0, 2.0], [1, -1]), "indptr must hold integers, got inf"),
        (([0, 1, 2], [0, 1], [1.0, 2.0], [1, -np.inf]), "labels must hold integers, got -inf"),
    ], ids=["label", "index", "indptr", "dim", "nan", "inf", "-inf"])
    def test_a_value_that_is_not_an_integer_is_refused(self, args, message):
        # cast to int, 1.9 and -1.2 were stored as the labels +1 and -1
        with pytest.raises(ValueError, match=message):
            Dataset(*args)

    def test_integral_floats_are_read_as_integers(self):
        ds = Dataset([0.0, 1.0, 2.0], [0.0, 3.0], [1.0, 2.0], [1.0, -1.0])
        want = Dataset([0, 1, 2], [0, 3], [1.0, 2.0], [1, -1])
        assert_same_csr(ds, want)


class TestIndexWidth:
    """Indices are kept as int32, values as float64: 12 bytes per stored
    nonzero. Indices given wider are checked before they are narrowed, so
    one that int32 cannot hold is refused, not wrapped."""

    @pytest.mark.parametrize("index, dim, message", [
        (2**31 + 5, None, f"dimension {2**31 + 6} exceeds the largest supported"),
        (2**32 + 5, None, f"dimension {2**32 + 6} exceeds the largest supported"),
        (2**32 + 5, 8, f"dim 8 smaller than 1 \\+ max feature index {2**32 + 5}"),
        (-1, None, "negative feature index -1"),
    ])
    def test_an_index_outside_int32_is_refused(self, index, dim, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Dataset([0, 2], np.array([0, index], dtype=np.int64), [1.0, 2.0], [1], dim)

    def test_every_way_of_building_gives_int32_indices(self, tmp_path):
        strict = "+1 1:1 5:2.5\n-1\n-1 2:3e0 3:-0.25\n"
        per_line = "# a comment\n" + strict
        path = tmp_path / "rows.libsvm"
        path.write_text(strict)
        ds = parse_libsvm(strict)
        built = [ds, parse_libsvm(per_line), parse_libsvm(io.StringIO(strict)),
                 load_libsvm(str(path)), ds.subset(np.array([2, 0])),
                 ds.on_columns(np.array([0, 4])), ds.on_columns(np.arange(5)),
                 Dataset.from_examples(list(ds)),
                 Dataset.from_examples([Example(np.array([3], np.int64), np.ones(1), 1)])]
        for got in built:
            assert got.indices.dtype == np.int32 and got.values.dtype == np.float64
