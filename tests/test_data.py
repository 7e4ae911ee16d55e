import io
import os

import numpy as np
import pytest

from aucstream.data import (BinarizeRule, Dataset, Example, ParseError,
                            binarize, parse_libsvm, split, stream_order,
                            write_libsvm)

from conftest import random_dataset


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

    def test_diabetes_file_if_available(self):
        path = os.environ.get("AUCSTREAM_DIABETES", "data/diabetes.libsvm")
        if not os.path.exists(path):
            pytest.skip(f"diabetes file not found at {path}")
        with open(path) as fh:
            ds = parse_libsvm(fh)
        assert len(ds) == 768 and ds.dim == 8


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


def test_subset_keeps_dim_and_counts():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, n=20, d=6)
    sub = ds.subset(np.array([0, 3, 5]))
    assert sub.dim == ds.dim
    assert sub.n_pos + sub.n_neg == 3
