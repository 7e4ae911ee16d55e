"""Property tests of the CSR Dataset on random sparse datasets."""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from aucstream.data import Dataset, parse_libsvm, write_libsvm

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


def assert_same_csr(a: Dataset, b: Dataset) -> None:
    """Equal dim and bit-equal arrays (tobytes tells -0.0 from 0.0)."""
    assert a.dim == b.dim
    for name in ("indptr", "indices", "values", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


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
