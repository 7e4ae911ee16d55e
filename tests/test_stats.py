import numpy as np
import pytest

from aucstream.data import Dataset
from aucstream.stats import ClassStats, NotReadyError, exact_snapshot

from conftest import dense_example, random_dataset, sparse_example, to_dense


def brute_snapshot(examples, dim):
    """Recompute (p, u, v) from scratch over a list of examples."""
    pos = [to_dense(ex, dim) for ex in examples if ex.label == 1]
    neg = [to_dense(ex, dim) for ex in examples if ex.label == -1]
    p = len(pos) / len(examples) if examples else 0.0
    u = np.mean(pos, axis=0) if pos else np.zeros(dim)
    v = np.mean(neg, axis=0) if neg else np.zeros(dim)
    return p, u, v


def test_first_positive_example():
    stats = ClassStats(3)
    x = dense_example([1.0, 0.0, 2.0], 1)
    stats.update(x)
    snap = stats.snapshot()
    assert stats.t == 1 and stats.n_pos == 1
    assert not snap.ready
    np.testing.assert_array_equal(snap.u, [1.0, 0.0, 2.0])


def test_becomes_ready_with_second_class():
    stats = ClassStats(2)
    stats.update(dense_example([1.0, 0.0], 1))
    stats.update(dense_example([0.0, 3.0], -1))
    snap = stats.snapshot()
    assert snap.ready and snap.p == 0.5
    np.testing.assert_array_equal(snap.v, [0.0, 3.0])


def test_mean_of_three_positives():
    rng = np.random.default_rng(1)
    pos = [dense_example(rng.normal(size=4), 1) for _ in range(3)]
    neg = dense_example(rng.normal(size=4), -1)
    stats = ClassStats(4)
    for ex in pos + [neg]:
        stats.update(ex)
    snap = stats.snapshot()
    assert snap.p == 0.75
    expected = np.mean([ex.values for ex in pos], axis=0)
    np.testing.assert_allclose(snap.u, expected, rtol=1e-12)


def test_empty_snapshot_not_ready():
    snap = ClassStats(5).snapshot()
    assert not snap.ready and snap.p == 0.0


def test_prior_is_count_ratio():
    stats = ClassStats(1)
    for i in range(10):
        stats.update(dense_example([1.0], 1 if i < 4 else -1))
    assert stats.snapshot().p == 0.4


def test_prefix_exactness():
    rng = np.random.default_rng(7)
    d = 6
    examples = [sparse_example(rng, d, 1 if rng.random() < 0.4 else -1)
                for _ in range(50)]
    stats = ClassStats(d)
    for t, ex in enumerate(examples, start=1):
        stats.update(ex)
        snap = stats.snapshot()
        p, u, v = brute_snapshot(examples[:t], d)
        assert snap.p == pytest.approx(p, rel=1e-10)
        np.testing.assert_allclose(snap.u, u, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(snap.v, v, rtol=1e-10, atol=1e-12)


def test_final_snapshot_order_robust():
    rng = np.random.default_rng(8)
    d = 5
    examples = [sparse_example(rng, d, y) for y in [1, -1, 1, 1, -1, -1, 1]]
    stats_fwd, stats_perm = ClassStats(d), ClassStats(d)
    for ex in examples:
        stats_fwd.update(ex)
    for i in rng.permutation(len(examples)):
        stats_perm.update(examples[i])
    a, b = stats_fwd.snapshot(), stats_perm.snapshot()
    assert a.p == b.p
    np.testing.assert_allclose(a.u, b.u, rtol=1e-10)
    np.testing.assert_allclose(a.v, b.v, rtol=1e-10)


class TestExactSnapshot:
    def test_one_each(self):
        xp = dense_example([2.0, 1.0], 1)
        xn = dense_example([0.0, -1.0], -1)
        snap = exact_snapshot(Dataset.from_examples([xp, xn], dim=2))
        assert snap.ready and snap.p == 0.5
        np.testing.assert_array_equal(snap.u, [2.0, 1.0])
        np.testing.assert_array_equal(snap.v, [0.0, -1.0])

    def test_matches_streaming_in_any_order(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=30, d=4)
        exact = exact_snapshot(ds)
        stats = ClassStats(4)
        for i in rng.permutation(len(ds)):
            stats.update(ds[i])
        snap = stats.snapshot()
        assert exact.p == pytest.approx(snap.p, rel=1e-12)
        np.testing.assert_allclose(exact.u, snap.u, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(exact.v, snap.v, rtol=1e-12, atol=1e-14)

    def test_single_class_rejected(self):
        ds = Dataset.from_examples([dense_example([1.0], 1), dense_example([2.0], 1)])
        with pytest.raises(NotReadyError):
            exact_snapshot(ds)
