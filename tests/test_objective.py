import numpy as np
import pytest

from aucstream.data import Dataset
from aucstream.objective import (dataset_kappa, instance_kappa,
                                 pairwise_objective_bruteforce,
                                 pairwise_objective_fast, saddle_grad,
                                 saddle_value, surrogate_grad,
                                 surrogate_value)
from aucstream.stats import NotReadyError, StatsSnapshot, exact_snapshot

from conftest import (central_diff, central_diff_scalar, dense_example,
                      random_dataset, random_snapshot, sparse_example, to_dense)


def reference_value(w, z, s):
    """Term-by-term dense evaluation of the surrogate, written independently
    of the production path."""
    x = to_dense(z, len(w))
    p, u, v = s.p, s.u, s.v
    out = 2.0 * p * (1 - p) * (w @ (v - u))
    out += p * (1 - p) * (w @ (v - u)) ** 2
    out += p * (1 - p)
    if z.label == 1:
        out += (1 - p) * (w @ (x - u)) ** 2
    else:
        out += p * (w @ (x - v)) ** 2
    return out


def reference_saddle(w, a, b, alpha, z, s):
    x = to_dense(z, len(w))
    p = s.p
    ind_pos = 1.0 if z.label == 1 else 0.0
    ind_neg = 1.0 - ind_pos
    return (p * (1 - p)
            + (1 - p) * (w @ x - a) ** 2 * ind_pos
            + p * (w @ x - b) ** 2 * ind_neg
            + 2 * (1 + alpha) * (w @ x) * (p * ind_neg - (1 - p) * ind_pos)
            - p * (1 - p) * alpha ** 2)


def random_instance(rng, d=5):
    z = sparse_example(rng, d, 1 if rng.random() < 0.5 else -1)
    return rng.normal(size=d), z, random_snapshot(rng, d)


class TestSurrogateValue:
    def test_zero_weight_gives_prior_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, z, s = random_instance(rng)
            assert surrogate_value(np.zeros(5), z, s) == pytest.approx(
                s.p * (1 - s.p), rel=1e-12)

    def test_equal_means_drop_cross_terms(self):
        rng = np.random.default_rng(1)
        d = 4
        u = rng.normal(size=d)
        s = StatsSnapshot(0.3, u, u.copy(), True)
        z = sparse_example(rng, d, 1)
        w = rng.normal(size=d)
        x = to_dense(z, d)
        expected = 0.7 * (w @ (x - u)) ** 2 + 0.3 * 0.7
        assert surrogate_value(w, z, s) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w, z, s = random_instance(rng)
            assert surrogate_value(w, z, s) == pytest.approx(
                reference_value(w, z, s), rel=1e-12, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            w, z, s = random_instance(rng)
            assert surrogate_value(3.0 * w, z, s) >= -1e-12

    def test_unready_snapshot_rejected(self):
        rng = np.random.default_rng(4)
        z = sparse_example(rng, 3, 1)
        s = StatsSnapshot(0.0, np.zeros(3), np.zeros(3), False)
        with pytest.raises(NotReadyError):
            surrogate_value(np.zeros(3), z, s)
        with pytest.raises(NotReadyError):
            surrogate_grad(np.zeros(3), z, s)


class TestSurrogateGrad:
    def test_zero_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, z, s = random_instance(rng)
            g = surrogate_grad(np.zeros(5), z, s)
            np.testing.assert_allclose(
                g, 2 * s.p * (1 - s.p) * (s.v - s.u), rtol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            w, z, s = random_instance(rng)
            g = surrogate_grad(w, z, s)
            h = 1e-5 * (1.0 + np.linalg.norm(w))
            fd = central_diff(lambda ww: surrogate_value(ww, z, s), w, h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_self_bounding(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            w, z, s = random_instance(rng)
            kappa = instance_kappa(z, s)
            value = surrogate_value(w, z, s)
            grad_sq = float(np.sum(surrogate_grad(w, z, s) ** 2))
            assert grad_sq <= 16.0 * kappa**2 * value * (1 + 1e-10)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            _, z, s = random_instance(rng)
            w1, w2 = rng.normal(size=5), rng.normal(size=5)
            for lam in (0.25, 0.5, 0.75):
                mid = surrogate_value(lam * w1 + (1 - lam) * w2, z, s)
                bound = (lam * surrogate_value(w1, z, s)
                         + (1 - lam) * surrogate_value(w2, z, s))
                assert mid <= bound + 1e-10


class TestPairwiseObjective:
    def test_zero_weight(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=30, d=4, pos_fraction=0.4)
        p_hat = ds.n_pos / len(ds)
        w = np.zeros(4)
        assert pairwise_objective_bruteforce(w, ds) == pytest.approx(
            p_hat * (1 - p_hat), rel=1e-12)
        assert pairwise_objective_fast(w, ds) == pytest.approx(
            p_hat * (1 - p_hat), rel=1e-12)

    def test_perfect_margin_single_pair(self):
        ds = Dataset.from_examples(
            [dense_example([1.0, 0.0], 1), dense_example([0.0, 0.0], -1)])
        assert pairwise_objective_bruteforce(np.array([1.0, 0.0]), ds) == 0.0

    def test_fast_equals_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            d = int(rng.integers(2, 8))
            ds = random_dataset(rng, n, d, pos_fraction=rng.uniform(0.2, 0.8))
            w = rng.normal(size=d)
            fast = pairwise_objective_fast(w, ds)
            brutal = pairwise_objective_bruteforce(w, ds)
            assert fast == pytest.approx(brutal, rel=1e-10)

    def test_duplicated_positive_reduces_to_single_pair(self):
        xp = dense_example([2.0, -1.0], 1)
        xn = dense_example([0.5, 1.0], -1)
        ds = Dataset.from_examples([xp, dense_example([2.0, -1.0], 1), xn])
        w = np.array([0.3, -0.2])
        margin = 1.0 - w @ (to_dense(xp, 2) - to_dense(xn, 2))
        p_hat = 2.0 / 3.0
        expected = p_hat * (1 - p_hat) * margin**2
        assert pairwise_objective_fast(w, ds) == pytest.approx(expected, rel=1e-12)

    def test_single_class_rejected(self):
        ds = Dataset.from_examples([dense_example([1.0], 1)] * 3)
        with pytest.raises(ValueError):
            pairwise_objective_bruteforce(np.array([1.0]), ds)
        with pytest.raises(ValueError):
            pairwise_objective_fast(np.array([1.0]), ds)


class TestTilde:
    def test_unbiased_at_empirical_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(rng, n=40, d=5, pos_fraction=0.3)
            exact = exact_snapshot(ds)
            w = rng.normal(size=5)
            mean = np.mean([surrogate_value(w, z, exact) for z in ds])
            assert mean == pytest.approx(
                pairwise_objective_bruteforce(w, ds), rel=1e-10)

    def test_zero_weight(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, n=20, d=3, pos_fraction=0.5)
        exact = exact_snapshot(ds)
        p_hat = ds.n_pos / len(ds)
        assert surrogate_value(np.zeros(3), ds[0], exact) == pytest.approx(
            p_hat * (1 - p_hat), rel=1e-12)

    def test_convexity(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=15, d=4)
        exact = exact_snapshot(ds)
        for _ in range(200):
            w1, w2 = rng.normal(size=4), rng.normal(size=4)
            z = ds[int(rng.integers(len(ds)))]
            mid = surrogate_value(0.5 * w1 + 0.5 * w2, z, exact)
            assert mid <= 0.5 * surrogate_value(w1, z, exact) \
                + 0.5 * surrogate_value(w2, z, exact) + 1e-10


class TestSaddle:
    def test_value_matches_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            w, z, s = random_instance(rng)
            a, b, alpha = rng.normal(size=3)
            assert saddle_value(w, a, b, alpha, z, s.p) == pytest.approx(
                reference_saddle(w, a, b, alpha, z, s), rel=1e-12, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            w, z, s = random_instance(rng)
            a, b, alpha = rng.normal(size=3)
            gw, ga, gb, galpha = saddle_grad(w, a, b, alpha, z, s.p)
            h = 1e-5 * (1.0 + np.linalg.norm(w))
            fd_w = central_diff(lambda ww: saddle_value(ww, a, b, alpha, z, s.p), w, h)
            np.testing.assert_allclose(gw, fd_w, rtol=1e-5, atol=1e-7)
            assert ga == pytest.approx(central_diff_scalar(
                lambda aa: saddle_value(w, aa, b, alpha, z, s.p), a, 1e-5), abs=1e-6)
            assert gb == pytest.approx(central_diff_scalar(
                lambda bb: saddle_value(w, a, bb, alpha, z, s.p), b, 1e-5), abs=1e-6)
            assert galpha == pytest.approx(central_diff_scalar(
                lambda al: saddle_value(w, a, b, al, z, s.p), alpha, 1e-5), abs=1e-6)

    def test_closed_form_variables_recover_pairwise_objective(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            ds = random_dataset(rng, n=30, d=4, pos_fraction=0.4)
            exact = exact_snapshot(ds)
            w = rng.normal(size=4)
            a = float(w @ exact.u)
            b = float(w @ exact.v)
            mean = np.mean([saddle_value(w, a, b, b - a, z, exact.p) for z in ds])
            assert mean == pytest.approx(
                pairwise_objective_bruteforce(w, ds), rel=1e-10)

    def test_origin_substitution(self):
        rng = np.random.default_rng(17)
        d = 4
        z = sparse_example(rng, d, 1)
        s = random_snapshot(rng, d)
        gw, ga, gb, galpha = saddle_grad(np.zeros(d), 0.0, 0.0, 0.0, z, s.p)
        np.testing.assert_allclose(gw, -2 * (1 - s.p) * to_dense(z, d), rtol=1e-12)
        assert ga == 0.0 and gb == 0.0 and galpha == 0.0

    def test_unready_snapshot_rejected(self):
        rng = np.random.default_rng(18)
        z = sparse_example(rng, 3, 1)
        for p in (0.0, 1.0):
            with pytest.raises(NotReadyError):
                saddle_grad(np.zeros(3), 0.0, 0.0, 0.0, z, p)


class TestKappa:
    def test_dataset_kappa_is_max_norm(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, n=25, d=6)
        expected = max(max(np.linalg.norm(ex.values) for ex in ds), 1.0)
        assert dataset_kappa(ds) == pytest.approx(expected, rel=1e-12)

    def test_kappa_floor_is_one(self):
        ds = Dataset.from_examples(
            [dense_example([0.1], 1), dense_example([0.05], -1)])
        assert dataset_kappa(ds) == 1.0
        snap = exact_snapshot(ds)
        assert instance_kappa(ds[0], snap) == 1.0
