import numpy as np
import pytest

from aucstream.regularizers import Regularizer, l1, l2, none_reg, soft_threshold

ALL_KINDS = [none_reg(), l2(0.7), l1(0.4)]


class TestValues:
    def test_none(self):
        assert none_reg().value(np.array([3.0, -4.0])) == 0.0

    def test_l2(self):
        assert l2(0.5).value(np.array([1.0, -2.0])) == pytest.approx(2.5)

    def test_l1(self):
        assert l1(2.0).value(np.array([1.0, -2.0])) == pytest.approx(6.0)

    def test_zero_at_origin(self):
        for reg in ALL_KINDS:
            assert reg.value(np.zeros(4)) == 0.0


class TestSubgradients:
    def test_l2_scaling_identity(self):
        lam = 0.3
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.normal(size=6)
            g = l2(lam).subgrad(w)
            np.testing.assert_allclose(g, 2 * lam * w, rtol=1e-15)
            # ||2 lam w||^2 = 4 lam * (lam ||w||^2) exactly
            assert float(g @ g) == pytest.approx(4 * lam * l2(lam).value(w), rel=1e-12)

    def test_l1_sign_convention(self):
        g = l1(0.9).subgrad(np.array([3.0, 0.0, -1.0]))
        np.testing.assert_array_equal(g, [0.9, 0.0, -0.9])

    def test_none(self):
        np.testing.assert_array_equal(none_reg().subgrad(np.ones(3)), np.zeros(3))

    def test_self_bounding(self):
        # a2 is a per-coordinate constant, so the offset scales with d
        rng = np.random.default_rng(1)
        d = 5
        for reg in ALL_KINDS:
            for _ in range(200):
                w = 3.0 * rng.normal(size=d)
                g = reg.subgrad(w)
                assert float(g @ g) <= reg.a1 * reg.value(w) + reg.a2 * d + 1e-12


class TestConstants:
    def test_none(self):
        reg = none_reg()
        assert (reg.a1, reg.a2, reg.sigma_omega) == (0.0, 0.0, 0.0)

    def test_l2(self):
        reg = l2(0.25)
        assert (reg.a1, reg.a2, reg.sigma_omega) == (1.0, 0.0, 0.5)

    def test_l1(self):
        reg = l1(3.0)
        assert (reg.a1, reg.a2, reg.sigma_omega) == (0.0, 9.0, 0.0)


class TestProx:
    def test_none_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(none_reg().prox(v, 0.3), v)

    def test_l2_shrinkage(self):
        # first-order optimality: 2*eta*lam*w + w - v = 0 => w = v / (1 + 2*eta*lam)
        out = l2(1.0).prox(np.array([2.0, -4.0]), eta=0.5)
        np.testing.assert_allclose(out, [1.0, -2.0], rtol=1e-15)

    def test_l1_soft_threshold(self):
        reg = l1(2.0)
        np.testing.assert_allclose(reg.prox(np.array([3.0]), 0.5), [2.0])
        np.testing.assert_allclose(reg.prox(np.array([0.5]), 0.5), [0.0])
        np.testing.assert_allclose(reg.prox(np.array([-3.0]), 0.5), [-2.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_l1_prox_equals_the_sign_form(self, seed):
        # v - clip(v, -t, t) against sign(v) * max(|v| - t, 0) entry by
        # entry with ==: on entries at +-t, +-0, +-inf, NaN, subnormals and
        # values near t, for t from 1e-320 to 1e300; only the sign of a
        # zeroed entry may differ, which == does not see
        rng = np.random.default_rng([40, seed])
        tiny = np.finfo(float).smallest_subnormal
        for thresh in 10.0 ** rng.uniform(-320, 300, size=50):
            near = thresh * (1.0 + rng.normal(size=50)
                             * 10.0 ** rng.uniform(-16, 1, size=50))
            v = np.concatenate([
                [thresh, -thresh, 0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                 np.nextafter(thresh, 0.0), np.nextafter(thresh, np.inf)],
                near, -near, tiny * rng.integers(-2**20, 2**20, size=50),
                rng.normal(size=50) * 10.0 ** rng.uniform(-323, 308, size=50)])
            with np.errstate(invalid="ignore"):
                want = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
                got = l1(thresh).prox(v, 1.0)
                scratch = np.empty_like(v)
                in_place = soft_threshold(v, thresh, out=scratch)
            assert in_place is scratch and in_place.tobytes() == got.tobytes()
            assert np.array_equal(got, want, equal_nan=True)

    def test_optimality_gap_probes(self):
        rng = np.random.default_rng(2)
        for reg in ALL_KINDS:
            for _ in range(10):
                v = rng.normal(size=5)
                eta = float(rng.uniform(0.01, 2.0))
                w_hat = reg.prox(v, eta)
                best = eta * reg.value(w_hat) + 0.5 * float(np.sum((w_hat - v) ** 2))
                for _ in range(100):
                    w = w_hat + rng.normal(size=5) * rng.choice([1e-3, 0.1, 1.0])
                    trial = eta * reg.value(w) + 0.5 * float(np.sum((w - v) ** 2))
                    assert best <= trial + 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for reg in ALL_KINDS:
            for _ in range(1000):
                u = rng.normal(size=4)
                v = rng.normal(size=4)
                eta = float(rng.uniform(0.01, 3.0))
                lhs = np.linalg.norm(reg.prox(u, eta) - reg.prox(v, eta))
                assert lhs <= np.linalg.norm(u - v) * (1 + 1e-12) + 1e-15

    def test_divisor_is_the_rescaling(self):
        # the scaled learners divide their scale by prox_divisor instead of
        # calling prox on the vector
        v = np.array([3.0, -0.7, 1e-3])
        for reg, want in ((none_reg(), 1.0), (l2(0.25), 1.3)):
            assert reg.prox_divisor(0.6) == pytest.approx(want, rel=1e-15)
            assert np.array_equal(reg.prox(v, 0.6), v / reg.prox_divisor(0.6))
        with pytest.raises(ValueError, match="not a rescaling"):
            l1(0.25).prox_divisor(0.6)

    def test_bad_eta(self):
        for reg in ALL_KINDS:
            with pytest.raises(ValueError):
                reg.prox(np.zeros(2), 0.0)
            with pytest.raises(ValueError):
                reg.prox(np.zeros(2), -1.0)


def test_bad_construction():
    with pytest.raises(ValueError):
        l2(0.0)
    with pytest.raises(ValueError):
        l1(-0.5)
    with pytest.raises(ValueError):
        Regularizer("elastic", 0.1)


@pytest.mark.parametrize("make", [l2, l1], ids=["l2", "l1"])
def test_nan_weight_refused(make):
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam > 0"):
            make(weight)
