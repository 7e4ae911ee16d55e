import math

import numpy as np
import pytest

from aucstream.schedules import (FastRateSchedule, LogDampedSchedule,
                                 PolySchedule, PracticalSchedule,
                                 clamp_for_theory, fast_rate_t1, theory_cap)

SAMPLE_T = [1, 2, 3, 5, 10, 100, 1000, 10_000, 100_000, 1_000_000]


def all_kinds():
    return [
        PolySchedule(eta1=0.5, theta=0.8),
        LogDampedSchedule(eta1=0.5, beta=3.0),
        FastRateSchedule(sigma_phi=0.4, sigma_f=0.4, t1=12.0),
        PracticalSchedule(mu=0.01),
    ]


class TestStepSize:
    def test_poly_arithmetic(self):
        assert PolySchedule(0.1, 1.0).step_size(10) == pytest.approx(0.01)

    def test_fastrate_arithmetic(self):
        assert FastRateSchedule(1.0, 1.0, 0.0).step_size(1) == pytest.approx(2.0 / 3.0)

    def test_logdamped_at_one(self):
        # ln(e * 1) = 1, so the damping factor vanishes at t = 1
        assert LogDampedSchedule(1.0, 3.0).step_size(1) == pytest.approx(1.0)

    def test_practical_form(self):
        assert PracticalSchedule(0.5).step_size(2) == pytest.approx(1.0)

    def test_monotone_nonincreasing_and_positive(self):
        for sched in all_kinds():
            values = [sched.step_size(t) for t in SAMPLE_T]
            assert all(v > 0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_consecutive_monotone(self):
        for sched in all_kinds():
            for t in range(1, 200):
                assert sched.step_size(t + 1) <= sched.step_size(t)

    def test_bad_index(self):
        for sched in all_kinds():
            with pytest.raises(ValueError):
                sched.step_size(0)


def test_fastrate_dominated_by_harmonic_bound():
    for sigma_phi, sigma_f, t1 in [(0.4, 0.4, 0.0), (1.0, 0.0, 7.0), (2.0, 3.0, 100.0)]:
        sched = FastRateSchedule(sigma_phi, sigma_f, t1)
        for t in SAMPLE_T:
            assert sched.step_size(t) <= 4.0 / ((t + t1 + 1) * sigma_phi) + 1e-15


class TestClamp:
    def test_cap_value(self):
        assert theory_cap(0.0, 1.0) == pytest.approx(1.0 / 32.0)
        assert theory_cap(100.0, 1.0) == pytest.approx(1.0 / 200.0)

    def test_poly_eta1_capped(self):
        sched = clamp_for_theory(PolySchedule(1.0, 1.0), a1=0.0, kappa=1.0)
        assert sched.eta1 == pytest.approx(1.0 / 32.0)

    def test_small_schedule_unchanged(self):
        sched = PolySchedule(1e-3, 0.8)
        assert clamp_for_theory(sched, 0.0, 1.0) == sched

    def test_idempotent_and_capped_first_step(self):
        cap = theory_cap(0.0, 2.0)
        for sched in all_kinds():
            once = clamp_for_theory(sched, 0.0, 2.0)
            twice = clamp_for_theory(once, 0.0, 2.0)
            assert once == twice
            assert once.step_size(1) <= cap * (1 + 1e-12)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            theory_cap(0.0, 0.5)


def test_fast_rate_t1_formula():
    c1, sigma_phi, horizon, delta = 16.0, 0.4, 1000, 0.01
    expected = 32.0 * c1 / sigma_phi * math.log(2 * horizon / delta)
    assert fast_rate_t1(c1, sigma_phi, horizon, delta) == pytest.approx(expected)
    with pytest.raises(ValueError):
        fast_rate_t1(c1, sigma_phi, 0)
    with pytest.raises(ValueError):
        fast_rate_t1(c1, sigma_phi, 10, delta=1.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [
    lambda: PolySchedule(1.0, 0.5),
    lambda: PolySchedule(1.0, 1.01),
    lambda: PolySchedule(0.0, 0.8),
    lambda: LogDampedSchedule(1.0, 2.0),
    lambda: FastRateSchedule(0.0, 0.0, 0.0),
    lambda: FastRateSchedule(1.0, -0.1, 0.0),
    lambda: FastRateSchedule(1.0, 0.0, -1.0),
    lambda: PracticalSchedule(0.0),
    lambda: PolySchedule(NAN, 0.8),
    lambda: LogDampedSchedule(NAN, 3.0),
    lambda: LogDampedSchedule(1.0, NAN),
    lambda: FastRateSchedule(NAN, 0.0, 0.0),
    lambda: FastRateSchedule(1.0, NAN, 0.0),
    lambda: FastRateSchedule(1.0, 0.0, NAN),
    lambda: PracticalSchedule(NAN),
    lambda: fast_rate_t1(16.0, NAN, 1000),
    lambda: PolySchedule(INF, 0.8),
    lambda: LogDampedSchedule(INF, 3.0),
    lambda: LogDampedSchedule(1.0, INF),
    lambda: FastRateSchedule(INF, 0.0, 0.0),
    lambda: FastRateSchedule(1.0, INF, 0.0),
    lambda: FastRateSchedule(1.0, 0.0, INF),
    lambda: PracticalSchedule(INF),
])
def test_invalid_parameters(bad):
    with pytest.raises(ValueError):
        bad()
