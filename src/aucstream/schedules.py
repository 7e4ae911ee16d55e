"""Step-size schedules: pure functions of the 1-based iteration index.

Four kinds are provided: polynomial decay eta1 * t^-theta, a log-damped
square-root decay eta1 * (t * ln(e t)^beta)^-1/2, the fast-rate harmonic
schedule 2 / (sigma_phi * t + 2*sigma_f + sigma_phi * t1) for objectives with
quadratic functional growth, and the practical tuning form 2 / (mu * t + 1).
All are positive and non-increasing in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def _check_t(t: int) -> None:
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")


@dataclass(frozen=True)
class PolySchedule:
    """eta_t = eta1 * t^-theta with theta in (1/2, 1]."""

    eta1: float
    theta: float

    def __post_init__(self):
        if not 0 < self.eta1 < math.inf:
            raise ValueError(f"eta1 must be positive and finite, got {self.eta1}")
        if not 0.5 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (1/2, 1], got {self.theta}")

    def step_size(self, t: int) -> float:
        _check_t(t)
        return self.eta1 * t ** (-self.theta)

    def clamped(self, cap: float) -> "PolySchedule":
        return replace(self, eta1=min(self.eta1, cap))


@dataclass(frozen=True)
class LogDampedSchedule:
    """eta_t = eta1 * (t * ln(e t)^beta)^-1/2 with beta > 2."""

    eta1: float
    beta: float

    def __post_init__(self):
        if not 0 < self.eta1 < math.inf:
            raise ValueError(f"eta1 must be positive and finite, got {self.eta1}")
        if not 2.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 2, got {self.beta}")

    def step_size(self, t: int) -> float:
        _check_t(t)
        return self.eta1 / math.sqrt(t * math.log(math.e * t) ** self.beta)

    def clamped(self, cap: float) -> "LogDampedSchedule":
        return replace(self, eta1=min(self.eta1, cap))


@dataclass(frozen=True)
class FastRateSchedule:
    """eta_t = 2 / (sigma_phi * t + 2*sigma_f + sigma_phi * t1).

    sigma_phi is the quadratic-growth modulus of the full objective, sigma_f
    the part not owed to the regularizer, and t1 a warm-start offset keeping
    early steps small.
    """

    sigma_phi: float
    sigma_f: float = 0.0
    t1: float = 0.0

    def __post_init__(self):
        if not 0 < self.sigma_phi < math.inf:
            raise ValueError(f"sigma_phi must be positive and finite, got {self.sigma_phi}")
        if not 0 <= self.sigma_f < math.inf:
            raise ValueError(f"sigma_f must be finite and >= 0, got {self.sigma_f}")
        if not 0 <= self.t1 < math.inf:
            raise ValueError(f"t1 must be finite and >= 0, got {self.t1}")

    def step_size(self, t: int) -> float:
        _check_t(t)
        return 2.0 / (self.sigma_phi * t + 2.0 * self.sigma_f + self.sigma_phi * self.t1)

    def clamped(self, cap: float) -> "FastRateSchedule":
        # raise t1 just enough that the first (largest) step obeys the cap
        needed = (2.0 / cap - 2.0 * self.sigma_f) / self.sigma_phi - 1.0
        return replace(self, t1=max(self.t1, needed, 0.0))


@dataclass(frozen=True)
class PracticalSchedule:
    """eta_t = 2 / (mu * t + 1), the form used for hyperparameter tuning."""

    mu: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    def step_size(self, t: int) -> float:
        _check_t(t)
        return 2.0 / (self.mu * t + 1.0)

    def clamped(self, cap: float) -> "PracticalSchedule":
        needed = 2.0 / cap - 1.0
        return replace(self, mu=max(self.mu, needed))


Schedule = PolySchedule | LogDampedSchedule | FastRateSchedule | PracticalSchedule
SCHEDULES = {"poly": PolySchedule, "logdamped": LogDampedSchedule,
             "fastrate": FastRateSchedule, "practical": PracticalSchedule}


def theory_cap(a1: float, kappa: float) -> float:
    """Largest step size the convergence analysis allows:
    1 / (2 * max{a1, 16 * kappa^2})."""
    if kappa < 1.0:
        raise ValueError(f"kappa is defined as >= 1, got {kappa}")
    return 1.0 / (2.0 * max(a1, 16.0 * kappa**2))


def clamp_for_theory(schedule: Schedule, a1: float, kappa: float) -> Schedule:
    """Return the schedule with its first (largest) value capped at the
    theory cap; later values inherit the bound by monotonicity. Idempotent."""
    return schedule.clamped(theory_cap(a1, kappa))


def fast_rate_t1(c1: float, sigma_phi: float, horizon: int, delta: float = 0.01) -> float:
    """Warm-start offset 32 * c1 / sigma_phi * log(2 * horizon / delta) that
    makes the fast-rate guarantee hold over a planned horizon."""
    if not sigma_phi > 0:
        raise ValueError(f"sigma_phi must be positive, got {sigma_phi}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return 32.0 * c1 / sigma_phi * math.log(2.0 * horizon / delta)
