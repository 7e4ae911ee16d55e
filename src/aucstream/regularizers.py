"""Penalty terms with value, subgradient, exact proximal map and the
constants consumed by step-size theory.

Convention: the squared-norm penalty is lam * ||w||_2^2 with no 1/2 factor,
so its self-bounding constant is a1 = 4*lam and its strong-convexity modulus
is sigma_omega = 2*lam. The halved form lam*||w||^2/2 is representable as
l2(lam/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PENALTIES = ("none", "l2", "l1")


@dataclass(frozen=True)
class Regularizer:
    """Penalty descriptor: one of none, l2(lam) = lam*||w||_2^2,
    l1(lam) = lam*||w||_1."""

    kind: str
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in PENALTIES:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind != "none" and not 0 < self.lam < np.inf:
            raise ValueError(f"{self.kind} regularizer needs a finite lam > 0, got {self.lam}")

    @property
    def a1(self) -> float:
        """Self-bounding constant: ||subgrad(w)||^2 <= a1 * value(w) + a2."""
        return 4.0 * self.lam if self.kind == "l2" else 0.0

    @property
    def a2(self) -> float:
        """Per-coordinate offset: for l1 the subgradient satisfies
        ||subgrad(w)||^2 <= a2 * nnz(w) <= a2 * d."""
        return self.lam**2 if self.kind == "l1" else 0.0

    @property
    def sigma_omega(self) -> float:
        """Strong-convexity modulus (0 for none and l1)."""
        return 2.0 * self.lam if self.kind == "l2" else 0.0

    def value(self, w: np.ndarray) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "l2":
            return self.lam * float(w @ w)
        return self.lam * float(np.sum(np.abs(w)))

    def subgrad(self, w: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return np.zeros_like(w)
        if self.kind == "l2":
            return 2.0 * self.lam * w
        # sign(0) = 0: a valid subgradient choice, kept for determinism
        return self.lam * np.sign(w)

    def prox(self, v: np.ndarray, eta: float) -> np.ndarray:
        """argmin_w eta*value(w) + 0.5*||w - v||^2, in closed form."""
        if eta <= 0:
            raise ValueError(f"prox step must be positive, got {eta}")
        if self.kind == "l1":
            return soft_threshold(v, eta * self.lam)
        return v / self.prox_divisor(eta)

    def prox_divisor(self, eta: float) -> float:
        """The number prox(v, eta) divides v by: 1 + 2*eta*lam for l2, 1 for
        none. The l1 prox is not a rescaling and has none."""
        if self.kind == "l1":
            raise ValueError("the l1 prox is not a rescaling")
        return 1.0 + 2.0 * eta * self.lam if self.kind == "l2" else 1.0


def soft_threshold(v: np.ndarray, thresh: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The l1 prox: each entry of v moved thresh toward 0, stopping at 0,
    computed as v - clip(v, -thresh, thresh). It equals
    sign(v) * max(|v| - thresh, 0) with == on every entry, infinities and
    NaN included; only the sign of a zeroed entry may differ. The result
    goes to `out` when given, which must not be v; otherwise to a new array.
    """
    # the method, not np.clip: the same ufunc without the dispatch wrapper
    clipped = v.clip(-thresh, thresh, out=out)
    return np.subtract(v, clipped, out=clipped)


def none_reg() -> Regularizer:
    return Regularizer("none")


def l2(lam: float) -> Regularizer:
    return Regularizer("l2", lam)


def l1(lam: float) -> Regularizer:
    return Regularizer("l1", lam)
