"""Comparison algorithms sharing the streaming loop and trace schema.

SPAM: proximal SGD whose per-example gradient plugs the closed-form auxiliary
variables (a, b, alpha) = (w.u, w.v, w.(v-u)) of the saddle objective into
its w-partial, using moments computed over the full training set up front.
The cost of that moment pass is charged to the reported training time.

SOLAM-style: primal-dual SGD on the saddle objective with running class prior
and data radius, descending (w, a, b) and ascending alpha, with the primal
iterate projected onto the l2 ball of radius R = TrainConfig.radius and the
auxiliary variables clamped to the ranges they can take at feasible w.

Both move w along x only, by a multiple of x, then rescale it (l2 prox,
projection). FastSpamTrainer (no penalty or l2) and FastSolamTrainer store
w = sigma * r and step in O(nnz(x)). Each subclasses the dense learner it is
tested against (relative error at most 1e-9 after 10^5 steps, for the last
iterate and both averages, and divergence at the same iteration) and takes
the dense step wherever its own declines (see trainer.ScaledLearner).
run_algorithm builds and runs every single fit, spauc's included.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .data import Dataset, Example
from .objective import saddle_coefficients, saddle_grad
from .stats import StatsSnapshot, exact_snapshot
from .trainer import (FastSpaucTrainer, L1SpaucTrainer, Learner, ScaledLearner,
                      TracePoint, TrainConfig, stream_run)

ALGORITHMS = ("spauc", "spam", "solam")
UNIMPLEMENTED = ("opauc", "oam", "fsauc")


class SpamTrainer(Learner):
    """Proximal SGD against fixed full-data moments."""

    def __init__(self, dim: int, config: TrainConfig, moments: StatsSnapshot):
        self.moments = moments
        super().__init__(dim, config)

    def step(self, z: Example) -> None:
        m = self.moments
        a = float(self.w.dot(m.u))
        b = float(self.w.dot(m.v))
        alpha = b - a
        eta = self.config.schedule.step_size(self.t + 1)
        g, _, _, _ = saddle_grad(self.w, a, b, alpha, z, m.p)
        self.accept(self.config.regularizer.prox(self.w - eta * g, eta), eta)


class SolamTrainer(Learner):
    """Projected primal-dual SGD on the saddle objective with running class
    prior and data radius. It steps once both classes have been seen, with
    p = n_pos / n over the examples before the current one.

    The clamp ranges [-kR, kR] for a, b and [-2kR, 2kR] for alpha come from
    |w.u| <= k*||w|| <= k*R for the running data radius k; they are a
    reconstruction, shared step size across primal and dual variables.
    """

    def __init__(self, dim: int, config: TrainConfig):
        super().__init__(dim, config)
        self.radius = config.radius
        self.a = 0.0
        self.b = 0.0
        self.alpha = 0.0
        self.n_pos = 0
        self.n = 0
        self.kappa = 1.0

    @property
    def ready(self) -> bool:
        return 0 < self.n_pos < self.n

    def step(self, z: Example) -> None:
        self.kappa = max(self.kappa, z.norm())
        if self.ready:
            eta = self.config.schedule.step_size(self.t + 1)
            gw, ga, gb, galpha = saddle_grad(self.w, self.a, self.b, self.alpha,
                                             z, self.n_pos / self.n)
            w_new = self.w - eta * gw
            norm = float(np.linalg.norm(w_new))
            if norm > self.radius:
                w_new *= self.radius / norm
            self.accept(w_new, eta)
            self.move_auxiliaries(eta, ga, gb, galpha)
        self.n_pos += z.label == 1
        self.n += 1

    def move_auxiliaries(self, eta: float, ga: float, gb: float,
                         galpha: float) -> None:
        """Descend a and b and ascend alpha by step size eta, clamped."""
        self.a, self.b, self.alpha = clamped_auxiliaries(
            self.a, self.b, self.alpha, eta, ga, gb, galpha, self.kappa * self.radius)


def clamped_auxiliaries(a: float, b: float, alpha: float, eta: float, ga: float,
                        gb: float, galpha: float,
                        bound: float) -> tuple[float, float, float]:
    """solam's auxiliary update: a and b descend by eta * (ga, gb) into
    [-bound, bound], alpha ascends by eta * galpha into [-2 bound, 2 bound]."""
    return (min(max(a - eta * ga, -bound), bound),
            min(max(b - eta * gb, -bound), bound),
            min(max(alpha + eta * galpha, -2 * bound), 2 * bound))


class FastSpamTrainer(ScaledLearner, SpamTrainer):
    """SpamTrainer's update in O(nnz(x)) per step, for no penalty or l2.

    It keeps r.u and r.v, updated at the touched coordinates, so
    a = sigma * (r.u) and b = sigma * (r.v); the l2 prox divides sigma.
    """

    def __init__(self, dim: int, config: TrainConfig, moments: StatsSnapshot):
        if config.regularizer.kind == "l1":
            raise ValueError("the l1 prox is not a rescaling; SpamTrainer takes l1")
        super().__init__(dim, config, moments)

    def refresh(self) -> None:
        super().refresh()
        self.ru = float(self.r.dot(self.moments.u))
        self.rv = float(self.r.dot(self.moments.v))

    def fast_step(self, z: Example) -> bool:
        m = self.moments
        idx, values = z.indices, z.values
        sigma = self.sigma
        old = self.r[idx]
        a = sigma * self.ru
        b = sigma * self.rv
        eta = self.config.schedule.step_size(self.t + 1)
        c, _, _, _ = saddle_coefficients(sigma * float(old.dot(values)), a, b, b - a,
                                         z.label, m.p)
        delta = (c * values) * (eta / sigma)
        # a fold, after the write or a declined step, refreshes these
        self.ru -= float(delta.dot(m.u[idx]))
        self.rv -= float(delta.dot(m.v[idx]))
        if not self.move(idx, old, old - delta):
            return False
        self.accept_scale(self.sigma / self.config.regularizer.prox_divisor(eta), eta)
        return True


class FastSolamTrainer(ScaledLearner, SolamTrainer):
    """SolamTrainer's update in O(nnz(x)) per step: with ||r||^2 kept, the
    ball projection only multiplies sigma."""

    def fast_step(self, z: Example) -> bool:
        if not self.ready:
            return False
        eta = self.config.schedule.step_size(self.t + 1)
        idx, values = z.indices, z.values
        sigma = self.sigma
        old = self.r[idx]
        c, ga, gb, galpha = saddle_coefficients(
            sigma * float(old.dot(values)), self.a, self.b, self.alpha, z.label,
            self.n_pos / self.n)
        if not self.move(idx, old, old - (c * values) * (eta / sigma)):
            return False
        # an overflowing norm is inf, as in the dense learner, and projects
        # w to 0
        sigma = self.sigma
        norm = sigma * math.sqrt(self.rr)
        if norm > self.radius:
            sigma *= self.radius / norm
        self.accept_scale(sigma, eta)
        self.kappa = max(self.kappa, z.norm())
        self.move_auxiliaries(eta, ga, gb, galpha)
        self.n_pos += z.label == 1
        self.n += 1
        return True


def run_algorithm(algo: str, dataset: Dataset, config: TrainConfig,
                  test_data: Dataset | None = None, objective_data: Dataset | None = None
                  ) -> tuple[np.ndarray, list[TracePoint]]:
    """Run one algorithm over a dataset; returns the configured iterate and
    the evaluation trace, whose schema every algorithm shares.
    Deterministic given config.seed.

    With no penalty or l2, every algorithm takes the O(nnz(x)) step of its
    scaled learner: FastSpaucTrainer, FastSpamTrainer, FastSolamTrainer.
    With l1, whose soft-threshold is not a rescaling, spauc takes
    L1SpaucTrainer's O(d) step from the class sums and spam the dense
    SpamTrainer's; solam never reads the penalty and stays on
    FastSolamTrainer. Spam's elapsed time includes its full-data moment
    pass. A name that is not an algorithm raises ValueError.
    """
    l1 = config.regularizer.kind == "l1"
    moment_seconds = 0.0
    if algo == "spauc":
        learner = (L1SpaucTrainer if l1 else FastSpaucTrainer)(dataset.dim, config)
    elif algo == "spam":
        tick = time.perf_counter()
        moments = exact_snapshot(dataset)
        moment_seconds = time.perf_counter() - tick
        learner = (SpamTrainer if l1 else FastSpamTrainer)(dataset.dim, config, moments)
    elif algo == "solam":
        learner = FastSolamTrainer(dataset.dim, config)
    else:
        raise ValueError(unknown_algorithm_message(algo))
    return stream_run(learner, dataset, test_data, objective_data,
                      time_offset=moment_seconds)


def unknown_algorithm_message(algo: str) -> str:
    return (f"unknown algorithm {algo!r}; available: {', '.join(ALGORITHMS)} "
            f"({', '.join(UNIMPLEMENTED)} are referenced in the literature "
            f"but not implemented here)")
