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
from .objective import require_prior, saddle_grad, saddle_terms
from .stats import StatsSnapshot, exact_snapshot
from .trainer import (DivergenceError, FastSpaucTrainer, L1SpaucTrainer, Learner,
                      ScaledLearner, TracePoint, TrainConfig, check_run_data,
                      stream_run)

UNIMPLEMENTED = ("opauc", "oam", "fsauc")


class SpamTrainer(Learner):
    """Proximal SGD against fixed full-data moments, whose p must be in (0, 1)."""

    def __init__(self, dim: int, config: TrainConfig, moments: StatsSnapshot):
        require_prior(moments.p)
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
        c, _, _, _ = saddle_terms(sigma * float(old.dot(values)), a, b, b - a,
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
        c, ga, gb, galpha = saddle_terms(
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


# algorithm -> (its learner with no penalty or l2, its learner with l1).
# With no penalty or l2 each takes its scaled learner's O(nnz(x)) step; with
# l1 spauc steps in O(d) from the class sums and spam takes the dense step.
# solam does not read the penalty, so it has one learner for both.
LEARNERS = {
    "spauc": (FastSpaucTrainer, L1SpaucTrainer),
    "spam": (FastSpamTrainer, SpamTrainer),
    "solam": (FastSolamTrainer, FastSolamTrainer),
}
ALGORITHMS = tuple(LEARNERS)


def run_algorithm(algo: str, dataset: Dataset, config: TrainConfig,
                  test_data: Dataset | None = None, objective_data: Dataset | None = None
                  ) -> tuple[np.ndarray, list[TracePoint]]:
    """Run one algorithm over a dataset; returns the configured iterate and
    the evaluation trace, whose schema every algorithm shares.
    Deterministic given config.seed.

    Routing: the learner is LEARNERS[algo], the first of the pair with no
    penalty or l2 and the second with l1, whose soft-threshold is not a
    rescaling. A name that is not an algorithm raises ValueError.

    Compaction: every learner starts at w = 0 and moves w only along the
    example, the class sums or the moments, all 0 outside the columns the
    training rows hold, and its rescales, projections and soft-thresholds
    keep a 0 weight at 0. So when some of the d columns never occur in the
    training rows, the learner runs on the d_eff that do (compact): on the
    training rows renumbered 0..d_eff-1 (Dataset.on_columns), and on the
    test and objective data narrowed through the same map, which drops
    their entries in other columns, whose weight is 0. An l1 step then
    costs O(d_eff), not O(d). The model, and a DivergenceError's
    last_weight, are scattered back into d entries, +0.0 outside the
    training columns: the full-d learner's model, up to the order in which
    its d-long sums add the same terms. When every column occurs, the fit
    runs at d unchanged.

    The trace's elapsed time includes the compaction of the training rows
    and spam's full-data moment pass.
    """
    if algo not in LEARNERS:
        raise ValueError(unknown_algorithm_message(algo))
    make = LEARNERS[algo][config.regularizer.kind == "l1"]
    tick = time.perf_counter()
    fit, cols = compact(dataset)
    moments = (exact_snapshot(fit),) if algo == "spam" else ()
    setup_seconds = time.perf_counter() - tick
    learner = make(fit.dim, config, *moments)

    def widen(w: np.ndarray) -> np.ndarray:
        if cols is None:
            return w
        full = np.zeros(dataset.dim)
        full[cols] = w
        return full

    if cols is not None:  # refused as stream_run would refuse the data at d
        check_run_data(dataset, test_data, objective_data)
        test_data, objective_data = (
            fit if data is dataset else None if data is None else data.on_columns(cols)
            for data in (test_data, objective_data))
    try:
        w, trace = stream_run(learner, fit, test_data, objective_data,
                              time_offset=setup_seconds)
    except DivergenceError as exc:
        exc.last_weight = widen(exc.last_weight)
        raise
    return widen(w), trace


def compact(dataset: Dataset) -> tuple[Dataset, np.ndarray | None]:
    """The training rows on their own columns: (dataset.on_columns(cols),
    cols) with cols the columns that hold an entry, or (dataset, None) when
    every column does. The check costs O(nnz) and a d-byte mask."""
    used = np.zeros(dataset.dim, dtype=bool)
    used[dataset.indices] = True
    if used.all():
        return dataset, None
    cols = np.flatnonzero(used)
    return dataset.on_columns(cols), cols


def unknown_algorithm_message(algo: str) -> str:
    return (f"unknown algorithm {algo!r}; available: {', '.join(ALGORITHMS)} "
            f"({', '.join(UNIMPLEMENTED)} are referenced in the literature "
            f"but not implemented here)")
