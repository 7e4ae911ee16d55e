"""Comparison algorithms sharing the streaming loop and trace schema.

SPAM: proximal SGD whose per-example gradient plugs the closed-form auxiliary
variables (a, b, alpha) = (w.u, w.v, w.(v-u)) of the saddle objective into
its w-partial, using moments computed over the full training set up front.
The cost of that moment pass is charged to the reported training time.

SOLAM-style: primal-dual SGD on the saddle objective with running class prior
and data radius, descending (w, a, b) and ascending alpha, with the primal
iterate projected onto an l2 ball of radius R and the auxiliary variables
clamped to the ranges they can take at feasible w.
"""

from __future__ import annotations

import time

import numpy as np

from .data import Dataset, Example
from .objective import saddle_grad
from .stats import StatsSnapshot, exact_snapshot
from .trainer import Learner, TrainConfig, stream_run

ALGORITHMS = ("spauc", "spam", "solam")
UNIMPLEMENTED = ("opauc", "oam", "fsauc")


class SpamTrainer(Learner):
    """Proximal SGD against fixed full-data moments."""

    def __init__(self, dim: int, config: TrainConfig, moments: StatsSnapshot):
        super().__init__(dim, config)
        self.moments = moments

    def step(self, z: Example) -> None:
        m = self.moments
        a = float(self.w @ m.u)
        b = float(self.w @ m.v)
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

    def __init__(self, dim: int, config: TrainConfig, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(dim, config)
        self.radius = radius
        self.a = 0.0
        self.b = 0.0
        self.alpha = 0.0
        self.n_pos = 0
        self.n = 0
        self.kappa = 1.0

    def step(self, z: Example) -> None:
        self.kappa = max(self.kappa, z.norm())
        if 0 < self.n_pos < self.n:
            eta = self.config.schedule.step_size(self.t + 1)
            gw, ga, gb, galpha = saddle_grad(self.w, self.a, self.b, self.alpha,
                                             z, self.n_pos / self.n)
            w_new = self.w - eta * gw
            norm = float(np.linalg.norm(w_new))
            if norm > self.radius:
                w_new *= self.radius / norm
            self.accept(w_new, eta)
            bound = self.kappa * self.radius
            self.a = min(max(self.a - eta * ga, -bound), bound)
            self.b = min(max(self.b - eta * gb, -bound), bound)
            self.alpha = min(max(self.alpha + eta * galpha, -2 * bound), 2 * bound)
        self.n_pos += z.label == 1
        self.n += 1


def run_baseline(algo: str, dataset: Dataset, config: TrainConfig,
                 radius: float = 100.0,
                 test_data: Dataset | None = None,
                 objective_data: Dataset | None = None):
    """Train a baseline over the dataset; same contract and trace schema as
    `trainer.train`. SPAM's elapsed time includes its full-data moment pass."""
    if algo == "spam":
        tick = time.perf_counter()
        moments = exact_snapshot(dataset)
        moment_seconds = time.perf_counter() - tick
        learner = SpamTrainer(dataset.dim, config, moments)
        return stream_run(learner, dataset, config, test_data, objective_data,
                          time_offset=moment_seconds)
    if algo == "solam":
        learner = SolamTrainer(dataset.dim, config, radius)
        return stream_run(learner, dataset, config, test_data, objective_data)
    raise ValueError(unknown_algorithm_message(algo))


def unknown_algorithm_message(algo: str) -> str:
    return (f"unknown algorithm {algo!r}; available: {', '.join(ALGORITHMS)} "
            f"({', '.join(UNIMPLEMENTED)} are referenced in the literature "
            f"but not implemented here)")
