"""Streaming proximal training loop for the pairwise AUC surrogate.

Each arriving example is scored against statistics built from strictly
earlier examples only: the gradient step happens first, the example is
absorbed into the running statistics afterwards. Until one example of each
class has been seen, examples only feed the statistics (warm-up) and no
proximal step is taken.

The model is the last iterate or one weighted running average of the
iterates, chosen by the configuration; only that one is maintained. avg1
weights step k by its step size, avg2 by k + t1 + 1 (the weighting under
which the fast-rate schedule has its guarantee).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Example, stream_order
from .metrics import auc
from .objective import pairwise_objective_fast, surrogate_grad
from .regularizers import Regularizer
from .schedules import SCHEDULES, FastRateSchedule, Schedule
from .stats import ClassStats

AVERAGES = ("last", "avg1", "avg2")


class DivergenceError(RuntimeError):
    """Training produced a non-finite iterate. Carries the step index and the
    last finite weight vector."""

    def __init__(self, iteration: int, last_weight: np.ndarray):
        super().__init__(f"training diverged at iteration {iteration}")
        self.iteration = iteration
        self.last_weight = last_weight


@dataclass(frozen=True)
class TrainConfig:
    regularizer: Regularizer
    schedule: Schedule
    epochs: int = 1
    seed: int = 0
    average: str = "last"
    eval_every: int = 1000
    t1: float | None = None  # averaging offset; defaults to the schedule's

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.average not in AVERAGES:
            raise ValueError(f"average must be one of {AVERAGES}, got {self.average!r}")

    def resolved_t1(self) -> float:
        if self.t1 is not None:
            return self.t1
        if isinstance(self.schedule, FastRateSchedule):
            return self.schedule.t1
        return 0.0


@dataclass
class TracePoint:
    """One evaluation record: cumulative step index, training seconds so far
    (evaluation time excluded), and optional quality measures."""

    step: int
    elapsed_sec: float
    test_auc: float | None = None
    objective: float | None = None


class IterateAverages:
    """Incrementally maintained running average of the iterates, of the one
    kind in AVERAGES the configuration asks for: "avg1" weights iterate k by
    its step size, "avg2" by k + t1 + 1, and "last" keeps nothing.

    A dense learner add()s each whole iterate. A scaled learner, whose
    iterate is sigma * r with r changing at a few coordinates per step, adds
    lazily (W. Xu, arXiv:1107.2490): add_scaled() grows `mass`, the running
    sum of weight * sigma, and coordinate j still owes num[j] the amount
    r[j] * (mass - mark[j]) for the iterates since r[j] last changed.
    touch() settles coordinates before r changes there, flush() settles all
    of them and restarts the mass at 0.
    """

    MASS_LIMIT = 4096.0

    def __init__(self, dim: int, kind: str, t1: float):
        self.kind = kind
        self.t1 = t1
        self.num = None if kind == "last" else np.zeros(dim)
        self.den = 0.0
        self.mass = 0.0
        self.mark = None if kind == "last" else np.zeros(dim)

    def weight(self, eta: float, step: int) -> float:
        return eta if self.kind == "avg1" else step + self.t1 + 1.0

    def add(self, w: np.ndarray, eta: float, step: int) -> None:
        if self.num is None:
            return
        weight = self.weight(eta, step)
        self.num += weight * w
        self.den += weight

    def add_scaled(self, r: np.ndarray, sigma: float, eta: float, step: int) -> None:
        """Add iterate `step`, sigma * r, after touch() of every coordinate
        of r that changed since the previous iterate. The mass restarts
        (an O(d) flush) once it exceeds MASS_LIMIT times the new term, so
        each term is added with a relative rounding error of at most
        MASS_LIMIT * 2^-53."""
        if self.num is None:
            return
        weight = self.weight(eta, step)
        term = weight * sigma
        if self.mass > self.MASS_LIMIT * term:
            self.flush(r)
        self.mass += term
        self.den += weight

    def touch(self, idx: np.ndarray, r_idx: np.ndarray) -> None:
        """Settle the coordinates idx, where r holds r_idx, before r changes
        there. O(len(idx))."""
        if self.num is None:
            return
        self.num[idx] += r_idx * (self.mass - self.mark[idx])
        self.mark[idx] = self.mass

    def flush(self, r: np.ndarray) -> None:
        """Settle every coordinate of r, O(d)."""
        if self.num is None:
            return
        self.num += r * (self.mass - self.mark)
        self.mark.fill(0.0)
        self.mass = 0.0

    def get(self, fallback: np.ndarray) -> np.ndarray:
        """The average, or a copy of `fallback` (the last iterate) for "last"
        and before the first step. A scaled learner flush()es first."""
        if self.den == 0.0:
            return fallback.copy()
        return self.num / self.den


class Learner:
    """Iterate bookkeeping shared by the streaming learners: the weights w,
    the count t of accepted steps and the configured iterate average.

    A subclass implements step(z): it computes a candidate iterate and hands
    it to accept().
    """

    def __init__(self, dim: int, config: TrainConfig):
        self.config = config
        self.w = np.zeros(dim)
        self.t = 0
        self.averages = IterateAverages(dim, config.average, config.resolved_t1())

    def step(self, z: Example) -> None:
        raise NotImplementedError

    def accept(self, w_new: np.ndarray, eta: float) -> None:
        """Make w_new iterate t+1, taken with step size eta. A non-finite
        w_new raises DivergenceError carrying the last finite iterate."""
        if not np.isfinite(w_new).all():
            raise DivergenceError(self.t + 1, self.w)
        self.averages.add(w_new, eta, self.t + 1)
        self.w = w_new
        self.t += 1

    def model(self) -> np.ndarray:
        """The configured iterate: the last one or a weighted running average."""
        return self.averages.get(self.w)


class ScaledLearner(Learner):
    """A Learner that stores its iterate as w = sigma * r (the scale trick of
    L. Bottou, "Stochastic Gradient Descent Tricks", 2012), for learners
    whose step changes w at the nonzero coordinates of one example and
    rescales all of it: such a step costs O(nnz(x)) whatever the dimension.

    A subclass's step(z) reads r at the example's coordinates, updates its
    own kept scalars (dot products of r with fixed vectors) for the move,
    hands the new values to assign(), and then, reading sigma again, the
    new scale to accept_scale(). The move is computed as
    (c * x) * (eta / sigma), the dense learner's order of operations once
    sigma is 1. refresh() recomputes the kept scalars exactly.

    fold() multiplies sigma into r and refreshes, in O(d). It runs when
    - the scale drops below FOLD_BELOW (0 included), before it underflows;
    - the squares of the r values that steps replaced or wrote since the
      last fold exceed CHURN_LIMIT times ||r||^2, so an incrementally kept
      dot product carries a rounding error of a few CHURN_LIMIT * 2^-52
      relative to the norms, also after r shrank from a large transient;
      an infinite ||r||^2 is recomputed as the dense ||w||^2 this way;
    - a step meets a non-finite value: the step is then taken again from
      the numbers the dense learner would use, and only a non-finite
      value there is a divergence.
    All three are rare. The finiteness check looks only at the new values
    of r: the scale never exceeds 1, so coordinates a step does not touch
    can only shrink.
    """

    FOLD_BELOW = 2.0**-200
    CHURN_LIMIT = 1e4

    @property
    def w(self) -> np.ndarray:
        """The iterate sigma * r, materialised in O(d)."""
        return self.sigma * self.r

    @w.setter
    def w(self, w: np.ndarray) -> None:
        # restarts the iterate; only valid while the average is empty
        self.r = np.array(w, dtype=np.float64)
        self.sigma = 1.0
        self.refresh()

    def refresh(self) -> None:
        """Recompute ||r||^2 and the subclass's kept scalars exactly, O(d)."""
        self.rr = float(self.r.dot(self.r))
        self.churn = 0.0

    def fold(self) -> None:
        """Multiply sigma into r and refresh, O(d)."""
        self.averages.flush(self.r)
        self.r *= self.sigma
        self.sigma = 1.0
        self.refresh()

    def assign(self, idx: np.ndarray, old: np.ndarray, new: np.ndarray) -> bool:
        """Change r at coordinates idx from old to new for iterate t+1, and
        return True.

        If a new value is not finite, nothing changes but a fold, and the
        return is False: the caller takes the step again from the folded
        state, where a non-finite value raises DivergenceError carrying the
        last finite iterate.
        """
        gain = float(new.dot(new))
        # a finite sum of squares has finite terms; an infinite one may
        # still come from finite values, which only the full check tells
        if not math.isfinite(gain) and not np.isfinite(new).all():
            if self.sigma == 1.0 and self.churn == 0.0:  # already folded
                raise DivergenceError(self.t + 1, self.w)
            self.fold()
            return False
        self.averages.touch(idx, old)
        self.r[idx] = new
        loss = float(old.dot(old))
        self.rr += gain - loss
        self.churn += gain + loss
        if not self.churn <= self.CHURN_LIMIT * self.rr < math.inf:  # NaN too
            self.fold()
        return True

    def accept_scale(self, sigma: float, eta: float) -> None:
        """Make sigma * r iterate t+1, taken with step size eta."""
        self.sigma = sigma
        if sigma < self.FOLD_BELOW:
            self.fold()
        self.averages.add_scaled(self.r, self.sigma, eta, self.t + 1)
        self.t += 1

    def model(self) -> np.ndarray:
        self.averages.flush(self.r)
        return self.averages.get(self.w)


class SpaucTrainer(Learner):
    """Stochastic proximal learner on the streaming surrogate.

    step() implements: eta = schedule(t+1); g = surrogate gradient at the
    current weights under the pre-example snapshot; w <- prox(w - eta*g, eta);
    then absorb the example.
    """

    def __init__(self, dim: int, config: TrainConfig):
        super().__init__(dim, config)
        self.stats = ClassStats(dim)

    def step(self, z: Example) -> None:
        if self.stats.ready:
            eta = self.config.schedule.step_size(self.t + 1)
            g = surrogate_grad(self.w, z, self.stats.snapshot())
            self.accept(self.config.regularizer.prox(self.w - eta * g, eta), eta)
        self.stats.update(z)


def stream_run(learner: Learner, dataset: Dataset, config: TrainConfig,
               test_data: Dataset | None = None,
               objective_data: Dataset | None = None,
               time_offset: float = 0.0) -> tuple[np.ndarray, list[TracePoint]]:
    """Drive a learner over epochs * n examples in shuffled stream order.

    The training data must hold both classes, and evaluation data may not be
    wider than it. The clock is paused while evaluating trace points, so
    elapsed_sec measures training work only (plus any preprocessing passed in
    as time_offset). A final trace point is always recorded.
    """
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise ValueError("training data must contain both classes")
    for name, data in (("test", test_data), ("objective", objective_data)):
        if data is not None and data.dim > dataset.dim:
            raise ValueError(f"{name} data dimension {data.dim} exceeds "
                             f"training dimension {dataset.dim}")
    trace: list[TracePoint] = []
    last_traced = -1

    def record(elapsed: float) -> None:
        nonlocal last_traced
        w = learner.model()
        point = TracePoint(learner.t, elapsed)
        if test_data is not None:
            point.test_auc = auc(test_data.scores(w), test_data.labels)
        if objective_data is not None:
            point.objective = pairwise_objective_fast(w, objective_data)
        trace.append(point)
        last_traced = learner.t

    elapsed = time_offset
    tick = time.perf_counter()
    # a step that overflows is caught by the learner's finiteness check and
    # reported as a DivergenceError, so numpy's warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i in stream_order(dataset, epoch, config.seed):
                learner.step(dataset[i])
                if learner.t > 0 and learner.t % config.eval_every == 0 \
                        and learner.t != last_traced:
                    elapsed += time.perf_counter() - tick
                    record(elapsed)
                    tick = time.perf_counter()
        elapsed += time.perf_counter() - tick
        if learner.t != last_traced:
            record(elapsed)
    return learner.model(), trace


def train(dataset: Dataset, config: TrainConfig,
          test_data: Dataset | None = None,
          objective_data: Dataset | None = None) -> tuple[np.ndarray, list[TracePoint]]:
    """Run the proximal learner over a dataset; returns the configured iterate
    and the evaluation trace. Deterministic given config.seed."""
    learner = SpaucTrainer(dataset.dim, config)
    return stream_run(learner, dataset, config, test_data, objective_data)


def describe_config(config: TrainConfig) -> dict:
    """JSON-friendly echo of a training configuration."""
    sched = config.schedule
    kind = next(name for name, cls in SCHEDULES.items() if type(sched) is cls)
    return {
        "regularizer": dataclasses.asdict(config.regularizer),
        "schedule": {"kind": kind, **dataclasses.asdict(sched)},
        "epochs": config.epochs,
        "seed": config.seed,
        "average": config.average,
        "eval_every": config.eval_every,
        "t1": config.t1,
    }


MODEL_FORMAT_VERSION = 1


def save_model(path: str, w: np.ndarray, config_echo: dict | None = None) -> None:
    """Persist a weight vector as a versioned JSON document.

    Fields: format_version (int), d (int), weights (dense list of floats),
    config (free-form echo of the training configuration).
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "d": int(len(w)),
        "weights": [float(x) for x in w],
        "config": config_echo or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> tuple[np.ndarray, dict]:
    """Read a model document; returns (weights, config echo).

    Raises ValueError unless the document is an object of the current format
    version with an integer d >= 1 and d finite numbers as weights."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model document is not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    d, weights = doc.get("d"), doc.get("weights")
    if type(d) is not int or d < 1:
        raise ValueError(f"model dimension d must be an integer >= 1, got {d!r}")
    # bool is an int subclass and None would load as NaN: accept numbers only;
    # the bound rejects NaN, infinities and integers beyond float range
    if not isinstance(weights, list) or any(
            type(x) not in (int, float) or not abs(x) <= sys.float_info.max
            for x in weights):
        raise ValueError("model weights must be a list of finite numbers")
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != d:
        raise ValueError("model document is inconsistent: d != len(weights)")
    return w, doc.get("config", {})
