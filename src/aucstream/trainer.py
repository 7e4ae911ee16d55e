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

SpaucTrainer's step costs O(d + nnz(x)); it defines the update and is the
reference the other two learners are tested against (relative error at
most 1e-9 after 10^5 steps, and divergence at the same iteration). Both
subclass it and take its step wherever their own step declines.
FastSpaucTrainer (no penalty or l2) steps in O(nnz(x)) whatever the
dimension; L1SpaucTrainer (l1) still steps in O(d), as the soft-threshold
touches every weight, but from the class sums in reused buffers, with no
d-sized allocation. baselines.run_algorithm picks the learner of a run
and runs it on the columns the training rows hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Example, stream_order
from .metrics import auc
from .objective import pairwise_objective_fast, surrogate_grad, surrogate_moves
from .regularizers import Regularizer, soft_threshold
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
    radius: float = 100.0  # solam's l2-ball radius, read by solam only

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.average not in AVERAGES:
            raise ValueError(f"average must be one of {AVERAGES}, got {self.average!r}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.t1 is not None and not 0 <= self.t1 < math.inf:
            raise ValueError(f"t1 must be finite and >= 0, got {self.t1}")

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

    A dense learner add()s each whole iterate and has no parts, so no lazy
    state. A scaled learner's iterate is a sum of parts coef * V: sigma * r,
    and for spauc also A * S+ and B * S-, where each vector V changes at a
    few coordinates per step and each coef is a scalar. It adds lazily
    (W. Xu, arXiv:1107.2490): add_scaled() grows each part's running mass,
    the sum of weight * coef, and coordinate j still owes num[j] the amount
    V[j] * (mass - mark[j]) for the iterates since V[j] last changed.
    touch() settles coordinates of one part before its vector changes
    there, flush() settles all of them, O(d).

    Part 0 is the scale sigma > 0. It can shrink by 2^200 between folds while
    r grows by as much, and a mass that outgrows its new terms would scale
    their rounding error up by r. So once the scale's mass exceeds
    EPOCH_LIMIT times the new term, the mass closes an epoch and restarts at
    0, in O(1), and a coordinate owes the mass since the start of the epoch
    of its mark, less the mark. An epoch's mass is at most about EPOCH_LIMIT
    times its last term, and sigma only shrinks between flushes, so the
    rounding error a coordinate picks up stays within about
    EPOCH_LIMIT * 2^-53 times the weighted iterate it was last touched in,
    and no step settles every coordinate. The other parts' coefficients
    are signed and their vectors are not scaled up by 1/sigma, so their
    masses are plain sums.
    """

    EPOCH_LIMIT = 4096.0

    def __init__(self, dim: int, kind: str, t1: float, parts: int = 1):
        self.kind = kind
        self.t1 = t1
        self.num = None if kind == "last" else np.zeros(dim)
        self.den = 0.0
        self.mass = [0.0] * parts
        if self.num is not None and parts:
            self.mark = [np.zeros(dim) for _ in range(parts)]
            self.epoch = np.zeros(dim, dtype=np.int64)  # part 0's epoch at the mark
        # since[e]: part 0's mass from the start of epoch e to the start of
        # the current epoch, the last one (so its entry is 0)
        self.since = np.zeros(1)

    def weight(self, eta: float, step: int) -> float:
        return eta if self.kind == "avg1" else step + self.t1 + 1.0

    def add(self, w: np.ndarray, eta: float, step: int,
            scratch: np.ndarray | None = None) -> None:
        """Add the whole iterate w; `scratch`, if given, is a d-sized
        buffer the term is built in instead of a new array."""
        if self.num is None:
            return
        weight = self.weight(eta, step)
        self.num += np.multiply(w, weight, out=scratch)
        self.den += weight

    def add_scaled(self, coefs: tuple[float, ...], eta: float, step: int) -> None:
        """Add iterate `step`, the sum of coefs[i] * V_i, after touch() of
        every coordinate of every V_i that changed since the previous
        iterate. coefs[0] is the scale, > 0."""
        if self.num is None:
            return
        weight = self.weight(eta, step)
        term = weight * coefs[0]
        if self.mass[0] > self.EPOCH_LIMIT * term:
            self.since = np.concatenate((self.since + self.mass[0], [0.0]))
            self.mass[0] = 0.0
        self.mass[0] += term
        for part in range(1, len(coefs)):
            self.mass[part] += weight * coefs[part]
        self.den += weight

    def owed(self, part: int, idx) -> np.ndarray:
        """The mass coordinates idx of `part` owe since their marks."""
        mass, mark = self.mass[part], self.mark[part][idx]
        if part or self.since.size == 1:
            return mass - mark
        owed = self.since.take(self.epoch[idx])
        owed += mass
        owed -= mark
        return owed

    def touch(self, idx: np.ndarray, values: np.ndarray, part: int = 0) -> None:
        """Settle the coordinates idx of `part`, whose vector holds `values`
        there, before it changes there. O(len(idx))."""
        if self.num is None:
            return
        self.num[idx] += values * self.owed(part, idx)
        self.mark[part][idx] = self.mass[part]
        if not part and self.since.size > 1:
            self.epoch[idx] = self.since.size - 1

    def flush(self, vectors: tuple[np.ndarray, ...]) -> None:
        """Settle every coordinate of every part, whose vectors are
        `vectors`, and restart the masses at 0. O(d)."""
        if self.num is None:
            return
        for part, v in enumerate(vectors):
            mark = self.mark[part]
            if part or self.since.size == 1:  # in place: d-sized temporaries page-fault
                owed = np.subtract(self.mass[part], mark, out=mark)
            else:
                owed = self.owed(part, slice(None))
            owed *= v
            self.num += owed
            mark.fill(0.0)
            self.mass[part] = 0.0
        if self.since.size > 1:
            self.epoch.fill(0)
            self.since = np.zeros(1)

    def get(self) -> np.ndarray | None:
        """The average, or None for "last" and before the first step, where
        the model is the last iterate. A scaled learner flush()es first."""
        if self.den == 0.0:
            return None
        return self.num / self.den


class Learner:
    """Iterate bookkeeping shared by the streaming learners: the weights w,
    the count t of accepted steps and the configured iterate average.

    A subclass implements step(z): it computes a candidate iterate and hands
    it to accept(). PARTS is the number of lazily averaged parts of a
    scaled iterate (see IterateAverages); a dense iterate has none.
    """

    PARTS = 0

    def __init__(self, dim: int, config: TrainConfig):
        self.config = config
        self.w = np.zeros(dim)
        self.t = 0
        self.averages = IterateAverages(dim, config.average, config.resolved_t1(),
                                        self.PARTS)

    @property
    def ready(self) -> bool:
        """Whether the next example gets a step; False during warm-up."""
        return True

    def step(self, z: Example) -> None:
        raise NotImplementedError

    def accept(self, w_new: np.ndarray, eta: float) -> None:
        """Make w_new iterate t+1, taken with step size eta. A non-finite
        w_new raises DivergenceError carrying the last finite iterate."""
        # a finite sum of squares has finite terms; an infinite one may
        # still come from finite values, which only the full check tells
        if not math.isfinite(w_new.dot(w_new)) and not np.isfinite(w_new).all():
            raise DivergenceError(self.t + 1, self.w)
        self.averages.add(w_new, eta, self.t + 1)
        self.w = w_new
        self.t += 1

    def model(self) -> np.ndarray:
        """The configured iterate, the last one or a weighted running
        average, in an array the learner does not keep."""
        average = self.averages.get()
        return self.w.copy() if average is None else average


class ScaledLearner(Learner):
    """A Learner that stores its iterate as w = sigma * r (the scale trick of
    L. Bottou, "Stochastic Gradient Descent Tricks", 2012), for learners
    whose step changes w at the nonzero coordinates of one example and
    rescales all of it: such a step costs O(nnz(x)) whatever the dimension.

    A subclass also subclasses the dense learner it stands in for, its
    reference: class FastX(ScaledLearner, X). Its fast_step(z) reads r at
    the example's coordinates, updates its kept scalars (dot products of r
    with fixed vectors) for the move, writes the new values with move(),
    and hands the new scale to accept_scale(). The move is computed as
    (c * x) * (eta / sigma), the reference's order of operations once sigma
    is 1. refresh() recomputes the kept scalars exactly.

    A fast step may decline, returning False with r unchanged: during
    warm-up, at a non-finite value, or where the subclass's bounds fail.
    step() then folds and takes the reference's own step, in O(d), so
    DivergenceError is raised exactly where the reference raises it. Before
    the first step there is nothing to fold, and the kept scalars are
    refreshed only once the learner is ready, so a warm-up example costs
    O(nnz(x)).

    fold() multiplies sigma into r and refreshes, in O(d). It runs when
    - the scale drops below FOLD_BELOW (0 included), before it underflows;
    - the squares of the r values that steps replaced or wrote since the
      last fold exceed CHURN_LIMIT times ||r||^2, so an incrementally kept
      dot product carries a rounding error of a few CHURN_LIMIT * 2^-52
      relative to the norms, also after r shrank from a large transient;
      an infinite ||r||^2 is recomputed as the dense ||w||^2 this way;
    - a fast step declines.
    The finiteness check looks only at the new values of r: the scale
    never exceeds 1, so coordinates a step does not touch can only shrink.
    """

    PARTS = 1
    FOLD_BELOW = 2.0**-200
    CHURN_LIMIT = 1e4

    @property
    def w(self) -> np.ndarray:
        """The iterate sigma * r, materialised in O(d)."""
        return self.sigma * self.r

    @w.setter
    def w(self, w: np.ndarray) -> None:
        # restarts the iterate; valid once the lazy average is settled
        # (after a fold)
        self.r = np.array(w, dtype=np.float64)
        self.sigma = 1.0
        self.refresh()

    def step(self, z: Example) -> None:
        if not self.fast_step(z):
            # before the first step sigma is 1 and spauc's A and B are 0, so
            # there is nothing to fold; a warm-up example changes only
            # spauc's class sums, which the kept scalars read once it ends
            if self.t:
                self.fold()
            super().step(z)
            if self.ready:
                self.refresh()

    def fast_step(self, z: Example) -> bool:
        """Take the step on z in O(nnz(x)) and return True, or decline and
        return False with r unchanged."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Recompute ||r||^2 and the subclass's kept scalars exactly, O(d)."""
        self.rr = float(self.r.dot(self.r))
        self.churn = 0.0

    def vectors(self) -> tuple[np.ndarray, ...]:
        """The lazily averaged vectors of the iterate's parts, r first."""
        return (self.r,)

    def coefs(self) -> tuple[float, ...]:
        """The coefficients of the parts, sigma first."""
        return (self.sigma,)

    def fold(self) -> None:
        """Multiply sigma into r and refresh, O(d)."""
        self.averages.flush(self.vectors())
        self.r *= self.sigma
        self.sigma = 1.0
        self.refresh()

    def churned(self) -> bool:
        """Whether the churn rule (or a non-finite ||r||^2) asks for a fold."""
        return not self.churn <= self.CHURN_LIMIT * self.rr < math.inf  # NaN too

    def move(self, idx: np.ndarray, old: np.ndarray, new: np.ndarray) -> bool:
        """Change r at coordinates idx from old to new for iterate t+1 and
        return True, or return False with nothing changed if a new value is
        not finite."""
        gain = float(new.dot(new))
        # a finite sum of squares has finite terms; an infinite one may
        # still come from finite values, which only the full check tells
        if not math.isfinite(gain) and not np.isfinite(new).all():
            return False
        self.write(idx, old, new, gain, float(old.dot(old)))
        if self.churned():
            self.fold()
        return True

    def write(self, idx: np.ndarray, old: np.ndarray, new: np.ndarray,
              gain: float, loss: float) -> None:
        """Change r at coordinates idx from old to new, whose sums of
        squares are loss and gain, keeping ||r||^2 and the churn."""
        self.averages.touch(idx, old)
        self.r[idx] = new
        self.rr += gain - loss
        self.churn += gain + loss

    def accept_scale(self, sigma: float, eta: float) -> None:
        """Make sigma * r iterate t+1, taken with step size eta."""
        self.sigma = sigma
        if sigma < self.FOLD_BELOW:
            self.fold()
        self.advance(eta)

    def advance(self, eta: float) -> None:
        """Count the current iterate as iterate t+1, taken with step size eta."""
        self.averages.add_scaled(self.coefs(), eta, self.t + 1)
        self.t += 1

    def model(self) -> np.ndarray:
        self.averages.flush(self.vectors())
        average = self.averages.get()
        return self.w if average is None else average  # w is built afresh


class SpaucTrainer(Learner):
    """Stochastic proximal learner on the streaming surrogate.

    step() implements: eta = schedule(t+1); g = surrogate gradient at the
    current weights under the pre-example snapshot; w <- prox(w - eta*g, eta);
    then absorb the example.
    """

    def __init__(self, dim: int, config: TrainConfig):
        self.stats = ClassStats(dim)
        super().__init__(dim, config)

    @property
    def ready(self) -> bool:
        return self.stats.ready

    def step(self, z: Example) -> None:
        if self.ready:
            eta = self.config.schedule.step_size(self.t + 1)
            g = surrogate_grad(self.w, z, self.stats.snapshot())
            self.accept(self.config.regularizer.prox(self.w - eta * g, eta), eta)
        self.stats.update(z)


class FastSpaucTrainer(ScaledLearner, SpaucTrainer):
    """SpaucTrainer's update in O(nnz(x)) per step, for no penalty or l2.

    The iterate is stored as w = sigma * r + A * S+ + B * S-, where S+ and
    S- are the class sums of the ClassStats, which change only at the
    coordinates of the absorbed example, and sigma, A and B are scalars.
    With u = S+ / n+ and v = S- / n-, the gradient's class-mean part
    k * (v - u) - c * u (or - c * v) moves only A and B, its c * x part
    moves r at the example's coordinates, and the l2 prox divides sigma, A
    and B. Absorbing x into its class sum S_y would move w by A_y * x; r
    takes -A_y / sigma * x at the same coordinates, in the same write as
    the gradient's move, so w stays put. The kept scalars r.S+, r.S-,
    S+.S+, S-.S- and S+.S- (and ||r||^2) give w.u and w.v in O(1) and
    change in O(nnz(x)).

    ScaledLearner's folds here set r = w, A = B = 0 and sigma = 1. The
    step is taken fast only when
    - both classes have been seen;
    - the parts would not outgrow the new iterate they sum to,
      sigma^2 ||r||^2 + A^2 ||S+||^2 + B^2 ||S-||^2 <= CHURN_LIMIT ||w||^2
      with ||w||^2 from the kept scalars: the parts can cancel, and the
      kept scalars are exact only relative to the parts;
    - a bound on the numbers the dense step computes,
      (1 + ||w||)(1 + ||x|| + ||u|| + ||v||)^2 (1 + eta), stays below
      SAFE_LIMIT, far below the largest float: A and B move every
      coordinate of w, so the finiteness of a step cannot be read from the
      touched coordinates;
    - every number the fast step computes is finite.
    Otherwise the step declines and SpaucTrainer's step is taken from the
    folded iterate (see ScaledLearner), which also absorbs the example.

    l1 takes L1SpaucTrainer: the soft-threshold of sigma * r + A * S+ +
    B * S- does not separate into the parts, so the lazy l1 updates of
    Langford, Li and Zhang (JMLR 2009) do not apply.
    """

    PARTS = 3
    SAFE_LIMIT = 2.0**1000

    def __init__(self, dim: int, config: TrainConfig):
        if config.regularizer.kind == "l1":
            raise ValueError("the l1 prox is not a rescaling; L1SpaucTrainer takes l1")
        super().__init__(dim, config)

    @property
    def w(self) -> np.ndarray:
        """The iterate sigma * r + A * S+ + B * S-, materialised in O(d)."""
        w = self.sigma * self.r
        if self.A:
            w += self.A * self.stats.sum_pos
        if self.B:
            w += self.B * self.stats.sum_neg
        return w

    @w.setter
    def w(self, w: np.ndarray) -> None:
        # as ScaledLearner's, with A = B = 0
        self.A = self.B = 0.0
        ScaledLearner.w.fset(self, w)

    def vectors(self) -> tuple[np.ndarray, ...]:
        return (self.r, self.stats.sum_pos, self.stats.sum_neg)

    def coefs(self) -> tuple[float, ...]:
        return (self.sigma, self.A, self.B)

    def refresh(self) -> None:
        super().refresh()
        sp, sn = self.stats.sum_pos, self.stats.sum_neg
        self.rsp = float(self.r.dot(sp))
        self.rsn = float(self.r.dot(sn))
        self.spsp = float(sp.dot(sp))
        self.snsn = float(sn.dot(sn))
        self.spsn = float(sp.dot(sn))

    def fold(self) -> None:
        """Set r = w, sigma = 1 and A = B = 0, and refresh, O(d)."""
        self.averages.flush(self.vectors())
        self.w = self.w

    @classmethod
    def tangled(cls, sigma: float, a: float, b: float, rr: float, rsp: float,
                rsn: float, spsp: float, snsn: float, spsn: float) -> bool:
        """Whether the parts of sigma * r + a * S+ + b * S- outgrew the
        iterate, given the kept scalars (see the class docstring)."""
        parts = sigma * sigma * rr + a * a * spsp + b * b * snsn
        norm2 = parts + 2.0 * (sigma * a * rsp + sigma * b * rsn + a * b * spsn)
        return not parts <= cls.CHURN_LIMIT * norm2  # NaN too

    def fast_step(self, z: Example) -> bool:
        """Take the step and absorb z in O(nnz(x)) and return True, or
        return False with nothing changed (see the class docstring)."""
        if not self.ready:
            return False
        stats = self.stats
        eta = self.config.schedule.step_size(self.t + 1)
        idx, x = z.indices, z.values
        sigma, a, b = self.sigma, self.A, self.B
        n_pos, n_neg = stats.n_pos, stats.n_neg
        xx = float(x.dot(x))
        w_norm = (sigma * math.sqrt(abs(self.rr)) + abs(a) * math.sqrt(abs(self.spsp))
                  + abs(b) * math.sqrt(abs(self.snsn)))
        scale = (1.0 + math.sqrt(xx) + math.sqrt(abs(self.spsp)) / n_pos
                 + math.sqrt(abs(self.snsn)) / n_neg)
        if not (1.0 + w_norm) * scale * scale * (1.0 + eta) < self.SAFE_LIMIT:
            return False
        old, sp, sn = self.r[idx], stats.sum_pos[idx], stats.sum_neg[idx]
        x_r, x_sp, x_sn = float(x.dot(old)), float(x.dot(sp)), float(x.dot(sn))
        p = n_pos / stats.t
        wx = sigma * x_r + a * x_sp + b * x_sn
        wu = (sigma * self.rsp + a * self.spsp + b * self.spsn) / n_pos
        wv = (sigma * self.rsn + a * self.spsn + b * self.snsn) / n_neg
        c, alpha, beta = surrogate_moves(wx, wu, wv, p, n_pos, n_neg, eta, z.label)
        a += alpha
        b += beta
        positive = z.label == 1
        # r moves by -f * x: the gradient's c * x, then the absorb's
        # compensation
        f = (eta * c + (a if positive else b)) / sigma
        new = old - f * x
        gain, loss = float(new.dot(new)), float(old.dot(old))
        rsp, rsn = self.rsp - f * x_sp, self.rsn - f * x_sn
        spsp, snsn, spsn = self.spsp, self.snsn, self.spsn
        if positive:
            rsp += x_r - f * xx
            spsp += 2.0 * x_sp + xx
            spsn += x_sn
        else:
            rsn += x_r - f * xx
            snsn += 2.0 * x_sn + xx
            spsn += x_sp
        divisor = self.config.regularizer.prox_divisor(eta)
        sigma, a, b = sigma / divisor, a / divisor, b / divisor
        # a finite sum has finite terms; a sum that overflows from finite
        # terms only declines the step, as do parts that would outgrow the
        # new iterate
        if not math.isfinite(wx + wu + wv + a + b + gain + rsp + rsn + spsp + snsn
                             + spsn) or self.tangled(sigma, a, b, self.rr + gain - loss,
                                                     rsp, rsn, spsp, snsn, spsn):
            return False
        self.write(idx, old, new, gain, loss)
        self.averages.touch(idx, sp if positive else sn, 1 if positive else 2)
        # ClassStats.update's sums, from the values gathered above
        if positive:
            stats.sum_pos[idx] = sp + x
            stats.n_pos += 1
        else:
            stats.sum_neg[idx] = sn + x
        stats.t += 1
        self.rsp, self.rsn, self.spsp, self.snsn, self.spsn = rsp, rsn, spsp, snsn, spsn
        self.sigma, self.A, self.B = sigma, a, b
        if sigma < self.FOLD_BELOW or self.churned():
            self.fold()
        self.advance(eta)
        return True


class L1SpaucTrainer(SpaucTrainer):
    """SpaucTrainer's update for the l1 penalty, from the class sums and in
    reused buffers: O(d + nnz(x)) per step, as the dense step, but with no
    d-sized allocation and under half its reads and writes of d-vectors.

    With (c, alpha, beta) from surrogate_moves, w - eta * g is
    w + alpha * S+ + beta * S- - eta * c * x over the class sums S+ and
    S-. One matrix-vector product with the stats' (2, d) sums gives w.S+
    and w.S-, a second builds alpha * S+ + beta * S- in a spare buffer,
    and the soft-threshold writes the new iterate over the old one. So w
    is overwritten by later steps; a caller that keeps it keeps a copy.

    The sums form reads w.S+ = n+ * w.u, which can overflow where w.u does
    not. The step is taken this way only when a bound on its numbers and
    the dense step's, (1 + ||w||)(1 + ||x|| + ||S+|| + ||S-||)^2 (1 + eta),
    stays below FastSpaucTrainer.SAFE_LIMIT, far below the largest float,
    so that every number of both is finite. The bound takes ||S+-|| as the
    sum of the norms of the examples absorbed into it, and ||w|| as
    w_bound: the exact norm wherever w is set, grown by each sums step to
    w_bound + |alpha| ||S+|| + |beta| ||S-|| + eta |c| ||x||, which bounds
    ||v|| by the triangle inequality and so the soft-thresholded iterate.
    No step pays a pass over w for its norm; a loose bound only declines
    sooner, and an overflow to inf fails it. A declined step is
    SpaucTrainer's, so DivergenceError falls on the same iteration as there.
    """

    def __init__(self, dim: int, config: TrainConfig):
        if config.regularizer.kind != "l1":
            raise ValueError("L1SpaucTrainer takes the l1 penalty only")
        super().__init__(dim, config)
        self.spare = np.zeros(dim)
        self.moves = np.zeros(2)  # the step's (alpha, beta)
        self.norm_sums = [0.0, 0.0]  # bounds on ||S+|| and ||S-||

    @property
    def w(self) -> np.ndarray:
        return self._w

    @w.setter
    def w(self, w: np.ndarray) -> None:
        self._w = w
        self.w_bound = math.sqrt(w.dot(w))  # a bound on ||w||, exact here

    def step(self, z: Example) -> None:
        x_norm = z.norm()
        if not (self.ready and self.sums_step(z, x_norm)):
            super().step(z)
        self.norm_sums[z.label != 1] += x_norm

    def sums_step(self, z: Example, x_norm: float) -> bool:
        """Take the step and absorb z, whose norm is x_norm, and return
        True; or return False with nothing changed (see the class
        docstring)."""
        stats = self.stats
        idx, x = z.indices, z.values
        eta = self.config.schedule.step_size(self.t + 1)
        norm_pos, norm_neg = self.norm_sums
        scale = 1.0 + x_norm + norm_pos + norm_neg
        if not (1.0 + self.w_bound) * scale * scale * (1.0 + eta) \
                < FastSpaucTrainer.SAFE_LIMIT:
            return False
        w, v, moves = self._w, self.spare, self.moves
        n_pos, n_neg = stats.n_pos, stats.n_neg
        w_sp, w_sn = stats.sums.dot(w).tolist()
        c, alpha, beta = surrogate_moves(float(w[idx].dot(x)), w_sp / n_pos,
                                         w_sn / n_neg, n_pos / stats.t, n_pos,
                                         n_neg, eta, z.label)
        moves[0], moves[1] = alpha, beta
        np.dot(moves, stats.sums, out=v)
        v += w
        v[idx] -= (eta * c) * x
        soft_threshold(v, eta * self.config.regularizer.lam, out=w)
        # ||soft_threshold(v)|| <= ||v||, bounded term by term
        self.w_bound += abs(alpha) * norm_pos + abs(beta) * norm_neg \
            + eta * abs(c) * x_norm
        self.averages.add(w, eta, self.t + 1, scratch=v)
        self.t += 1
        stats.update(z)
        return True


def stream_run(learner: Learner, dataset: Dataset, test_data: Dataset | None = None,
               objective_data: Dataset | None = None,
               time_offset: float = 0.0) -> tuple[np.ndarray, list[TracePoint]]:
    """Drive a learner over epochs * n examples in shuffled stream order,
    with the epochs, seed and eval_every of learner.config.

    The training data must hold both classes, and evaluation data may not be
    wider than it. The clock is paused while evaluating trace points, so
    elapsed_sec measures training work only (plus any preprocessing passed in
    as time_offset). A final trace point is always recorded.
    """
    check_run_data(dataset, test_data, objective_data)
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

    config = learner.config
    # each step's Example is the view dataset[i] gives, its bounds and label
    # read through memoryviews, which yield Python ints as lists of them
    # would, without holding n of them
    cuts, labels = memoryview(dataset.indptr), memoryview(dataset.labels)
    indices, values = dataset.indices, dataset.values
    elapsed = time_offset
    tick = time.perf_counter()
    # a step that overflows is caught by the learner's finiteness check and
    # reported as a DivergenceError, so numpy's warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i in memoryview(stream_order(len(dataset), epoch, config.seed)):
                lo, hi = cuts[i], cuts[i + 1]
                learner.step(Example(indices[lo:hi], values[lo:hi], labels[i]))
                if learner.t > 0 and learner.t % config.eval_every == 0 \
                        and learner.t != last_traced:
                    elapsed += time.perf_counter() - tick
                    record(elapsed)
                    tick = time.perf_counter()
        elapsed += time.perf_counter() - tick
        if learner.t != last_traced:
            record(elapsed)
    return learner.model(), trace


def check_run_data(dataset: Dataset, test_data: Dataset | None = None,
                   objective_data: Dataset | None = None) -> None:
    """Refuse, with ValueError, training data without both classes and
    evaluation data wider than the training data."""
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise ValueError("training data must contain both classes")
    for name, data in (("test", test_data), ("objective", objective_data)):
        if data is not None and data.dim > dataset.dim:
            raise ValueError(f"{name} data dimension {data.dim} exceeds "
                             f"training dimension {dataset.dim}")


def describe_config(config: TrainConfig) -> dict:
    """JSON-friendly echo of a training configuration."""
    kind = next(name for name, cls in SCHEDULES.items() if type(config.schedule) is cls)
    return {**dataclasses.asdict(config),
            "schedule": {"kind": kind, **dataclasses.asdict(config.schedule)}}


MODEL_FORMAT_VERSION = 1
# weights encoded per json.dumps call by save_model: one call for a whole
# 10^4-weight model raised the peak resident set of `train` by 1 MB, as the
# encoder holds every piece of the text at once
SAVE_BLOCK = 1024


def save_model(path: str, w: np.ndarray, config_echo: dict | None = None) -> None:
    """Persist a weight vector as a versioned JSON document.

    Fields: format_version (int), d (int), weights (dense list of floats),
    config (free-form echo of the training configuration). The bytes are
    json.dump's, but the weights are encoded SAVE_BLOCK at a time by
    json.dumps, whose C encoder is several times faster than json.dump's
    pure-Python one.
    """
    w = np.asarray(w, dtype=np.float64)
    head = json.dumps({"format_version": MODEL_FORMAT_VERSION, "d": len(w),
                       "weights": []})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-2])  # up to and with the weights' "["
        for start in range(0, len(w), SAVE_BLOCK):
            # one block of Python floats at a time, not all d of them
            block = json.dumps(w[start:start + SAVE_BLOCK].tolist())[1:-1]
            fh.write(", " + block if start else block)
        fh.write('], "config": ' + json.dumps(config_echo or {}) + "}\n")


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
    # bool is an int subclass and None would load as NaN: accept numbers only
    # (the set of types is built at C speed, with no per-weight Python code);
    # NaN, infinities and integers beyond float range are refused after the
    # conversion
    refusal = "model weights must be a list of finite numbers"
    if not isinstance(weights, list) or not set(map(type, weights)) <= {int, float}:
        raise ValueError(refusal)
    try:
        w = np.asarray(weights, dtype=np.float64)
    except OverflowError:
        raise ValueError(refusal) from None
    if not np.isfinite(w).all():
        raise ValueError(refusal)
    if len(w) != d:
        raise ValueError("model document is inconsistent: d != len(weights)")
    return w, doc.get("config", {})
