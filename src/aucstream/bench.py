"""Benchmark and tuning harness: multi-algorithm AUC-versus-time runs with
repeats, CSV traces, aggregate reports, and cross-validated random grid
search over step-size and penalty parameters.

Every entry point takes the run's TrainConfig and reads the penalty kind,
epochs, seed, trace interval, average and solam radius from it; a tuning
point (config_from_params) changes only the schedule's mu, the penalty
weight and, when it has one, the radius.

Cross-validation takes several problems at once (benchmark passes every
repeat of an algorithm, the tune verb one problem) and fits the candidates
of many folds in one lockstep pass (see lockstep). A fold's candidates
share its rows and stream order and differ only in scalars; the folds read
their own rows, in their own stream order, from the one dataset by row id,
so no fold's fit rows are copied. The iterates are one (folds, K, d)
array, and each step does the d-vector work once for all of them; its
scalars come from array forms of the learners' formulas, which pick each
candidate's inputs by its example's label and then compute once, bit for
bit as the scalar formula would for that label. A pass holds
O(folds * K * d) floats, so cross_validate packs consecutive folds into
passes of at most LOCKSTEP_MAX_CELLS iterate entries. On the tune-dense-d8
data (d = 8; 4 repeats x 3 folds x 4 candidates, so 48 per algorithm) that
is one pass, and under the CLI's default protocol (20 repeats x 5 folds x
15 candidates) one pass at d = 8 and four folds per pass at d = 1000.
A lockstep step costs O(d * C), so it is taken only up to LOCKSTEP_MAX_DIM;
above it each candidate is fitted alone by run_algorithm. A fold in warm-up
or past its stream's end takes a step of size 0, which changes no bit of
it. A candidate whose squared norm after any step is NaN or reaches
FastSpaucTrainer.SAFE_LIMIT leaves the lockstep and is refitted alone too,
so whether it diverges, and scores 0, is decided as for a single run.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, data
from .baselines import ALGORITHMS, run_algorithm, unknown_algorithm_message, widen
from .data import Dataset, gather_rows, split, split_rows, stream_order
from .regularizers import soft_threshold
from .schedules import PracticalSchedule
from .stats import exact_snapshot
from .trainer import DivergenceError, FastSpaucTrainer, TracePoint, TrainConfig

TRACE_HEADER = ["iter", "elapsed_sec", "test_auc", "objective"]
REPORT_HEADER = ["algo", "dataset", "auc_mean", "auc_std",
                 "time_per_pass_mean", "time_per_pass_std"]

# tuning intervals: mu over 10^{-7..-2.5} (half-decade steps), the penalty
# weight over 10^{-5..0}, the l2-ball radius over 10^{-1..5}
DEFAULT_MU_GRID = [float(10.0**e) for e in np.arange(-7.0, -2.25, 0.5)]
DEFAULT_LAMBDA_GRID = [10.0**e for e in range(-5, 1)]
DEFAULT_RADIUS_GRID = [10.0**e for e in range(-1, 6)]

OBJECTIVE_SUBSAMPLE_CAP = 5000

# cross_validate fits its candidates in lockstep up to this dimension and
# one at a time above it: a lockstep step costs O(d * C) for C candidates,
# while C fast learners cost O(nnz(x)) each plus their per-call overhead
# (measured with the 4 candidates of one fold)
LOCKSTEP_MAX_DIM = 1000
# a lockstep pass holds at most this many iterate entries, d x C. At
# d = 1000, cross-validating spam over 4 repeats x 5 folds x 15 candidates
# (one epoch, one BLAS thread, 2-core Xeon VM) took, on dense rows, 1.9 s
# with one fold per pass, 1.25 s at this bound (4 folds) and 1.15 s with
# 17; with 50 nonzeros per row 1.19 s, 0.69 s and 0.70 s, but 17 folds per
# pass raised the peak resident set by 3 MB (spauc by 4 MB)
LOCKSTEP_MAX_CELLS = 2**16


def write_trace(path, trace: list[TracePoint]) -> None:
    """Trace CSV: one row per evaluation point, full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for pt in trace:
            writer.writerow([
                pt.step,
                repr(pt.elapsed_sec),
                "" if pt.test_auc is None else repr(pt.test_auc),
                "" if pt.objective is None else repr(pt.objective),
            ])


def objective_subsample(dataset: Dataset, seed: int,
                        cap: int = OBJECTIVE_SUBSAMPLE_CAP) -> Dataset:
    """Deterministic subsample used for objective traces, keeping evaluation
    O(cap * nnz) on large data."""
    if len(dataset) <= cap:
        return dataset
    idx = np.sort(np.random.default_rng([seed, 104729]).choice(
        len(dataset), size=cap, replace=False))
    return dataset.subset(idx)


def config_from_params(params: dict, config: TrainConfig) -> TrainConfig:
    """The run's config at one tuning point: `mu` sets the practical
    schedule, `lambda` the weight of the config's penalty unless that is
    none, and `radius`, when the point has one, replaces the config's."""
    reg = config.regularizer
    if reg.kind != "none":
        reg = replace(reg, lam=params["lambda"])
    return replace(config, regularizer=reg, schedule=PracticalSchedule(mu=params["mu"]),
                   radius=params.get("radius", config.radius))


@dataclass(frozen=True)
class TuneGrid:
    """Random grid search plan: ordered candidate lists per parameter, how
    many grid points to sample, and the fold count."""

    params: dict[str, list[float]]
    pair_sample_size: int = 15
    folds: int = 5

    def __post_init__(self):
        if not self.params or any(len(v) == 0 for v in self.params.values()):
            raise ValueError("every tuned parameter needs a non-empty candidate list")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.pair_sample_size < 1 or self.pair_sample_size > self.size:
            raise ValueError(
                f"pair_sample_size must be in [1, {self.size}], got {self.pair_sample_size}")

    @property
    def size(self) -> int:
        return math.prod(len(v) for v in self.params.values())

    def points(self) -> list[dict[str, float]]:
        keys = list(self.params)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(self.params[k] for k in keys))]

    def sample(self, seed: int) -> list[dict[str, float]]:
        """pair_sample_size grid points drawn without replacement."""
        points = self.points()
        rng = np.random.default_rng([seed, 15485863])
        chosen = rng.choice(len(points), size=self.pair_sample_size, replace=False)
        return [points[i] for i in chosen]


def protocol_grid(reg_kind: str, pairs: int, folds: int,
                  tune_radius: bool = False) -> TuneGrid:
    """The tuning protocol's grid: mu, then lambda when a penalty is in play,
    then the l2-ball radius when asked (solam under `tune`), sampling
    min(pairs, grid size) points. solam does not read the penalty, so its
    candidates that differ only in lambda are the same run."""
    params = {"mu": list(DEFAULT_MU_GRID)}
    if reg_kind != "none":
        params["lambda"] = list(DEFAULT_LAMBDA_GRID)
    if tune_radius:
        params["radius"] = list(DEFAULT_RADIUS_GRID)
    size = math.prod(len(v) for v in params.values())
    return TuneGrid(params, pair_sample_size=min(pairs, size), folds=folds)


def _fold_indices(labels: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Class-stratified folds of the rows with these labels: the shuffled
    positives, then the shuffled negatives, dealt round-robin, so class
    counts and fold sizes each differ by at most one across folds."""
    rng = np.random.default_rng([seed, 2971])
    order = np.concatenate([rng.permutation(np.flatnonzero(labels == 1)),
                            rng.permutation(np.flatnonzero(labels == -1))])
    return [order[k::folds] for k in range(folds)]


def _class_counts(labels: np.ndarray) -> tuple[int, int]:
    """The numbers of positive and negative examples among these labels."""
    n_pos = int(np.count_nonzero(labels == 1))
    return n_pos, len(labels) - n_pos


# Array forms of scalar formulas, equal to their sources bit for bit on
# every input, infinities and NaN included (tests/test_lockstep.py). A
# formula that branches on the label takes a mask `positive`, picks each
# entry's label-dependent inputs with np.where and computes once, in the
# source's order of operations.

def _step_sizes(mu, t):
    """PracticalSchedule(mu).step_size(t)."""
    return 2.0 / (mu * t + 1.0)


def _prox_divisors(eta, lam):
    """Regularizer("l2", lam).prox_divisor(eta)."""
    return 1.0 + 2.0 * eta * lam


def _clamp(x, lo, hi):
    """min(max(x, lo), hi): the builtin max(x, lo) is lo only if lo > x,
    and min(x, hi) is hi only if hi < x."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _clamp_bounds(bound):
    """The ranges of baselines.clamped_auxiliaries with bound `bound`, as
    one array: -bound and bound (a, b), -2 bound and 2 bound (alpha)."""
    return np.stack([-bound, bound, -2 * bound, 2 * bound])


def _clamped_auxiliaries(a, b, alpha, eta, ga, gb, galpha, bounds):
    """baselines.clamped_auxiliaries, with bounds = _clamp_bounds(bound)."""
    lo, hi, lo2, hi2 = bounds
    return (_clamp(a - eta * ga, lo, hi), _clamp(b - eta * gb, lo, hi),
            _clamp(alpha + eta * galpha, lo2, hi2))


def _label_terms(positive, p):
    """What surrogate_moves and saddle_terms compute from the label and the
    prior p alone, each entry taking the branch of its own label, +1 where
    `positive`, -1 elsewhere: 2(1 - p) or 2p, 2p(1 - p), and saddle_terms'
    sign term, -(1 - p) or p."""
    rest = 1.0 - p
    return 2.0 * np.where(positive, rest, p), 2.0 * p * rest, np.where(positive, -rest, p)


def _surrogate_moves(positive, wx, wu, wv, terms, n_pos, n_neg, eta):
    """surrogate_moves, each entry taking the branch of its own label, with
    terms = _label_terms(positive, p) in place of p."""
    two_q, two_pq, _ = terms
    k = two_pq * (1.0 + (wv - wu))
    c = two_q * (wx - np.where(positive, wu, wv))
    return (c, eta * np.where(positive, k + c, k) / n_pos,
            -(eta * np.where(positive, k, k - c) / n_neg))


def _saddle_terms(positive, wx, a, b, alpha, terms, only_c=False):
    """saddle_terms, each entry taking the branch of its own label, with
    terms = _label_terms(positive, p) in place of p; or its c alone."""
    two_q, two_pq, sign_term = terms
    diff = wx - np.where(positive, a, b)
    c = two_q * diff + 2.0 * (1.0 + alpha) * sign_term
    if only_c:
        return c
    g = -two_q * diff
    return (c, np.where(positive, g, 0.0), np.where(positive, 0.0, g),
            2.0 * wx * sign_term - two_pq * alpha)


def lockstep(algo: str, dataset: Dataset, groups: list[tuple[np.ndarray, list[TrainConfig]]]
             ) -> list[list[np.ndarray | None]]:
    """Fit every candidate of every group in one pass and return, per group,
    each candidate's last iterate, or None for a candidate that left the
    lockstep: one whose squared norm after any step, before its rescale, was
    NaN or reached FastSpaucTrainer.SAFE_LIMIT, whether its group stepped or
    not. cross_validate refits those alone.

    A group is a fit set, given as row ids of `dataset` in fit order, and
    its candidates' configs. These share the group's epochs and seed, hence
    its stream order, and so its spauc class sums, spam full-data moments
    and solam running prior and data radius; they differ only in scalars:
    the practical schedule's mu, the penalty weight and solam's radius. All
    configs share one penalty kind. The iterates are one (groups, k, d)
    array, k the largest group's candidate count (a smaller group is padded
    with copies of its last candidate, which are dropped), and step s steps
    each group at the s-th example of its own stream, read from `dataset`
    by row id. A group whose stream has ended, or that has not seen both
    classes yet (spauc, solam), takes a step of size 0 with class counts of
    at least 1, prior 0.5 and, for solam, an infinite ball: its move is +-0
    times finite numbers, its l2 divisor 1 and its l1 threshold 0, and
    solam's auxiliaries move by 0 into bounds they already meet, so no bit
    of it changes.

    What depends on the data alone, the class counts, the prior, the step
    count t, the label masks, solam's data radius kappa and the examples,
    is computed for a chunk of steps at once: each group's example of each
    step as one dense d-vector, and the step sizes as a (steps, groups, k)
    array, neither larger than half of SCORE_CHUNK entries. Each group keeps
    its example and its class sums or moments as one (3, d) block (solam: the
    example alone), so a step does the d-vector work once for every
    candidate, as products of each group's (k, d) iterates with its block:
    one batched matmul for w.x and w against the sums or moments, the move
    (for spauc one more matmul, c x + alpha S+ + beta S-; for spam and
    solam c x, made on the example's nonzeros alone when rows hold at most
    a quarter of d on average), and one rescale (the l2 divisors, the ball
    projections, or one soft-threshold with per-candidate thresholds). The
    coefficients come from the array forms above of the learners' own
    formulas: surrogate_moves and saddle_terms (spam's step takes c alone),
    each candidate's inputs picked by its example's label, and step_size,
    prox_divisor and clamped_auxiliaries. What they compute from the label
    and the prior alone, _label_terms, is built for the chunk's steps at
    once. The pass holds O(groups * k * d) floats besides the chunk;
    cross_validate bounds that by LOCKSTEP_MAX_CELLS.
    """
    configs = [c for _, cfgs in groups for c in cfgs]
    kinds = {c.regularizer.kind for c in configs}
    if len(kinds) != 1:
        raise ValueError(f"lockstep candidates must share one penalty kind, got {sorted(kinds)}")
    kind = kinds.pop()
    sizes = [len(cfgs) for _, cfgs in groups]
    n_groups, k, d = len(groups), max(sizes), dataset.dim
    # every group padded to k candidates with copies of its last, not live
    padded = [cfgs + cfgs[-1:] * (k - len(cfgs)) for _, cfgs in groups]
    mu = np.array([[c.schedule.mu for c in cfgs] for cfgs in padded])
    lam = np.array([[c.regularizer.lam for c in cfgs] for cfgs in padded])
    radius = np.array([[c.radius for c in cfgs] for cfgs in padded])
    live = np.arange(k) < np.array(sizes)[:, None]
    ends = [len(rows) * cfgs[0].epochs for rows, cfgs in groups]  # stream lengths
    streams = [(-1, None)] * n_groups  # each group's epoch and its rows in stream order
    ptr, labels = dataset.indptr, dataset.labels
    # spam's and solam's move is c x alone: on rows that hold at most a
    # quarter of d on average, it is made on the example's nonzeros only
    sparse = algo != "spauc" and 4 * int(ptr[-1]) <= len(dataset) * d
    # each group's block: its example, then its class sums S+ and S-
    # (spauc) or its full-data moments u and v (spam)
    F = np.zeros((n_groups, 1 if algo == "solam" else 3, d))
    if algo == "spam":
        moments = [exact_snapshot(dataset, rows) for rows, _ in groups]
        F[:, 1:] = [(m.u, m.v) for m in moments]
        prior = np.array([[m.p] for m in moments])
    elif algo == "solam":
        norms = np.array([ex.norm() for ex in dataset])
        aux = [np.zeros((n_groups, k)) for _ in range(3)]  # a, b and alpha
    # per group: examples and positives seen, steps taken, data radius
    seen, pos_seen, taken = (np.zeros(n_groups, np.int64) for _ in range(3))
    kappa = np.ones(n_groups)
    W = np.zeros((n_groups, k, d))
    moves = np.empty((n_groups, k, 3))  # spauc's coefficient block of a step
    F_T = F.transpose(0, 2, 1)  # a view, so it follows F
    # a chunk of steps is as long as neither its examples, one dense
    # (groups, d) slice per step, nor its (steps, groups, k) step sizes,
    # nor its (steps, 3, groups, 1) label terms hold more than half of
    # SCORE_CHUNK entries (or one step): building the examples keeps four
    # such arrays alive. With twice that, the tune-dense-d8 job's peak
    # resident set was 0.8 MB higher, and no faster
    span = max(1, data.SCORE_CHUNK // (2 * n_groups * max(d, k, 3)))
    total = max(ends)
    # an iterate that overflows leaves below, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s0 in range(0, total, span):
            s1 = min(s0 + span, total)
            active = np.arange(s0, s1)[:, None] < ends  # (steps, groups)
            at = np.zeros(active.shape, np.int64)  # each group's example, by row id
            for g, (rows, cfgs) in enumerate(groups):
                lo, stop = s0, min(s1, ends[g])
                while lo < stop:
                    epoch, first = divmod(lo, len(rows))
                    if streams[g][0] != epoch:
                        streams[g] = (epoch, rows[stream_order(len(rows), epoch, cfgs[0].seed)])
                    hi = min(stop, (epoch + 1) * len(rows))
                    at[lo - s0:hi - s0, g] = streams[g][1][first:first + hi - lo]
                    lo = hi
            pos = active & (labels[at] == 1)
            n_pos = pos_seen + np.cumsum(pos, axis=0) - pos  # before the example
            n = seen + np.cumsum(active, axis=0) - active
            pos_seen, seen = n_pos[-1] + pos[-1], n[-1] + active[-1]
            ready = active if algo == "spam" else active & (0 < n_pos) & (n_pos < n)
            t = taken + np.cumsum(ready, axis=0)
            taken = t[-1]
            # (steps, groups, k) below; the group's scalars broadcast over k,
            # and a group that does not step takes a step of size 0
            eta = np.where(ready[:, :, None], _step_sizes(mu, t[:, :, None]), 0.0)
            if algo != "solam" and kind != "none":  # the l2 divisors or l1 thresholds
                shrink = (_prox_divisors(eta, lam) if kind == "l2" else eta * lam)[..., None]
            positive = pos[:, :, None]
            if algo == "spauc":
                neg_eta = -eta
                n_pos_k, n_neg_k = (np.maximum(m, 1)[:, :, None] for m in (n_pos, n - n_pos))
                sides = np.stack([positive, ~positive], axis=2)  # which class sum takes x
            if algo != "spam":
                prior = np.where(ready, n_pos / n, 0.5)[:, :, None]
            # step s's _label_terms are terms[s]
            terms = np.stack(np.broadcast_arrays(*_label_terms(positive, prior)), axis=1)
            if algo == "solam":
                radii = np.maximum.accumulate(
                    np.vstack([kappa, np.where(active, norms[at], 1.0)]))[1:]
                kappa = radii[-1]
                # step s's clamp bounds are clamps[:, s]
                clamps = _clamp_bounds(radii[:, :, None] * radius)
                ball = np.where(ready[:, :, None], radius, np.inf)
            # X[s, g] is group g's example at step s, zero once its stream ended
            ev_step, ev_group = np.nonzero(active)
            ev_row = at[ev_step, ev_group]
            row_bounds, entry = gather_rows(ptr, ev_row)
            nnz = row_bounds[1:] - row_bounds[:-1]
            # the entries' groups, columns and values, step s's at bounds[s]:bounds[s + 1]
            # the columns as intp: each sparse step indexes W with a slice of them
            e_group, e_col, e_value = np.repeat(ev_group, nnz), \
                dataset.indices[entry].astype(np.intp), dataset.values[entry]
            del entry
            bounds = row_bounds[np.searchsorted(ev_step, np.arange(s1 - s0 + 1))].tolist()
            X = np.zeros((s1 - s0, n_groups, d))
            X[np.repeat(ev_step, nnz), e_group, e_col] = e_value
            for s in range(s1 - s0):
                F[:, 0] = X[s]
                # per group, (k, d) @ (d, 1 or 3): w.x, and w against the
                # class sums or moments
                wx, *w_f = (W @ F_T).transpose(2, 0, 1)
                if algo == "spauc":
                    c, alpha, beta = _surrogate_moves(
                        positive[s], wx, w_f[0] / n_pos_k[s], w_f[1] / n_neg_k[s], terms[s],
                        n_pos_k[s], n_neg_k[s], eta[s])
                    # c x, alpha S+ and beta S-, per group (k, 3) @ (3, d)
                    np.multiply(neg_eta[s], c, out=moves[:, :, 0])
                    moves[:, :, 1] = alpha
                    moves[:, :, 2] = beta
                    W += moves @ F
                elif algo == "spam":
                    c = _saddle_terms(positive[s], wx, *w_f, w_f[1] - w_f[0], terms[s],
                                      only_c=True)
                else:
                    c, ga, gb, galpha = _saddle_terms(positive[s], wx, *aux, terms[s])
                if sparse:
                    lo, hi = bounds[s], bounds[s + 1]
                    groups_e = e_group[lo:hi]
                    W[groups_e, :, e_col[lo:hi]] -= e_value[lo:hi, None] * (eta[s] * c)[groups_e]
                elif algo != "spauc":
                    W -= (eta[s] * c)[:, :, None] * F[:, None, 0]
                sq = np.einsum("gkd,gkd->gk", W, W)
                if algo == "solam":
                    norm = np.sqrt(sq)
                    W *= np.where(norm > ball[s], ball[s] / norm, 1.0)[:, :, None]
                    aux = _clamped_auxiliaries(*aux, eta[s], ga, gb, galpha, clamps[:, s])
                elif kind == "l2":
                    W /= shrink[s]
                elif kind == "l1":
                    W = soft_threshold(W, shrink[s])
                live &= sq < FastSpaucTrainer.SAFE_LIMIT  # a NaN leaves too
                if not live.any():
                    return [[None] * size for size in sizes]
                if algo == "spauc":  # ClassStats.update's sums
                    F[:, 1:] += np.where(sides[s], X[s][:, None], 0.0)
            del X, e_group, e_col, e_value  # before the next chunk's are built
    return [[W[g, j].copy() if live[g, j] else None for j in range(size)]
            for g, size in enumerate(sizes)]


def _passes(groups, dim):
    """The groups in runs of consecutive groups whose iterates, dim x their
    candidates, hold at most LOCKSTEP_MAX_CELLS entries; a group larger
    than that is a run of its own."""
    batch, cells = [], 0
    for group in groups:
        size = dim * len(group[1])
        if batch and cells + size > LOCKSTEP_MAX_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(group)
        cells += size
    if batch:
        yield batch


def cross_validate(dataset: Dataset, algo: str, candidates: list[list[dict]], folds: int,
                   configs: list[TrainConfig],
                   rows: list[np.ndarray] | None = None) -> list[list[list[float]]]:
    """Cross-validate several problems at once. Problem i is the rows
    rows[i] of `dataset`, in that order (every row when `rows` is None),
    with configs[i] at the points candidates[i]. Returns, per problem, each
    candidate's per-fold validation AUC of the last iterate of the config at
    the candidate's point; a diverged fit scores 0 so it can never win.
    Every fold needs both classes, so each class of a problem must have at
    least `folds` examples.

    Up to LOCKSTEP_MAX_DIM lockstep passes fit every candidate of every
    fold of every problem, reading the fold's rows of `dataset` in place,
    with as many consecutive folds per pass as LOCKSTEP_MAX_CELLS allows; a
    candidate that leaves it, and every candidate above that dimension, is
    fitted alone by run_algorithm on its fold's rows. A pass's folds, their
    fit and held-out rows, are built when it runs; run_algorithm compacts
    each single fit's rows itself, and its model, at d, is scored on the
    held-out rows like a lockstep model. The lockstep returns
    last iterates, so every fold config asks for the last iterate and one
    trace point, whatever the config's average and trace interval; a
    problem's candidates share these configs across its folds.
    """
    from .metrics import auc

    problems = []  # each problem's rows and its candidates' configs, shared by its folds
    for cands, config, part in zip(candidates, configs, rows or [None] * len(configs)):
        part = np.arange(len(dataset)) if part is None else part
        n_pos, n_neg = _class_counts(dataset.labels[part])
        if n_pos < folds or n_neg < folds:
            raise ValueError(
                f"{folds}-fold cross-validation needs at least {folds} examples of "
                f"each class, got {n_pos} positive and {n_neg} negative")
        # no fold fits more than len(part) rows, so each records one trace point
        fold_config = replace(config, average="last",
                              eval_every=max(1, len(part) * config.epochs))
        problems.append((part, config.seed, [config_from_params(p, fold_config)
                                             for p in cands]))

    # per fold: its fit rows, configs, held-out rows and problem, built as
    # the passes reach it (np.delete, not np.setdiff1d, whose np.unique
    # imports numpy.ma, about 10 ms of a job)
    fold_groups = ((np.delete(part, val), fold_configs, part[val], i)
                   for i, (part, seed, fold_configs) in enumerate(problems)
                   for val in _fold_indices(dataset.labels[part], folds, seed))
    scores = [[[] for _ in cands] for cands in candidates]
    for run in _passes(fold_groups, dataset.dim):
        if dataset.dim > LOCKSTEP_MAX_DIM:
            models = [[None] * len(group[1]) for group in run]
        else:
            models = lockstep(algo, dataset, [group[:2] for group in run])
        for (fit_rows, fold_configs, val_rows, i), fold_models in zip(run, models):
            val, fit = dataset.subset(val_rows), None
            for row, w, cfg in zip(scores[i], fold_models, fold_configs):
                if w is None:
                    fit = dataset.subset(fit_rows) if fit is None else fit
                    try:
                        w = run_algorithm(algo, fit, cfg)[0]
                    except DivergenceError:
                        row.append(0.0)
                        continue
                row.append(auc(val.scores(w), val.labels))
    return scores


def tune(dataset: Dataset, algo: str, grid: TuneGrid, configs: list[TrainConfig],
         rows: list[np.ndarray] | None = None):
    """Random grid search by K-fold cross-validation for several problems
    at once: problem i is the rows rows[i] of `dataset` (every row when
    `rows` is None) and configs[i] at the points sampled with its seed.

    Returns, per problem, (best_params, table) where table rows carry the
    candidate, its per-fold AUCs and the mean; ties resolve to the
    first-sampled candidate.
    """
    candidates = [grid.sample(config.seed) for config in configs]
    results = []
    for cands, fold_scores in zip(candidates, cross_validate(
            dataset, algo, candidates, grid.folds, configs, rows)):
        best = None
        best_mean = -np.inf
        table = []
        for params, scores in zip(cands, fold_scores):
            mean = float(np.mean(scores))
            table.append({"params": params, "fold_aucs": scores, "mean_auc": mean})
            if mean > best_mean:
                best, best_mean = params, mean
        results.append((best, table))
    return results


def write_tune_table(path, table) -> None:
    if not table:
        raise ValueError("empty tuning table")
    param_names = list(table[0]["params"])
    n_folds = len(table[0]["fold_aucs"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(param_names + [f"fold_{k}" for k in range(n_folds)] + ["mean_auc"])
        for row in table:
            writer.writerow([repr(row["params"][p]) for p in param_names]
                            + [repr(s) for s in row["fold_aucs"]]
                            + [repr(row["mean_auc"])])


@dataclass
class ReportRow:
    algo: str
    dataset: str
    auc_mean: float
    auc_std: float
    time_per_pass_mean: float
    time_per_pass_std: float


def _sample_std(values: list[float]) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def aggregate(algo: str, dataset_name: str, traces: list[list[TracePoint]],
              epochs: int) -> ReportRow:
    """Mean and sample standard deviation of the final test AUC and of the
    per-pass training time, straight from the traces: time_per_pass is the
    final elapsed_sec over the epochs, which under benchmark counts the
    fit and spam's moment pass but not the split or its compaction."""
    finals = [trace[-1] for trace in traces]
    aucs = [pt.test_auc for pt in finals]
    if any(a is None for a in aucs):
        raise ValueError("benchmark traces must carry test AUC")
    times = [pt.elapsed_sec / epochs for pt in finals]
    return ReportRow(algo, dataset_name,
                     float(np.mean(aucs)), _sample_std(aucs),
                     float(np.mean(times)), _sample_std(times))


def write_report(path, rows: list[ReportRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for r in rows:
            writer.writerow([r.algo, r.dataset, repr(r.auc_mean), repr(r.auc_std),
                             repr(r.time_per_pass_mean), repr(r.time_per_pass_std)])


def check_benchmark(algos: list[str], repeats: int, test_fraction: float) -> None:
    """Refuse benchmark arguments out of range before any work: split()
    would refuse test_fraction only on first use, a repeated algorithm
    would be fitted twice and reported as two rows of its second run, and
    an empty list would load the data to report nothing."""
    if not algos:
        raise ValueError("name at least one algorithm")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(unknown_algorithm_message(algo))
    if len(set(algos)) < len(algos):
        raise ValueError(f"each algorithm may be named once, got {', '.join(algos)}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")


def benchmark(dataset: Dataset, dataset_name: str, algos: list[str], repeats: int,
              config: TrainConfig, tune_grid: TuneGrid | None = None,
              test_fraction: float = 0.2, outdir=None):
    """The measurement protocol: repeat r runs `config` with seed
    config.seed + r, on a fresh split drawn with that seed, and per
    algorithm one traced run, at the point an optional cross-validated
    search on the training part picks when `tune_grid` is given. The
    searches of all repeats of an algorithm run as one tune call, before
    the traced runs, which run repeat by repeat. Every repeat's training and
    held-out parts must hold both classes, and under a grid each training
    part at least tune_grid.folds examples of each class; all are checked
    before any fit.

    Each repeat's split is compacted once for all its algorithms
    (baselines.compact): the training part, the held-out part and the
    objective data, a subsample of the training part, on the columns the
    training part holds. So the traced runs fit on those columns, and a
    DivergenceError's last_weight is widened back to the dataset's d. A
    trace's elapsed_sec leaves out the split and this compaction, work on
    the training rows shared by every algorithm, but counts spam's moment
    pass.

    Returns (report_rows, trace_map) with trace_map[(algo, repeat)] the run's
    trace. Per-run trace CSVs and the aggregate report are written under
    `outdir` when given.
    """
    check_benchmark(algos, repeats, test_fraction)
    runs = [replace(config, seed=config.seed + r) for r in range(repeats)]
    parts = [split_rows(len(dataset), test_fraction, run.seed) for run in runs]
    for r, rows in enumerate(parts):  # each part is fitted or scored: both classes
        for name, part in zip(("training", "held-out"), rows):
            n_pos, n_neg = _class_counts(dataset.labels[part])
            if not (n_pos and n_neg):
                raise ValueError(
                    f"repeat {r}: the {name} part ({len(part)} of {len(dataset)} rows) "
                    f"holds {n_pos} positive and {n_neg} negative examples, "
                    f"but needs both classes")
    if tune_grid is not None:  # every repeat of an algorithm in one pass
        fit_rows = [fit for fit, _ in parts]
        folds = tune_grid.folds
        for r, part in enumerate(fit_rows):  # each fold of it needs both classes
            n_pos, n_neg = _class_counts(dataset.labels[part])
            if min(n_pos, n_neg) < folds:
                raise ValueError(
                    f"repeat {r}: the training part ({len(part)} of {len(dataset)} rows) "
                    f"holds {n_pos} positive and {n_neg} negative examples, but "
                    f"{folds}-fold cross-validation needs at least {folds} of each class")
        tuned = {algo: [config_from_params(best, run) for (best, _), run in zip(
                     tune(dataset, algo, tune_grid, runs, fit_rows), runs)]
                 for algo in algos}
    trace_map = {}
    for r, run in enumerate(runs):
        # the repeat's split on its training columns, for every algorithm
        fit, held_out, cols = baselines.compact(*split(dataset, test_fraction, run.seed))
        obj_data = objective_subsample(fit, run.seed)
        for algo in algos:
            algo_run = run if tune_grid is None else tuned[algo][r]
            try:
                trace_map[(algo, r)] = run_algorithm(
                    algo, fit, algo_run, test_data=held_out, objective_data=obj_data)[1]
            except DivergenceError as exc:
                exc.last_weight = widen(exc.last_weight, cols, dataset.dim)
                raise

    if outdir is not None:
        for (algo, r), trace in trace_map.items():
            write_trace(f"{outdir}/{algo}_rep{r}.csv", trace)
    rows = [aggregate(algo, dataset_name,
                      [trace_map[(algo, r)] for r in range(repeats)], config.epochs)
            for algo in algos]
    if outdir is not None:
        write_report(f"{outdir}/report.csv", rows)
    return rows, trace_map
