"""Benchmark and tuning harness: multi-algorithm AUC-versus-time runs with
repeats, CSV traces, aggregate reports, and cross-validated random grid
search over step-size and penalty parameters.

Every entry point takes the run's TrainConfig and reads the penalty kind,
epochs, seed, trace interval, average and solam radius from it; a tuning
point (config_from_params) changes only the schedule's mu, the penalty
weight and, when it has one, the radius.

Cross-validation fits the K candidates of a fold in lockstep: they share
the fold's data and stream order and differ only in scalars, so one pass
over the fold steps them all, with their iterates as the columns of one
(d, K) array (see lockstep). That step costs O(d * K), so it is taken only
up to LOCKSTEP_MAX_DIM; above it each candidate is fitted alone by
run_algorithm. A candidate whose step goes non-finite, or whose squared
norm reaches FastSpaucTrainer.SAFE_LIMIT, leaves the lockstep and is
refitted alone too, so whether it diverges, and scores 0, is decided as
for a single run.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (ALGORITHMS, clamped_auxiliaries, run_baseline,
                        unknown_algorithm_message)
from .data import Dataset, split, stream_order
from .objective import saddle_coefficients, surrogate_moves
from .regularizers import soft_threshold
from .schedules import PracticalSchedule
from .stats import exact_snapshot
from .trainer import (DivergenceError, FastSpaucTrainer, TracePoint, TrainConfig,
                      train)

TRACE_HEADER = ["iter", "elapsed_sec", "test_auc", "objective"]
REPORT_HEADER = ["algo", "dataset", "auc_mean", "auc_std",
                 "time_per_pass_mean", "time_per_pass_std"]

# tuning intervals: mu over 10^{-7..-2.5} (half-decade steps), the penalty
# weight over 10^{-5..0}, the l2-ball radius over 10^{-1..5}
DEFAULT_MU_GRID = [float(10.0**e) for e in np.arange(-7.0, -2.25, 0.5)]
DEFAULT_LAMBDA_GRID = [10.0**e for e in range(-5, 1)]
DEFAULT_RADIUS_GRID = [10.0**e for e in range(-1, 6)]

OBJECTIVE_SUBSAMPLE_CAP = 5000

# cross_validate fits the candidates of a fold in lockstep up to this
# dimension and one at a time above it: a lockstep step costs O(d * K) for
# K candidates, while K fast learners cost O(nnz(x)) each plus their
# per-call overhead
LOCKSTEP_MAX_DIM = 1000


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


def read_trace(path) -> list[TracePoint]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        out = []
        for row in reader:
            out.append(TracePoint(
                step=int(row[0]),
                elapsed_sec=float(row[1]),
                test_auc=float(row[2]) if row[2] else None,
                objective=float(row[3]) if row[3] else None,
            ))
        return out


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


def run_algorithm(algo: str, train_data: Dataset, config: TrainConfig,
                  test_data: Dataset | None = None,
                  objective_data: Dataset | None = None):
    """Dispatch one training run; identical trace schema for every algorithm.
    run_baseline rejects a name that is not an algorithm."""
    if algo == "spauc":
        return train(train_data, config, test_data, objective_data)
    return run_baseline(algo, train_data, config, test_data, objective_data)


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


def _fold_indices(dataset: Dataset, folds: int, seed: int) -> list[np.ndarray]:
    """Class-stratified folds: the shuffled positives, then the shuffled
    negatives, dealt round-robin, so class counts and fold sizes each differ
    by at most one across folds."""
    rng = np.random.default_rng([seed, 2971])
    order = np.concatenate([rng.permutation(dataset.pos_indices),
                            rng.permutation(dataset.neg_indices)])
    return [order[k::folds] for k in range(folds)]


def lockstep(algo: str, fit: Dataset,
             configs: list[TrainConfig]) -> list[np.ndarray | None]:
    """Fit every candidate on `fit` in one pass over its stream and return
    each one's last iterate, or None for a candidate that left the
    lockstep: one whose step, before its rescale, went non-finite or
    reached a squared norm of FastSpaucTrainer.SAFE_LIMIT. cross_validate
    refits those alone.

    The configs share epochs and seed, hence the stream order, and so the
    candidates share spauc's class sums, spam's full-data moments and
    solam's running prior and data radius. They differ only in scalars:
    the step size, the penalty weight and solam's radius. The iterates are
    the columns of one (d, K) array, and the CSR rows are read directly.
    Each step does the d-vector work once for every column: one gather of
    the example's rows, one product for w.x, one with the fixed (2, d)
    vectors (class sums or moments), one scatter of outer(x, eta * c), and
    one column rescale (the l2 divisors, the ball projections, or one
    soft-threshold with per-column thresholds). The scalars come from the
    learners' own formulas, once per candidate: step_size, surrogate_moves,
    saddle_coefficients, prox_divisor and clamped_auxiliaries.
    """
    first = configs[0]
    kind = first.regularizer.kind
    scheds = [c.schedule for c in configs]
    regs = [c.regularizer for c in configs]
    radii = [c.radius for c in configs]
    aux = [(0.0, 0.0, 0.0)] * len(configs)  # solam's a, b and alpha
    models: list[np.ndarray | None] = [None] * len(configs)
    cols = list(range(len(configs)))  # the candidate in each column of W
    W = np.zeros((fit.dim, len(cols)))
    if algo == "spam":
        moments = exact_snapshot(fit)
        fixed, p = np.stack((moments.u, moments.v)), moments.p
    else:
        fixed = np.zeros((2, fit.dim))  # spauc's class sums S+ and S-
    sums = fixed[0], fixed[1]
    n_pos = n = t = 0
    kappa = 1.0
    ptr, labels = fit.indptr.tolist(), fit.labels.tolist()
    # a column that overflows leaves below, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(first.epochs):
            for i in stream_order(fit, epoch, first.seed).tolist():
                idx, x = fit.indices[ptr[i]:ptr[i + 1]], fit.values[ptr[i]:ptr[i + 1]]
                y = labels[i]
                if algo == "solam":
                    kappa = max(kappa, math.sqrt(x.dot(x)))
                if algo == "spam" or 0 < n_pos < n:
                    t += 1
                    etas = [scheds[j].step_size(t) for j in cols]
                    rows = W[idx]
                    wx = x.dot(rows).tolist()
                    if algo == "spauc":
                        p, n_neg = n_pos / n, n - n_pos
                        w_sp, w_sn = fixed.dot(W).tolist()
                        coefs = np.array([
                            surrogate_moves(a, u / n_pos, v / n_neg, p, n_pos, n_neg, eta, y)
                            for a, u, v, eta in zip(wx, w_sp, w_sn, etas)])
                        cs = coefs[:, 0]
                    elif algo == "spam":
                        cs = [saddle_coefficients(a, u, v, v - u, y, p)[0]
                              for a, u, v in zip(wx, *fixed.dot(W).tolist())]
                    else:
                        coefs = [saddle_coefficients(a, *aux[j], y, n_pos / n)
                                 for a, j in zip(wx, cols)]
                        cs = [c[0] for c in coefs]
                    rows -= np.multiply.outer(x, np.multiply(etas, cs))
                    W[idx] = rows
                    if algo == "spauc":
                        W += fixed.T.dot(coefs[:, 1:].T)  # alpha * S+ + beta * S-
                    sq = np.einsum("ij,ij->j", W, W).tolist()
                    if algo == "solam":
                        W *= [radii[j] / norm if norm > radii[j] else 1.0
                              for j, norm in zip(cols, map(math.sqrt, sq))]
                        for j, eta, (_, ga, gb, galpha) in zip(cols, etas, coefs):
                            aux[j] = clamped_auxiliaries(*aux[j], eta, ga, gb, galpha,
                                                         kappa * radii[j])
                    elif kind == "l2":
                        W /= [regs[j].prox_divisor(eta) for j, eta in zip(cols, etas)]
                    elif kind == "l1":
                        W = soft_threshold(W, np.multiply(etas, [regs[j].lam for j in cols]))
                    stay = [v < FastSpaucTrainer.SAFE_LIMIT for v in sq]  # NaN leaves too
                    if not all(stay):
                        cols = [j for j, ok in zip(cols, stay) if ok]
                        if not cols:
                            return models
                        W = W[:, stay]
                if algo == "spauc":
                    sums[y != 1][idx] += x  # ClassStats.update's sums
                n_pos += y == 1
                n += 1
    for k, j in enumerate(cols):
        models[j] = W[:, k].copy()
    return models


def cross_validate(dataset: Dataset, algo: str, candidates: list[dict], folds: int,
                   config: TrainConfig) -> list[list[float]]:
    """Each candidate's per-fold validation AUC of the last iterate of
    `config` at the candidate's point; a diverged fit scores 0 so it can
    never win. Every fold needs both classes, so each class must have at
    least `folds` examples.

    Each fold's subsets are built once. Up to LOCKSTEP_MAX_DIM one
    lockstep pass fits every candidate of the fold; a candidate that
    leaves it, and every candidate above that dimension, is fitted alone
    by run_algorithm. The lockstep returns last iterates, so every fold
    config asks for the last iterate and one trace point, whatever the
    config's average and trace interval.
    """
    from .metrics import auc

    if dataset.n_pos < folds or dataset.n_neg < folds:
        raise ValueError(
            f"{folds}-fold cross-validation needs at least {folds} examples of "
            f"each class, got {dataset.n_pos} positive and {dataset.n_neg} negative")
    fold_idx = _fold_indices(dataset, folds, config.seed)
    all_idx = np.arange(len(dataset))
    scores: list[list[float]] = [[] for _ in candidates]
    for k in range(folds):
        val = dataset.subset(fold_idx[k])
        fit = dataset.subset(np.setdiff1d(all_idx, fold_idx[k]))
        fold_config = replace(config, average="last",
                              eval_every=max(1, len(fit) * config.epochs))
        configs = [config_from_params(params, fold_config) for params in candidates]
        models = lockstep(algo, fit, configs) if fit.dim <= LOCKSTEP_MAX_DIM \
            else [None] * len(configs)
        for row, w, cfg in zip(scores, models, configs):
            if w is None:
                try:
                    w = run_algorithm(algo, fit, cfg)[0]
                except DivergenceError:
                    row.append(0.0)
                    continue
            row.append(auc(val.scores(w), val.labels))
    return scores


def tune(dataset: Dataset, algo: str, grid: TuneGrid, config: TrainConfig):
    """Random grid search by K-fold cross-validation of `config` at the
    sampled points, drawn with the config's seed.

    Returns (best_params, table) where table rows carry the candidate, its
    per-fold AUCs and the mean; ties resolve to the first-sampled candidate.
    """
    candidates = grid.sample(config.seed)
    fold_scores = cross_validate(dataset, algo, candidates, grid.folds, config)
    best = None
    best_mean = -np.inf
    table = []
    for params, scores in zip(candidates, fold_scores):
        mean = float(np.mean(scores))
        table.append({"params": params, "fold_aucs": scores, "mean_auc": mean})
        if mean > best_mean:
            best, best_mean = params, mean
    return best, table


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
    per-pass training time, straight from the traces."""
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
    search on the training part picks when `tune_grid` is given.

    Returns (report_rows, trace_map) with trace_map[(algo, repeat)] the run's
    trace. Per-run trace CSVs and the aggregate report are written under
    `outdir` when given.
    """
    check_benchmark(algos, repeats, test_fraction)
    trace_map = {}
    for r in range(repeats):
        run = replace(config, seed=config.seed + r)
        fit, held_out = split(dataset, test_fraction, run.seed)
        obj_data = objective_subsample(fit, run.seed)
        for algo in algos:
            algo_run = run if tune_grid is None else \
                config_from_params(tune(fit, algo, tune_grid, run)[0], run)
            trace_map[(algo, r)] = run_algorithm(
                algo, fit, algo_run, test_data=held_out, objective_data=obj_data)[1]

    if outdir is not None:
        for (algo, r), trace in trace_map.items():
            write_trace(f"{outdir}/{algo}_rep{r}.csv", trace)
    rows = [aggregate(algo, dataset_name,
                      [trace_map[(algo, r)] for r in range(repeats)], config.epochs)
            for algo in algos]
    if outdir is not None:
        write_report(f"{outdir}/report.csv", rows)
    return rows, trace_map
