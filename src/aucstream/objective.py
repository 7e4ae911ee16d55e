"""Convex surrogate objectives for AUC maximization with the least-squares
pairwise loss.

The per-sample surrogate replaces the class prior and conditional means by a
statistics snapshot, turning the pairwise objective into a pointwise one whose
stochastic gradient costs O(d + nnz(x)). That dense gradient defines the
step of trainer.SpaucTrainer. The learners that run spauc's fits take the
same step through surrogate_moves, its scalar form over the class sums:
with no penalty or l2, trainer.FastSpaucTrainer in O(nnz(x)), keeping the
iterate as sigma * r + A * S+ + B * S-; with l1, trainer.L1SpaucTrainer in
O(d) without d-sized temporaries. The same formula evaluated with full-data
moments is an exactly unbiased estimate of the empirical pairwise
objective, which is also provided here in both a brute-force (all-pairs
oracle) and a fast moment-based form.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Example
from .stats import NotReadyError, StatsSnapshot


def _require_ready(s: StatsSnapshot) -> None:
    if not s.ready:
        raise NotReadyError("statistics snapshot needs at least one example of each class")


def surrogate_value(w: np.ndarray, z: Example, s: StatsSnapshot) -> float:
    """Per-sample surrogate loss at w for example z under snapshot s.

    Equals (1-p)(w.(x-u))^2 for positives, p(w.(x-v))^2 for negatives, plus
    the class-coupling part p(1-p)(1 + w.(v-u))^2, and is therefore always
    nonnegative.
    """
    _require_ready(s)
    p = s.p
    wx = z.dot(w)
    wu = float(w.dot(s.u))
    wv = float(w.dot(s.v))
    coupling = p * (1.0 - p) * (1.0 + (wv - wu)) ** 2
    if z.label == 1:
        return (1.0 - p) * (wx - wu) ** 2 + coupling
    return p * (wx - wv) ** 2 + coupling


def surrogate_grad(w: np.ndarray, z: Example, s: StatsSnapshot) -> np.ndarray:
    """Gradient of `surrogate_value` in w.

    Computed as rank-one actions (inner product, then scaled vector adds);
    no d-by-d matrix is ever formed. Cost O(d + nnz(x)).
    """
    _require_ready(s)
    p = s.p
    wx = z.dot(w)
    wu = float(w.dot(s.u))
    wv = float(w.dot(s.v))
    g = (2.0 * p * (1.0 - p) * (1.0 + (wv - wu))) * (s.v - s.u)
    if z.label == 1:
        c = 2.0 * (1.0 - p) * (wx - wu)
        g -= c * s.u
    else:
        c = 2.0 * p * (wx - wv)
        g -= c * s.v
    z.add_into(g, c)
    return g


def surrogate_moves(wx: float, wu: float, wv: float, p: float, n_pos: int,
                    n_neg: int, eta: float, label: int) -> tuple[float, float, float]:
    """The step -eta * surrogate_grad in terms of the class sums
    S+ = n_pos * u and S- = n_neg * v: it moves w by
    alpha * S+ + beta * S- - eta * c * x. Returns (c, alpha, beta) from
    wx = w.x, wu = w.u and wv = w.v. Both spauc learners that keep the class
    sums step through this one formula."""
    k = 2.0 * p * (1.0 - p) * (1.0 + (wv - wu))
    if label == 1:
        c = 2.0 * (1.0 - p) * (wx - wu)
        return c, eta * (k + c) / n_pos, -(eta * k / n_neg)
    c = 2.0 * p * (wx - wv)
    return c, eta * k / n_pos, -(eta * (k - c) / n_neg)


def pairwise_objective_bruteforce(w: np.ndarray, dataset: Dataset) -> float:
    """All-pairs least-squares AUC objective, the oracle form.

    p(1-p) times the mean over (positive, negative) pairs of
    (1 - w.(x_pos - x_neg))^2. Scores are recomputed per example with
    independent sparse dots so this path shares nothing with the fast
    evaluator beyond the dataset itself.
    """
    pos, neg = _class_scores_slow(w, dataset)
    p_hat = dataset.n_pos / len(dataset)
    margins = 1.0 - (pos[:, None] - neg[None, :])
    return p_hat * (1.0 - p_hat) * float(np.mean(margins**2))


def pairwise_objective_fast(w: np.ndarray, dataset: Dataset) -> float:
    """Moment-based evaluation of the pairwise objective in O(n * nnz).

    With per-class score means m_pos, m_neg and raw second moments q_pos,
    q_neg, the all-pairs mean expands to
    1 - 2(m_pos - m_neg) + q_pos - 2 m_pos m_neg + q_neg.
    """
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise NotReadyError("pairwise objective needs both classes present")
    scores = dataset.scores(w)
    positive = dataset.labels == 1
    a, b = scores[positive], scores[~positive]
    m_pos, m_neg = float(np.mean(a)), float(np.mean(b))
    q_pos, q_neg = float(np.mean(a**2)), float(np.mean(b**2))
    p_hat = dataset.n_pos / len(dataset)
    pair_mean = 1.0 - 2.0 * (m_pos - m_neg) + q_pos - 2.0 * m_pos * m_neg + q_neg
    return p_hat * (1.0 - p_hat) * pair_mean


def _class_scores_slow(w: np.ndarray, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise NotReadyError("pairwise objective needs both classes present")
    pos = np.array([ex.dot(w) for ex in dataset if ex.label == 1])
    neg = np.array([ex.dot(w) for ex in dataset if ex.label == -1])
    return pos, neg


def require_prior(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise NotReadyError(f"class prior must lie in (0, 1), got {p}")


def saddle_value(w: np.ndarray, a: float, b: float, alpha: float,
                 z: Example, p: float) -> float:
    """Primal-dual objective for one example under class prior p, whose
    optima in (a, b, alpha) recover the pairwise objective for any fixed w."""
    require_prior(p)
    wx = z.dot(w)
    pos = z.label == 1
    out = p * (1.0 - p) - p * (1.0 - p) * alpha**2
    if pos:
        out += (1.0 - p) * (wx - a) ** 2
        out += 2.0 * (1.0 + alpha) * wx * (-(1.0 - p))
    else:
        out += p * (wx - b) ** 2
        out += 2.0 * (1.0 + alpha) * wx * p
    return out


def saddle_terms(wx, a, b, alpha, label: int, p) -> tuple:
    """Scalar parts (c, ga, gb, galpha) of `saddle_grad` at an example with
    label `label` and score wx = w.x: the w-partial is c * x. p is not
    checked. The dense and the scaled-vector learners step through this one
    formula, and bench._saddle_terms, its form on arrays, is held equal to
    it bit for bit."""
    if label == 1:
        sign_term = -(1.0 - p)
        c = 2.0 * (1.0 - p) * (wx - a) + 2.0 * (1.0 + alpha) * sign_term
        ga = -2.0 * (1.0 - p) * (wx - a)
        gb = 0.0
    else:
        sign_term = p
        c = 2.0 * p * (wx - b) + 2.0 * (1.0 + alpha) * sign_term
        ga = 0.0
        gb = -2.0 * p * (wx - b)
    galpha = 2.0 * wx * sign_term - 2.0 * p * (1.0 - p) * alpha
    return c, ga, gb, galpha


def saddle_grad(w: np.ndarray, a: float, b: float, alpha: float,
                z: Example, p: float) -> tuple[np.ndarray, float, float, float]:
    """Partial derivatives (gw, ga, gb, galpha) of `saddle_value`.

    gw is a scalar multiple of x, so the d-vector is built with one sparse
    scatter.
    """
    require_prior(p)
    c, ga, gb, galpha = saddle_terms(z.dot(w), a, b, alpha, z.label, p)
    gw = np.zeros_like(w)
    z.add_into(gw, c)
    return gw, ga, gb, galpha


def dataset_kappa(dataset: Dataset) -> float:
    """max{1, max_i ||x_i||_2}: the data-radius constant entering the theory
    cap on step sizes."""
    max_norm = max((ex.norm() for ex in dataset), default=0.0)
    return max(1.0, max_norm)


def instance_kappa(z: Example, s: StatsSnapshot) -> float:
    """Per-instance radius max{1, ||x||, ||u||, ||v||} for local property checks."""
    return max(1.0, z.norm(), float(np.linalg.norm(s.u)), float(np.linalg.norm(s.v)))
