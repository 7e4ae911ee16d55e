"""Shared test helpers: random sparse instances, the synthetic two-Gaussian
task, and independent numerical oracles (finite differences, dense-formula
reference evaluation, exact quadratic minimum of the pairwise objective, the
per-line LIBSVM parser)."""

import numpy as np

from aucstream import data
from aucstream.data import Dataset, Example
from aucstream.regularizers import Regularizer
from aucstream.schedules import PracticalSchedule
from aucstream.stats import StatsSnapshot
from aucstream.trainer import TrainConfig


def sparse_example(rng, d, label, density=0.6):
    """Random sparse example with at least one nonzero."""
    nnz = max(1, int(rng.binomial(d, density)))
    idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
    return Example(idx, rng.normal(size=nnz), int(label))


def dense_example(x, label):
    x = np.asarray(x, dtype=np.float64)
    return Example(np.arange(len(x), dtype=np.int64), x.copy(), int(label))


def random_dataset(rng, n, d, pos_fraction=0.5, density=0.6):
    """Random sparse dataset with an exact class split (at least one each)."""
    n_pos = min(max(1, round(pos_fraction * n)), n - 1)
    labels = np.array([1] * n_pos + [-1] * (n - n_pos))
    rng.shuffle(labels)
    examples = [sparse_example(rng, d, y, density) for y in labels]
    return Dataset.from_examples(examples, dim=d)


def practical_config(reg_kind="none", mu=50.0, **fields) -> TrainConfig:
    """A practical-schedule run config, as benchmark and tune take it; the
    penalty weight, when a penalty is in play, is 1.0 until a tuning point
    sets it."""
    return TrainConfig(Regularizer(reg_kind, 0.0 if reg_kind == "none" else 1.0),
                       PracticalSchedule(mu), **fields)


def assert_same_csr(a: Dataset, b: Dataset) -> None:
    """Equal dim and bit-equal arrays (tobytes tells -0.0 from 0.0)."""
    assert a.dim == b.dim
    for name in ("indptr", "indices", "values", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def parse_per_line(text: str, rule=None) -> Dataset:
    """`text` read by the per-line parser alone, as one block: the oracle
    for the strict block path of parse_libsvm."""
    rows = data._Rows()
    data._parse_lines(text.split("\n"), 1, rule or data.BinarizeRule.identity(), rows)
    return rows.dataset()


def random_snapshot(rng, d):
    return StatsSnapshot(float(rng.uniform(0.1, 0.9)),
                         rng.normal(size=d), rng.normal(size=d), True)


def gaussian_task(seed, n=10000, d=20, pos_fraction=0.3, mean_scale=0.6):
    """Two spherical Gaussians with means +-mean_scale * (1,...,1) and unit
    covariance; class sizes are exact."""
    rng = np.random.default_rng(seed)
    n_pos = round(pos_fraction * n)
    labels = np.array([1] * n_pos + [-1] * (n - n_pos))
    rng.shuffle(labels)
    x = rng.normal(size=(n, d)) + mean_scale * labels[:, None]
    examples = [dense_example(x[i], labels[i]) for i in range(n)]
    return Dataset.from_examples(examples, dim=d)


def dense_matrix(dataset):
    x = np.zeros((len(dataset), dataset.dim))
    for i, ex in enumerate(dataset):
        x[i, ex.indices] = ex.values
    return x


def pairwise_quadratic(dataset):
    """Exact quadratic form of the pairwise objective over a dataset:
    f(w) = scale * (1 - 2 w.delta + w.M.w) with the pair second-moment matrix
    M = C_pos + C_neg + delta delta^T (biased class covariances).

    Returns (scale, delta, M)."""
    x = dense_matrix(dataset)
    y = dataset.labels
    xp, xn = x[y == 1], x[y == -1]
    mu_p, mu_n = xp.mean(axis=0), xn.mean(axis=0)
    delta = mu_p - mu_n
    c_p = (xp - mu_p).T @ (xp - mu_p) / len(xp)
    c_n = (xn - mu_n).T @ (xn - mu_n) / len(xn)
    m = c_p + c_n + np.outer(delta, delta)
    p_hat = dataset.n_pos / len(dataset)
    return p_hat * (1.0 - p_hat), delta, m


def pairwise_minimum(dataset):
    """Global minimizer and minimum value of the pairwise objective."""
    scale, delta, m = pairwise_quadratic(dataset)
    w_star = np.linalg.lstsq(m, delta, rcond=None)[0]
    return w_star, scale * (1.0 - float(w_star @ delta))


def central_diff(f, x, h):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_scalar(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
