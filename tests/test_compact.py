"""run_algorithm on the training rows' own columns (baselines.compact)
against the same learner class run at the full dimension d, the oracle: on
random streams whose training rows leave columns unused, for every
algorithm, penalty and average."""

import itertools

import numpy as np
import pytest

import aucstream.baselines as baselines
from aucstream.baselines import compact, run_algorithm
from aucstream.data import Dataset
from aucstream.regularizers import l1, l2, none_reg
from aucstream.schedules import PracticalSchedule
from aucstream.trainer import AVERAGES, DivergenceError, TrainConfig

REL_BOUND = 1e-12
D = 40
PENALTIES = {"none": none_reg(), "l2": l2(1e-3), "l1": l1(1e-3)}
CASES = list(itertools.product(baselines.ALGORITHMS, PENALTIES, AVERAGES))


def rows(rng, n, cols, nnz=4, dim=D):
    """n rows of nnz entries each, in columns drawn from `cols`, with
    normal values and both labels."""
    indices = np.concatenate([np.sort(rng.choice(cols, size=nnz, replace=False))
                              for _ in range(n)])
    labels = np.where(np.arange(n) % 3 == 0, 1, -1)
    return Dataset(np.arange(0, n * nnz + 1, nnz), indices, rng.normal(size=n * nnz),
                   rng.permutation(labels), dim)


def at_full_dim(monkeypatch):
    """Make run_algorithm fit at d, as it did before compaction."""
    monkeypatch.setattr(baselines, "compact", lambda dataset: (dataset, None))


def training_columns(dataset):
    return np.unique(dataset.indices)


@pytest.mark.parametrize("algo,kind,average", CASES, ids=["-".join(c) for c in CASES])
def test_model_and_trace_match_the_full_dimension(monkeypatch, algo, kind, average):
    rng = np.random.default_rng(61)
    train = rows(rng, 90, rng.choice(D, size=15, replace=False))
    test = rows(rng, 30, np.arange(D))  # most entries outside the training columns
    cfg = TrainConfig(regularizer=PENALTIES[kind], schedule=PracticalSchedule(0.01),
                      epochs=2, eval_every=40, average=average, radius=1.0)
    assert compact(train)[0].dim == 15
    got, got_trace = run_algorithm(algo, train, cfg, test_data=test, objective_data=train)
    at_full_dim(monkeypatch)
    want, want_trace = run_algorithm(algo, train, cfg, test_data=test, objective_data=train)
    assert got.shape == (D,)
    assert np.linalg.norm(got - want) <= REL_BOUND * np.linalg.norm(want)
    outside = np.setdiff1d(np.arange(D), training_columns(train))
    assert not got[outside].any() and not np.signbit(got[outside]).any()  # +0.0
    assert [p.step for p in got_trace] == [p.step for p in want_trace]
    assert [p.test_auc for p in got_trace] == [p.test_auc for p in want_trace]
    for g, w in zip(got_trace, want_trace):
        assert g.objective == pytest.approx(w.objective, rel=REL_BOUND)


@pytest.mark.parametrize("algo,kind", itertools.product(baselines.ALGORITHMS, PENALTIES))
def test_divergence_carries_a_weight_of_dimension_d(monkeypatch, algo, kind):
    # every eighth row is a positive with a value of 1e308, and c x
    # overflows at one of them
    rng = np.random.default_rng(62)
    cols, n = np.array([1, 5, 6, 9]), 40
    labels = np.where(np.arange(n) % 8 == 0, 1, -1)
    values = rng.normal(size=(n, 4))
    values[labels == 1, 0] = 1e308
    train = Dataset(np.arange(0, 4 * n + 1, 4), np.tile(cols, n), values.ravel(), labels,
                    dim=12)
    cfg = TrainConfig(regularizer=PENALTIES[kind], schedule=PracticalSchedule(0.01),
                      epochs=2, radius=10.0)
    errors = []
    for full in (False, True):
        if full:
            at_full_dim(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            run_algorithm(algo, train, cfg)
        errors.append(exc.value)
    got, want = errors
    assert got.iteration == want.iteration
    assert got.last_weight.shape == (12,)
    assert np.isfinite(got.last_weight).all()
    assert np.abs(got.last_weight - want.last_weight).max() \
        <= REL_BOUND * np.abs(want.last_weight).max()
    assert not got.last_weight[np.setdiff1d(np.arange(12), cols)].any()


@pytest.mark.parametrize("algo", baselines.ALGORITHMS)
def test_every_column_used_fits_the_dataset_itself(monkeypatch, algo):
    rng = np.random.default_rng(63)
    train = rows(rng, 60, np.arange(8), dim=8)
    assert compact(train) == (train, None)
    seen = []
    real = baselines.stream_run

    def spy(learner, dataset, *args, **kwargs):
        seen.append(dataset)
        return real(learner, dataset, *args, **kwargs)

    monkeypatch.setattr(baselines, "stream_run", spy)
    run_algorithm(algo, train, TrainConfig(regularizer=l2(1e-3),
                                           schedule=PracticalSchedule(0.01)))
    assert len(seen) == 1 and seen[0] is train  # no copy


@pytest.mark.parametrize("algo", baselines.ALGORITHMS)
def test_training_rows_without_entries(monkeypatch, algo):
    # no column occurs: the learner runs at d_eff = 0, and the model is d
    # zeros, as at d
    train = Dataset(np.zeros(7, np.int64), [], [], [1, -1, 1, -1, -1, 1], dim=5)
    test = rows(np.random.default_rng(64), 12, np.arange(5), dim=5)
    cfg = TrainConfig(regularizer=l2(1e-3), schedule=PracticalSchedule(0.01),
                      average="avg2", eval_every=4)
    assert compact(train)[0].dim == 0
    got, got_trace = run_algorithm(algo, train, cfg, test_data=test, objective_data=test)
    at_full_dim(monkeypatch)
    want, want_trace = run_algorithm(algo, train, cfg, test_data=test, objective_data=test)
    assert got.tobytes() == want.tobytes() == np.zeros(5).tobytes()
    assert [(p.step, p.test_auc, p.objective) for p in got_trace] \
        == [(p.step, p.test_auc, p.objective) for p in want_trace]


def test_test_data_wider_than_training_data_is_refused():
    rng = np.random.default_rng(65)
    train = rows(rng, 30, np.array([0, 2, 3, 7]), dim=8)
    wide = rows(rng, 10, np.arange(9), dim=9)
    cfg = TrainConfig(regularizer=none_reg(), schedule=PracticalSchedule(0.01))
    with pytest.raises(ValueError, match="test data dimension 9 exceeds training "
                                         "dimension 8"):
        run_algorithm("spauc", train, cfg, test_data=wide)
