"""Lockstep cross-validation against the per-candidate loop it replaced:
equal fold AUCs, models within 1e-9 of run_algorithm's after 10^4 steps,
diverging candidates refitted alone and scored 0.0, ties to the first-sampled candidate, and
the per-candidate path above LOCKSTEP_MAX_DIM."""

from dataclasses import replace

import numpy as np
import pytest

import aucstream.bench as bench
from aucstream.bench import (LOCKSTEP_MAX_DIM, TuneGrid, _fold_indices,
                             config_from_params, cross_validate, lockstep,
                             run_algorithm, tune)
from aucstream.data import Dataset
from aucstream.metrics import auc
from aucstream.trainer import DivergenceError

from conftest import dense_example, gaussian_task, practical_config, random_dataset

CASES = [("spauc", "none"), ("spauc", "l2"), ("spauc", "l1"), ("spam", "none"),
         ("spam", "l2"), ("spam", "l1"), ("solam", "l2")]
IDS = ["-".join(case) for case in CASES]


def per_candidate_cv(dataset, algo, candidates, folds, config):
    """The loop cross_validate ran before the lockstep, kept as the oracle:
    for each candidate and fold, the fold's subsets and one run_algorithm
    fit of the last iterate; a diverged fit scores 0."""
    fold_idx = _fold_indices(dataset, folds, config.seed)
    all_idx = np.arange(len(dataset))
    table = []
    for params in candidates:
        scores = []
        for k in range(folds):
            val = dataset.subset(fold_idx[k])
            fit = dataset.subset(np.setdiff1d(all_idx, fold_idx[k]))
            fold_config = replace(config_from_params(params, config), average="last",
                                  eval_every=max(1, len(fit) * config.epochs))
            try:
                w, _ = run_algorithm(algo, fit, fold_config)
            except DivergenceError:
                scores.append(0.0)
                continue
            scores.append(auc(val.scores(w), val.labels))
        table.append(scores)
    return table


def candidates(algo, reg_kind, mus, lams=(1e-3, 0.3), radii=(0.3, 10.0)):
    """One candidate per mu, cycling through the lambdas and, for solam (as
    under `tune --algo solam`), the radii."""
    out = []
    for k, mu in enumerate(mus):
        params = {"mu": mu}
        if reg_kind != "none":
            params["lambda"] = lams[k % len(lams)]
        if algo == "solam":
            params["radius"] = radii[k % len(radii)]
        out.append(params)
    return out


@pytest.fixture
def fits(monkeypatch):
    """The configurations run_algorithm fits alone, in call order."""
    seen = []
    real = bench.run_algorithm

    def spy(algo, train_data, config, **kwargs):
        seen.append(config)
        return real(algo, train_data, config, **kwargs)
    monkeypatch.setattr(bench, "run_algorithm", spy)
    return seen


@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_fold_aucs_equal_the_per_candidate_loop(fits, algo, reg_kind):
    ds = gaussian_task(21, n=240, d=6)
    # solam's ball keeps large steps finite, and they drive a, b and alpha
    # into their clamps, whose bounds differ by the candidate's radius
    mus = [0.01, 0.1, 1.0, 300.0] if algo == "solam" else [10.0, 30.0, 100.0, 300.0]
    cands = candidates(algo, reg_kind, mus)
    config = practical_config(reg_kind, seed=4, epochs=1)
    want = per_candidate_cv(ds, algo, cands, 3, config)
    fits.clear()
    assert cross_validate(ds, algo, cands, 3, config) == want
    assert fits == []  # every candidate stayed in the lockstep


@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_models_match_run_algorithm_after_1e4_steps(algo, reg_kind):
    ds = gaussian_task(22, n=1001, d=5)
    config = practical_config(reg_kind, epochs=10, seed=3, eval_every=10**5)
    configs = [config_from_params(params, config)
               for params in candidates(algo, reg_kind, [30.0, 100.0], lams=(0.01, 0.1))]
    models = lockstep(algo, ds, configs)
    for w, config in zip(models, configs):
        want, trace = run_algorithm(algo, ds, config)
        assert trace[-1].step >= 10**4
        assert np.linalg.norm(w - want) <= 1e-9 * np.linalg.norm(want)


def test_dominant_step_parameter_matches_the_loop(fits):
    # test_bench's TestTune::test_selects_dominant_step_parameter; mu = 1
    # scores well below mu = 30 there without diverging
    ds = gaussian_task(3, n=400, d=8)
    grid = TuneGrid({"mu": [1.0, 30.0]}, pair_sample_size=2, folds=3)
    config = practical_config(seed=2, epochs=2)
    best, table = tune(ds, "spauc", grid, config)
    assert best == {"mu": 30.0}
    assert fits == []
    want = per_candidate_cv(ds, "spauc", grid.sample(2), 3, config)
    assert [row["fold_aucs"] for row in table] == want


@pytest.mark.parametrize("algo,reg_kind", [("spauc", "none"), ("spauc", "l1"),
                                           ("spam", "none"), ("spam", "l1")],
                         ids=["spauc-none", "spauc-l1", "spam-none", "spam-l1"])
def test_divergence_stream_scores_zero(fits, algo, reg_kind):
    # test_trainer's divergence stream, features of scale 100: mu = 0.01
    # leaves the lockstep, and its refit diverges on every fold
    rng = np.random.default_rng(7)
    ds = Dataset.from_examples([dense_example(100.0 * rng.normal(size=4),
                                              1 if i % 2 else -1) for i in range(50)])
    cands = [{"mu": 0.01, "lambda": 1e-3}, {"mu": 1e8, "lambda": 1e-3}]
    config = practical_config(reg_kind, seed=0, epochs=50)
    got = cross_validate(ds, algo, cands, 2, config)
    assert got[0] == [0.0, 0.0]
    assert min(got[1]) > 0.0
    assert [config.schedule.mu for config in fits] == [0.01] * 2
    fits.clear()
    assert got == per_candidate_cv(ds, algo, cands, 2, config)


def test_ties_go_to_the_first_sampled_candidate():
    # with no penalty lambda is not read, so the candidates are one run
    ds = gaussian_task(23, n=150, d=4)
    grid = TuneGrid({"mu": [30.0], "lambda": [1e-3, 1e-2, 1e-1, 1.0]},
                    pair_sample_size=4, folds=2)
    best, table = tune(ds, "spauc", grid, practical_config(seed=5, epochs=1))
    assert [row["params"] for row in table] == grid.sample(5)
    assert len({row["mean_auc"] for row in table}) == 1
    assert best is table[0]["params"]


@pytest.mark.parametrize("dim,in_lockstep", [(LOCKSTEP_MAX_DIM, True),
                                             (LOCKSTEP_MAX_DIM + 1, False)])
def test_size_rule(monkeypatch, fits, dim, in_lockstep):
    steps = []
    real = bench.lockstep

    def spy(algo, fit, configs):
        steps.append(len(configs))
        return real(algo, fit, configs)
    monkeypatch.setattr(bench, "lockstep", spy)
    ds = random_dataset(np.random.default_rng(24), n=40, d=dim, density=0.01)
    cands = candidates("spauc", "l2", [10.0, 30.0, 100.0])
    want = per_candidate_cv(ds, "spauc", cands, 2, practical_config("l2", seed=1, epochs=1))
    # the lockstep scores last iterates, so a run config asking for an
    # average is cross-validated at its last iterate on both sides of the rule
    for average in ("last", "avg2"):
        steps.clear()
        fits.clear()
        config = practical_config("l2", seed=1, epochs=1, average=average)
        got = cross_validate(ds, "spauc", cands, 2, config)
        assert (steps, len(fits)) == (([3, 3], 0) if in_lockstep else ([], 6))
        assert got == want
