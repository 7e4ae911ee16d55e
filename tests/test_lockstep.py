"""Lockstep cross-validation against the per-candidate loop it replaced:
equal fold AUCs, models within 1e-9 of run_algorithm's after 10^4 steps,
diverging candidates refitted alone and scored 0.0, ties to the first-sampled candidate, and
the per-candidate path above LOCKSTEP_MAX_DIM. Several problems, with every
fold of each, in one pass: each problem's fold table as the loop's, models
that do not depend on the chunk size, passes within the cell budget, sparse
rows, the same picks as the loop over repeats, models of a group that do
not depend on the other groups of its pass, the array forms of scalar
formulas bit for bit, and tune tables and models as with each formula
evaluated once per label."""

from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

import aucstream.bench as bench
from aucstream import data
from aucstream.baselines import clamped_auxiliaries
from aucstream.bench import (LOCKSTEP_MAX_DIM, TuneGrid, _fold_indices,
                             benchmark, config_from_params, cross_validate, lockstep,
                             objective_subsample, protocol_grid, run_algorithm, tune)
from aucstream.data import Dataset, split, stream_order
from aucstream.metrics import auc
from aucstream.objective import saddle_terms, surrogate_moves
from aucstream.regularizers import Regularizer
from aucstream.schedules import PracticalSchedule
from aucstream.trainer import DivergenceError

from conftest import dense_example, gaussian_task, practical_config, random_dataset

CASES = [("spauc", "none"), ("spauc", "l2"), ("spauc", "l1"), ("spam", "none"),
         ("spam", "l2"), ("spam", "l1"), ("solam", "l2")]
IDS = ["-".join(case) for case in CASES]


def per_candidate_cv(dataset, algo, candidates, folds, config):
    """The loop cross_validate ran before the lockstep, kept as the oracle:
    for each candidate and fold, the fold's subsets and one run_algorithm
    fit of the last iterate; a diverged fit scores 0."""
    fold_idx = _fold_indices(dataset.labels, folds, config.seed)
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
    assert cross_validate(ds, algo, [cands], 3, [config]) == [want]
    assert fits == []  # every candidate stayed in the lockstep


@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_models_match_run_algorithm_after_1e4_steps(algo, reg_kind):
    ds = gaussian_task(22, n=1001, d=5)
    config = practical_config(reg_kind, epochs=10, seed=3, eval_every=10**5)
    configs = [config_from_params(params, config)
               for params in candidates(algo, reg_kind, [30.0, 100.0], lams=(0.01, 0.1))]
    models = lockstep(algo, ds, [(np.arange(len(ds)), configs)])[0]
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
    best, table = tune(ds, "spauc", grid, [config])[0]
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
    got, = cross_validate(ds, algo, [cands], 2, [config])
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
    best, table = tune(ds, "spauc", grid, [practical_config(seed=5, epochs=1)])[0]
    assert [row["params"] for row in table] == grid.sample(5)
    assert len({row["mean_auc"] for row in table}) == 1
    assert best is table[0]["params"]


@pytest.mark.parametrize("dim,in_lockstep", [(LOCKSTEP_MAX_DIM, True),
                                             (LOCKSTEP_MAX_DIM + 1, False)])
def test_size_rule(monkeypatch, fits, dim, in_lockstep):
    steps = []
    real = bench.lockstep

    def spy(algo, dataset, groups):
        steps.extend(len(configs) for _, configs in groups)
        return real(algo, dataset, groups)
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
        got, = cross_validate(ds, "spauc", [cands], 2, [config])
        assert (steps, len(fits)) == (([3, 3], 0) if in_lockstep else ([], 6))
        assert got == want


def several_problems(algo, reg_kind):
    """One parent of 90 Gaussian rows and then 50 rows of scale 100, and
    three problems on it: the scale-100 rows, where mu = 0.01 leaves the
    lockstep and diverges (but for solam, whose ball keeps it finite); 61
    Gaussian rows, so that fold sizes differ by one; and 70 rows of both
    parts. They differ in seed, epochs and candidates."""
    rng = np.random.default_rng(26)
    big = [dense_example(100.0 * rng.normal(size=4), 1 if i % 2 else -1) for i in range(50)]
    ds = Dataset.from_examples(list(gaussian_task(27, n=90, d=4)) + big)
    rows = [rng.permutation(np.arange(90, 140)), rng.permutation(90)[:61],
            rng.permutation(140)[:70]]
    configs = [practical_config(reg_kind, seed=seed, epochs=epochs)
               for seed, epochs in [(0, 4), (3, 2), (5, 1)]]
    cands = [candidates(algo, reg_kind, mus) for mus in
             ([0.01, 1e8], [10.0, 30.0, 100.0], [1.0, 30.0, 300.0, 1e4])]
    return ds, rows, configs, cands


@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_several_problems_give_the_per_candidate_tables(monkeypatch, fits, algo, reg_kind):
    ds, rows, configs, cands = several_problems(algo, reg_kind)
    groups = []
    real = bench.lockstep

    def spy(algo, dataset, fold_groups):
        groups.extend(fold_groups)
        return real(algo, dataset, fold_groups)
    monkeypatch.setattr(bench, "lockstep", spy)
    got = cross_validate(ds, algo, cands, 3, configs, rows)
    assert len(groups) == 9 and len({len(fit_rows) for fit_rows, _ in groups}) > 2
    if algo != "spam":  # both classes are first seen at different steps
        warm_ups = {np.flatnonzero(np.diff(ds.labels[fit_rows[stream_order(
            len(fit_rows), 0, cfgs[0].seed)]]))[0] for fit_rows, cfgs in groups}
        assert len(warm_ups) > 1
    if algo != "solam":  # mu = 0.01 of the first problem left, and only it
        assert fits and {c.schedule.mu for c in fits} == {0.01}
        assert got[0][0] == [0.0] * 3
    fits.clear()
    for part, config, problem_cands, table in zip(rows, configs, cands, got):
        assert table == per_candidate_cv(ds.subset(part), algo, problem_cands, 3, config)


def fold_groups(rows, configs, cands):
    """lockstep's groups: each problem's rows with its candidates' configs."""
    return [(part, [config_from_params(p, config) for p in problem_cands])
            for part, config, problem_cands in zip(rows, configs, cands)]


def as_bytes(models):
    """lockstep's models, per group, as bytes, or None for a leaver."""
    return [[None if w is None else w.tobytes() for w in group] for group in models]


@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_models_do_not_depend_on_the_chunk_size(algo, reg_kind):
    ds, *problems = several_problems(algo, reg_kind)
    groups = fold_groups(*problems)
    with patch.object(data, "SCORE_CHUNK", 2**62):  # one chunk
        want = lockstep(algo, ds, groups)
    for chunk in (1, 700, 3000):
        with patch.object(data, "SCORE_CHUNK", chunk):
            got = lockstep(algo, ds, groups)
        assert as_bytes(got) == as_bytes(want)


def sparse_problems(algo, reg_kind):
    """Three problems on 150 rows with a tenth of d = 40 nonzero, so that
    spam's and solam's move is made on the nonzeros alone. They differ in
    rows, seed, epochs and candidates, as several_problems' do."""
    rng = np.random.default_rng(32)
    ds = random_dataset(rng, n=150, d=40, density=0.1)
    rows = [rng.permutation(150)[:100], rng.permutation(150)[:41], rng.permutation(150)[:77]]
    configs = [practical_config(reg_kind, seed=seed, epochs=epochs)
               for seed, epochs in [(1, 2), (6, 1), (8, 3)]]
    cands = [candidates(algo, reg_kind, mus) for mus in
             ([10.0, 30.0], [1.0, 300.0, 1e8], [0.01, 3.0, 30.0, 1e4])]
    return ds, rows, configs, cands


@pytest.mark.parametrize("problems", [several_problems, sparse_problems],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("algo,reg_kind", CASES, ids=IDS)
def test_a_groups_models_do_not_depend_on_the_other_groups(algo, reg_kind, problems):
    # every group's stream has its own length, so in the pass of all three
    # the shorter streams end while the others step; spauc's and solam's
    # groups each wait for both classes at their own steps. Alone, a group
    # is padded to the pass's candidate count with copies of its last
    # config, as the pass pads it: a BLAS matmul may round the rows of a
    # (k, d) block differently for another k (OpenBLAS did at d = 40, k = 2
    # against k = 4), which is no other group's doing
    ds, rows, configs, cands = problems(algo, reg_kind)
    assert len({len(part) * config.epochs for part, config in zip(rows, configs)}) == 3
    groups = fold_groups(rows, configs, cands)
    k = max(len(cfgs) for _, cfgs in groups)
    alone = [as_bytes(lockstep(algo, ds, [(part, cfgs + cfgs[-1:] * (k - len(cfgs)))]))[0]
             [:len(cfgs)] for part, cfgs in groups]
    assert as_bytes(lockstep(algo, ds, groups)) == alone


@pytest.mark.parametrize("algo,reg_kind", [("spauc", "l2"), ("spam", "l1"), ("solam", "l2")],
                         ids=["spauc-l2", "spam-l1", "solam-l2"])
def test_passes_hold_at_most_the_cell_budget(monkeypatch, algo, reg_kind):
    # d = 4 and 2, 3 or 4 candidates per fold, so a fold holds 8, 12 or 16
    # cells; under a budget of 13 the 4-candidate folds exceed it alone
    ds, rows, configs, cands = several_problems(algo, reg_kind)
    want = cross_validate(ds, algo, cands, 3, configs, rows)
    passes = []
    real = bench.lockstep

    def spy(algo, dataset, groups):
        passes.append([len(configs) for _, configs in groups])
        return real(algo, dataset, groups)
    monkeypatch.setattr(bench, "lockstep", spy)
    for cells, sizes in [(13, [[2], [2], [2], [3], [3], [3], [4], [4], [4]]),
                         (36, [[2, 2, 2, 3], [3, 3], [4, 4], [4]])]:
        passes.clear()
        monkeypatch.setattr(bench, "LOCKSTEP_MAX_CELLS", cells)
        assert cross_validate(ds, algo, cands, 3, configs, rows) == want
        assert passes == sizes


@pytest.mark.parametrize("algo,reg_kind", [("spam", "l2"), ("spam", "l1"), ("solam", "l2")],
                         ids=["spam-l2", "spam-l1", "solam-l2"])
def test_sparse_rows_give_the_per_candidate_tables(algo, reg_kind):
    # a tenth of d nonzero per row, so spam's and solam's move is made on
    # the example's nonzeros alone
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, n=150, d=40, density=0.1)
    assert 4 * ds.indptr[-1] <= len(ds) * ds.dim
    rows = [rng.permutation(150)[:100], rng.permutation(150)[:91]]
    configs = [practical_config(reg_kind, seed=seed, epochs=epochs)
               for seed, epochs in [(1, 2), (6, 1)]]
    cands = [candidates(algo, reg_kind, mus) for mus in ([10.0, 30.0, 100.0], [1.0, 300.0])]
    got = cross_validate(ds, algo, cands, 3, configs, rows)
    for part, config, problem_cands, table in zip(rows, configs, cands, got):
        assert table == per_candidate_cv(ds.subset(part), algo, problem_cands, 3, config)
    groups = fold_groups(rows, configs, cands)
    with patch.object(data, "SCORE_CHUNK", 2**62):  # one chunk
        want = lockstep(algo, ds, groups)
    for chunk in (1, 500):
        with patch.object(data, "SCORE_CHUNK", chunk):
            got = lockstep(algo, ds, groups)
        assert as_bytes(got) == as_bytes(want)


def test_one_penalty_kind_per_pass():
    ds = gaussian_task(30, n=40, d=3)
    groups = [(np.arange(40), [config_from_params({"mu": 30.0, "lambda": 0.1},
                                                  practical_config(kind))])
              for kind in ("l2", "l1")]
    with pytest.raises(ValueError, match="one penalty kind"):
        lockstep("spauc", ds, groups)


def test_benchmark_picks_as_the_loop_over_repeats(monkeypatch):
    # the loop benchmark ran before all repeats were tuned in one pass:
    # per repeat, the split, then per algorithm the per-candidate table
    ds = gaussian_task(28, n=150, d=5)
    grid = protocol_grid("l2", pairs=3, folds=3)
    config = practical_config("l2", seed=9, epochs=1, eval_every=40)
    algos = ["spauc", "spam", "solam"]
    reported = []
    real = bench.run_algorithm

    def spy(algo, train_data, config, **kwargs):
        reported.append((algo, config))
        return real(algo, train_data, config, **kwargs)
    monkeypatch.setattr(bench, "run_algorithm", spy)
    _, traces = benchmark(ds, "toy", algos, 3, config, tune_grid=grid)
    want = []
    for r in range(3):
        run = replace(config, seed=config.seed + r)
        fit, held_out = split(ds, 0.2, run.seed)
        for algo in algos:
            sampled = grid.sample(run.seed)
            means = [np.mean(s) for s in per_candidate_cv(fit, algo, sampled, 3, run)]
            picked = config_from_params(sampled[int(np.argmax(means))], run)
            want.append((algo, picked))
            _, trace = run_algorithm(algo, fit, picked, test_data=held_out,
                                     objective_data=objective_subsample(fit, run.seed))
            assert traces[(algo, r)][-1].test_auc == trace[-1].test_auc
    assert reported == want


def by_label(formula, positive, *args, **kwargs):
    """How the lockstep once evaluated a scalar formula on arrays:
    formula(*args, label=..., **kwargs) for each label, each entry keeping
    the branch of its own label, +1 where `positive`."""
    return [np.where(positive, x, y) for x, y in zip(formula(*args, label=1, **kwargs),
                                                     formula(*args, label=-1, **kwargs))]


# the forms as by_label's, each reading the prior p as its only label term
def surrogate_moves_by_label(positive, wx, wu, wv, terms, *args):
    return by_label(surrogate_moves, positive, wx, wu, wv, terms[0], *args)


def saddle_terms_by_label(positive, wx, a, b, alpha, terms, only_c=False):
    out = by_label(saddle_terms, positive, wx, a, b, alpha, p=terms[0])
    return out[0] if only_c else out


@pytest.mark.parametrize("reg_kind", ["none", "l2", "l1"])
@pytest.mark.parametrize("algo", ["spauc", "spam", "solam"])
def test_tune_is_as_with_the_formulas_taken_by_label(monkeypatch, fits, algo, reg_kind):
    # two problems of different lengths, so one's stream ends while the
    # other steps; solam's large steps (mu = 0.01) drive its auxiliaries
    # into their clamps
    ds = gaussian_task(33, n=160, d=6)
    rows = [np.arange(0, 160, 2), np.arange(100)]
    configs = [practical_config(reg_kind, seed=seed, epochs=epochs)
               for seed, epochs in [(1, 2), (4, 1)]]
    params = {"mu": [1.0, 10.0, 100.0, 300.0], "lambda": [1e-3, 0.1]}
    if algo == "solam":
        params.update(mu=[0.01, 0.1, 30.0, 300.0], radius=[0.3, 10.0])
    grid = TuneGrid(params, pair_sample_size=5, folds=3)
    models = []
    real = bench.lockstep

    def spy(algo, dataset, groups):
        out = real(algo, dataset, groups)
        models.append(as_bytes(out))
        return out
    monkeypatch.setattr(bench, "lockstep", spy)
    got = tune(ds, algo, grid, configs, rows)
    assert fits == []  # every candidate stayed in the lockstep
    # p, at the label mask's shape, is the one label term
    monkeypatch.setattr(bench, "_label_terms", lambda positive, p: (np.where(positive, p, p),))
    monkeypatch.setattr(bench, "_surrogate_moves", surrogate_moves_by_label)
    monkeypatch.setattr(bench, "_saddle_terms", saddle_terms_by_label)
    want = tune(ds, algo, grid, configs, rows)
    assert len(models) == 2 and models[0] == models[1]
    assert repr(got) == repr(want)


SPECIAL = [0.0, -0.0, 5e-324, -1e308, 1e308, np.inf, -np.inf, np.nan]


def floats(rng, size, special=SPECIAL):
    """Normal floats over ten decades, a third of them replaced by
    `special` values."""
    x = rng.normal(size=size) * 10.0 ** rng.integers(-5, 5, size=size)
    mask = rng.random(size) < 1 / 3
    x[mask] = rng.choice(special, size=int(mask.sum()))
    return x


def same_bits(got, want):
    """Equal bit for bit, signed zeros included; any NaN matches any NaN,
    whose sign and payload IEEE leaves to the operand order."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def test_array_forms_are_their_scalar_sources_bit_for_bit():
    rng = np.random.default_rng(29)
    n = 4000
    mu = np.abs(floats(rng, n, [0.0, 5e-324, np.inf, np.nan]))
    t = rng.integers(1, 10**9, size=n)
    eta, lam = floats(rng, n), floats(rng, n)
    a, b, alpha, ga, gb, galpha, bound = (floats(rng, n) for _ in range(7))
    wx, wu, wv, p = (floats(rng, n) for _ in range(4))
    n_pos, n_neg = rng.integers(1, 10**6, size=(2, n))
    positive = rng.random(n) < 0.5
    label = np.where(positive, 1, -1)
    with np.errstate(all="ignore"):
        terms = bench._label_terms(positive, p)
        checks = [
            ([bench._step_sizes(mu, t)],
             [[PracticalSchedule.step_size(SimpleNamespace(mu=m), int(k))]
              for m, k in zip(mu, t)]),
            ([bench._prox_divisors(eta, lam)],
             [[Regularizer.prox_divisor(SimpleNamespace(kind="l2", lam=l), e)]
              for e, l in zip(eta, lam)]),
            (bench._clamped_auxiliaries(a, b, alpha, eta, ga, gb, galpha, bound),
             [clamped_auxiliaries(*args) for args in zip(
                 a, b, alpha, eta, ga, gb, galpha, bound)]),
            (bench._surrogate_moves(positive, wx, wu, wv, terms, n_pos, n_neg, eta),
             [surrogate_moves(*args, label=y) for *args, y in zip(
                 wx, wu, wv, p, n_pos.tolist(), n_neg.tolist(), eta, label.tolist())]),
            (bench._saddle_terms(positive, wx, a, b, alpha, terms),
             [saddle_terms(*args, label=y, p=q) for *args, y, q in zip(
                 wx, a, b, alpha, label.tolist(), p)]),
            ([bench._saddle_terms(positive, wx, a, b, alpha, terms, only_c=True)],
             [saddle_terms(*args, label=y, p=q)[:1] for *args, y, q in zip(
                 wx, a, b, alpha, label.tolist(), p)]),
        ]
    for got, want in checks:
        for k, column in enumerate(zip(*want)):
            assert same_bits(np.broadcast_to(got[k], n), [float(x) for x in column])
