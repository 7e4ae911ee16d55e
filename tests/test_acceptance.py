"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import aucstream.baselines as baselines_mod
from aucstream.baselines import run_algorithm
from aucstream.bench import TuneGrid, benchmark
from aucstream.data import BinarizeRule, load_libsvm, split
from aucstream.metrics import auc, auc_bruteforce
from aucstream.objective import (dataset_kappa, instance_kappa,
                                 pairwise_objective_bruteforce,
                                 pairwise_objective_fast, saddle_grad,
                                 saddle_value, surrogate_grad,
                                 surrogate_value)
from aucstream.regularizers import l1, l2, none_reg
from aucstream.schedules import (FastRateSchedule, PolySchedule,
                                 PracticalSchedule, theory_cap)
from aucstream.stats import exact_snapshot
from aucstream.trainer import SpaucTrainer, TrainConfig, stream_run

from conftest import (central_diff, central_diff_scalar, dense_example,
                      gaussian_task, pairwise_minimum, pairwise_quadratic,
                      random_dataset, random_snapshot, sparse_example)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:02d}] FAIL - {desc}")
        raise
    print(f"\n[criterion {num:02d}] PASS - {desc}")


def random_instance(rng, d=6):
    z = sparse_example(rng, d, 1 if rng.random() < 0.5 else -1)
    return rng.normal(size=d), z, random_snapshot(rng, d)


def test_criterion_01_finite_sample_unbiasedness():
    with criterion(1, "surrogate with exact moments averages to the pairwise objective"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        ds = random_dataset(rng, n=200, d=10, pos_fraction=0.3)
        exact = exact_snapshot(ds)
        for _ in range(10):
            w = rng.normal(size=10)
            mean = float(np.mean([surrogate_value(w, z, exact) for z in ds]))
            target = pairwise_objective_bruteforce(w, ds)
            assert abs(mean - target) <= 1e-10 * abs(target)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_gradient_correctness():
    with criterion(2, "analytic gradients match central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for _ in range(100):
            w, z, s = random_instance(rng)
            h = 1e-5 * (1.0 + np.linalg.norm(w))
            g = surrogate_grad(w, z, s)
            fd = central_diff(lambda ww: surrogate_value(ww, z, s), w, h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

            a, b, alpha = rng.normal(size=3)
            gw, ga, gb, galpha = saddle_grad(w, a, b, alpha, z, s.p)
            fd_w = central_diff(lambda ww: saddle_value(ww, a, b, alpha, z, s.p), w, h)
            np.testing.assert_allclose(gw, fd_w, rtol=1e-5, atol=1e-7)
            for got, fd_s in (
                (ga, central_diff_scalar(lambda q: saddle_value(w, q, b, alpha, z, s.p), a, 1e-5)),
                (gb, central_diff_scalar(lambda q: saddle_value(w, a, q, alpha, z, s.p), b, 1e-5)),
                (galpha, central_diff_scalar(lambda q: saddle_value(w, a, b, q, z, s.p), alpha, 1e-5)),
            ):
                assert abs(got - fd_s) <= 1e-5 * abs(fd_s) + 1e-7
        assert time.perf_counter() - start < 1.0


def test_criterion_03_self_bounding():
    with criterion(3, "squared gradient norm bounded by 16 kappa^2 times the value"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            w, z, s = random_instance(rng)
            value = surrogate_value(w, z, s)
            assert value >= -1e-12
            grad_sq = float(np.sum(surrogate_grad(w, z, s) ** 2))
            kappa = instance_kappa(z, s)
            assert grad_sq <= 16.0 * kappa**2 * value * (1 + 1e-10)


def test_criterion_04_convexity():
    with criterion(4, "midpoint convexity of the surrogate under both moment sources"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            _, z, s = random_instance(rng)
            w1, w2 = rng.normal(size=6), rng.normal(size=6)
            mid = surrogate_value(0.5 * (w1 + w2), z, s)
            assert mid <= 0.5 * surrogate_value(w1, z, s) \
                + 0.5 * surrogate_value(w2, z, s) + 1e-10
        ds = random_dataset(rng, n=40, d=6, pos_fraction=0.4)
        exact = exact_snapshot(ds)
        for _ in range(1000):
            w1, w2 = rng.normal(size=6), rng.normal(size=6)
            z = ds[int(rng.integers(len(ds)))]
            mid = surrogate_value(0.5 * (w1 + w2), z, exact)
            assert mid <= 0.5 * surrogate_value(w1, z, exact) \
                + 0.5 * surrogate_value(w2, z, exact) + 1e-10


def test_criterion_05_prox_exactness():
    with criterion(5, "proximal maps are optimal and nonexpansive for all penalties"):
        rng = np.random.default_rng(105)
        for reg in (none_reg(), l2(0.8), l1(0.5)):
            for _ in range(10):
                v = rng.normal(size=6)
                eta = float(rng.uniform(0.01, 2.0))
                w_hat = reg.prox(v, eta)
                best = eta * reg.value(w_hat) + 0.5 * float(np.sum((w_hat - v) ** 2))
                for _ in range(100):
                    probe = w_hat + rng.normal(size=6) * rng.choice([1e-3, 0.1, 1.0])
                    trial = eta * reg.value(probe) + 0.5 * float(np.sum((probe - v) ** 2))
                    assert best <= trial + 1e-10
            for _ in range(1000):
                u, v = rng.normal(size=6), rng.normal(size=6)
                eta = float(rng.uniform(0.01, 2.0))
                lhs = float(np.linalg.norm(reg.prox(u, eta) - reg.prox(v, eta)))
                assert lhs <= float(np.linalg.norm(u - v)) * (1 + 1e-12) + 1e-15


def test_criterion_06_auc_oracle_equivalence():
    with criterion(6, "sort-based AUC equals the pair-counting oracle exactly"):
        rng = np.random.default_rng(106)
        for i in range(1000):
            n = int(rng.integers(2, 301))
            n_pos = int(rng.integers(1, n))
            labels = np.array([1] * n_pos + [-1] * (n - n_pos))
            rng.shuffle(labels)
            if i % 2 == 0:
                scores = rng.integers(0, 4, size=n).astype(float)
            else:
                scores = rng.normal(size=n)
            assert auc(scores, labels) == auc_bruteforce(scores, labels)


def test_criterion_07_convergence_at_desk_scale():
    with criterion(7, "tuned streaming run separates the Gaussian task and the objective falls"):
        start = time.perf_counter()
        ds = gaussian_task(0, n=10000, d=20, pos_fraction=0.3, mean_scale=0.6)
        fit, test = split(ds, 0.2, seed=0)
        tune_fit, val = split(fit, 0.2, seed=1)

        def run(data, mu, epochs, **kw):
            cfg = TrainConfig(none_reg(), PracticalSchedule(mu), epochs=epochs,
                              seed=0, eval_every=kw.pop("eval_every", 10**9))
            return run_algorithm("spauc", data, cfg, **kw)

        # the grid is matched to this task's feature scale (kappa ~ 8);
        # selection uses a validation carve-out, never the test part
        candidates = [1.0, 10.0, 100.0]
        val_auc = {}
        for mu in candidates:
            w, _ = run(tune_fit, mu, epochs=5)
            val_auc[mu] = auc(val.scores(w), val.labels)
        best_mu = max(candidates, key=lambda m: val_auc[m])

        _, trace = run(fit, best_mu, epochs=5, eval_every=400,
                       test_data=test, objective_data=fit)
        assert trace[-1].test_auc >= 0.95
        objs = [p.objective for p in trace]
        k = max(1, len(objs) // 10)
        assert float(np.median(objs[-k:])) < float(np.median(objs[:k]))
        assert time.perf_counter() - start < 30.0


def test_criterion_08_rate_ordering():
    with criterion(8, "fast-rate schedule beats slow polynomial decay at equal budget"):
        start = time.perf_counter()
        gaps_fast, gaps_poly = [], []
        for seed in range(10):
            ds = gaussian_task(100 + seed, n=10000, d=20, pos_fraction=0.3)
            scale, _, m = pairwise_quadratic(ds)
            sigma_phi = scale * float(np.linalg.eigvalsh(m)[0])
            _, f_min = pairwise_minimum(ds)
            kappa = dataset_kappa(ds)
            c1 = 16.0 * kappa**2  # no penalty, so a1 = 0
            # smallest offset keeping every step below the theory cap
            fast = FastRateSchedule(sigma_phi, sigma_phi, t1=4.0 * c1 / sigma_phi)
            poly = PolySchedule(eta1=theory_cap(0.0, kappa), theta=0.51)
            for sched, average, out in ((fast, "avg2", gaps_fast),
                                        (poly, "avg1", gaps_poly)):
                cfg = TrainConfig(none_reg(), sched, epochs=4, seed=seed,
                                  average=average, eval_every=10**9)
                w, _ = run_algorithm("spauc", ds, cfg)  # 4 passes over 10000 = 40000 steps
                out.append(pairwise_objective_fast(w, ds) - f_min)
        assert float(np.mean(gaps_fast)) <= float(np.mean(gaps_poly))
        assert time.perf_counter() - start < 300.0


def test_criterion_09_averaging_equivalence():
    with criterion(9, "incremental iterate averages equal their defining sums"):
        rng = np.random.default_rng(109)
        t1 = 6.25
        sched = PracticalSchedule(3.0)
        learners = {kind: SpaucTrainer(5, TrainConfig(none_reg(), sched,
                                                      average=kind, t1=t1))
                    for kind in ("avg1", "avg2")}
        learner = learners["avg1"]
        iterates, etas = [], []
        labels = [1, -1] + [1 if rng.random() < 0.4 else -1 for _ in range(100)]
        for y in labels:
            z = sparse_example(rng, 5, y)
            before = learner.t
            for each in learners.values():
                each.step(z)
            if learner.t > before:
                iterates.append(learner.w.copy())
                etas.append(sched.step_size(learner.t))
        ws = np.array(iterates)
        etas = np.array(etas)
        ks = np.arange(1, len(ws) + 1)
        avg1 = (etas[:, None] * ws).sum(axis=0) / etas.sum()
        w2 = ks + t1 + 1.0
        avg2 = (w2[:, None] * ws).sum(axis=0) / w2.sum()
        np.testing.assert_allclose(learners["avg1"].model(), avg1, rtol=1e-10)
        np.testing.assert_allclose(learners["avg2"].model(), avg2, rtol=1e-10)


def test_criterion_10_table_spot_reproduction():
    path = os.environ.get("AUCSTREAM_DIABETES", "data/diabetes.libsvm")
    if not os.path.exists(path):
        print("\n[criterion 10] SKIP - diabetes file not supplied "
              f"(looked at {path}; set AUCSTREAM_DIABETES to enable)")
        pytest.skip("diabetes dataset not available")
    with criterion(10, "tuned runs land in the expected AUC band on diabetes"):
        try:
            ds = load_libsvm(path)
        except ValueError:
            ds = load_libsvm(path, BinarizeRule.zero_one())
        assert len(ds) == 768 and ds.dim == 8
        # the searched interval extends past the published one so tuning can
        # adapt to whichever feature scaling the supplied file carries
        grid = TuneGrid({"mu": [10.0**e for e in range(-7, 3)]},
                        pair_sample_size=10, folds=5)
        config = TrainConfig(none_reg(), PracticalSchedule(1.0), epochs=15, seed=0,
                             eval_every=10**9)
        rows, _ = benchmark(ds, "diabetes", ["spauc"], 20, config, tune_grid=grid)
        assert abs(rows[0].auc_mean - 0.8266) <= 0.05


def test_criterion_11_cost_scaling_and_timing_accounting(monkeypatch):
    with criterion(11, "per-step cost grows at most linearly in d; moment pass is billed"):
        def per_step_seconds(d, steps):
            rng = np.random.default_rng(110 + d)
            examples = [dense_example(rng.normal(size=d), 1 if i % 2 else -1)
                        for i in range(200)]
            from aucstream.data import Dataset
            ds = Dataset.from_examples(examples, dim=d)
            cfg = TrainConfig(none_reg(), PracticalSchedule(50.0 * d),
                              epochs=max(1, steps // 200), seed=0,
                              eval_every=10**9)
            learner = SpaucTrainer(d, cfg)
            # warm the caches, then time raw steps
            for z in examples[:2]:
                learner.step(z)
            tick = time.perf_counter()
            count = 0
            while count < steps:
                learner.step(examples[count % 200])
                count += 1
            return (time.perf_counter() - tick) / steps

        small = per_step_seconds(10, 2000)
        large = per_step_seconds(10_000, 200)
        assert large <= 2000.0 * small

        # the full-data moment pass must show up in reported elapsed time
        rng = np.random.default_rng(111)
        ds = random_dataset(rng, n=40, d=5)
        real = baselines_mod.exact_snapshot

        def slow_snapshot(dataset):
            time.sleep(0.1)
            return real(dataset)

        monkeypatch.setattr(baselines_mod, "exact_snapshot", slow_snapshot)
        cfg = TrainConfig(none_reg(), PracticalSchedule(50.0), eval_every=10)
        _, trace = run_algorithm("spam", ds, cfg)
        assert trace[0].elapsed_sec >= 0.1
