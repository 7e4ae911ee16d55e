import time

import numpy as np
import pytest

import aucstream.baselines as baselines
from aucstream.baselines import (SolamTrainer, SpamTrainer, run_baseline,
                                 unknown_algorithm_message)
from aucstream.data import split
from aucstream.objective import saddle_grad, saddle_value
from aucstream.regularizers import l2, none_reg
from aucstream.schedules import PracticalSchedule
from aucstream.stats import ClassStats, exact_snapshot
from aucstream.trainer import TrainConfig, TracePoint, train

from conftest import (central_diff, gaussian_task, random_dataset,
                      sparse_example)


def config(**kw):
    kw.setdefault("schedule", PracticalSchedule(10.0))
    kw.setdefault("regularizer", none_reg())
    return TrainConfig(**kw)


class TestSpam:
    def test_first_step_direction(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n=20, d=4)
        moments = exact_snapshot(ds)
        cfg = config()
        learner = SpamTrainer(4, cfg, moments)
        z = ds[0]
        learner.step(z)
        p = moments.p
        sign = p if z.label == -1 else -(1.0 - p)
        expected = -cfg.schedule.step_size(1) * 2.0 * sign * z.to_dense(4)
        np.testing.assert_allclose(learner.w, expected, rtol=1e-12)

    def test_gradient_equals_composite_fd_minus_chain_terms(self):
        # d/dw of F(w, w.u, w.v, w.(v-u); z) splits into the direct partial
        # (what the update uses) plus the chain-rule terms through a, b, alpha
        rng = np.random.default_rng(1)
        d = 4
        ds = random_dataset(rng, n=15, d=d)
        m = exact_snapshot(ds)
        for _ in range(50):
            w = rng.normal(size=d)
            z = ds[int(rng.integers(len(ds)))]

            def composite(ww):
                a = float(ww @ m.u)
                b = float(ww @ m.v)
                return saddle_value(ww, a, b, b - a, z, m.p)

            a = float(w @ m.u)
            b = float(w @ m.v)
            gw, ga, gb, galpha = saddle_grad(w, a, b, b - a, z, m.p)
            chain = ga * m.u + gb * m.v + galpha * (m.v - m.u)
            fd = central_diff(composite, w, 1e-5 * (1 + np.linalg.norm(w)))
            np.testing.assert_allclose(fd - chain, gw, rtol=1e-5, atol=1e-7)

    def test_close_to_streaming_learner_on_gaussian_task(self):
        ds = gaussian_task(2, n=4000, d=20)
        tr, te = split(ds, 0.2, seed=2)
        cfg = config(schedule=PracticalSchedule(30.0), regularizer=l2(1e-4),
                     epochs=3, seed=2, eval_every=10**9)
        _, spauc_trace = train(tr, cfg, test_data=te)
        _, spam_trace = run_baseline("spam", tr, cfg, test_data=te)
        assert abs(spauc_trace[-1].test_auc - spam_trace[-1].test_auc) <= 0.02


class TestSolam:
    def test_projection_keeps_w_in_ball(self):
        rng = np.random.default_rng(3)
        radius = 0.05
        learner = SolamTrainer(4, config(schedule=PracticalSchedule(0.5)), radius)
        for _ in range(50):
            y = 1 if rng.random() < 0.5 else -1
            learner.step(sparse_example(rng, 4, y))
            assert np.linalg.norm(learner.w) <= radius * (1 + 1e-12)

    def test_feasibility_invariants_on_random_stream(self):
        rng = np.random.default_rng(4)
        radius = 2.0
        learner = SolamTrainer(5, config(schedule=PracticalSchedule(1.0)), radius)
        for _ in range(300):
            y = 1 if rng.random() < 0.3 else -1
            learner.step(sparse_example(rng, 5, y))
            bound = learner.kappa * radius
            assert np.linalg.norm(learner.w) <= radius * (1 + 1e-12)
            assert abs(learner.a) <= bound and abs(learner.b) <= bound
            assert abs(learner.alpha) <= 2 * bound

    def test_matches_spam_direction_at_closed_form_variables(self):
        rng = np.random.default_rng(5)
        d = 4
        ds = random_dataset(rng, n=30, d=d)
        moments = exact_snapshot(ds)
        cfg = config()
        spam = SpamTrainer(d, cfg, moments)
        solam = SolamTrainer(d, cfg, radius=np.inf)
        w0 = rng.normal(size=d)
        spam.w = w0.copy()
        solam.w = w0.copy()
        # make the primal-dual learner see the same moments and the
        # closed-form auxiliary variables the other method plugs in
        solam.n_pos, solam.n = ds.n_pos, len(ds)
        solam.a = float(w0 @ moments.u)
        solam.b = float(w0 @ moments.v)
        solam.alpha = solam.b - solam.a
        z = ds[3]
        spam.step(z)
        solam.step(z)
        np.testing.assert_allclose(solam.w, spam.w, rtol=1e-12)

    def test_composed_loop_is_bit_identical(self):
        # the long initial steps make the ball projection and all three
        # clamps fire on this stream; states are compared after every
        # example, since the dynamics forget a clamp within some tens of steps
        rng = np.random.default_rng(8)
        d, radius = 5, 0.3
        labels = [1, 1, 1] + [1 if rng.random() < 0.35 else -1 for _ in range(250)]
        stream = [sparse_example(rng, d, y) for y in labels]
        sched = PracticalSchedule(0.01)
        learner = SolamTrainer(d, config(schedule=sched), radius)
        got = []
        for z in stream:
            learner.step(z)
            got.append((learner.w.tobytes(), learner.t, learner.a.hex(),
                        learner.b.hex(), learner.alpha.hex()))

        stats = ClassStats(d)
        w, t, a, b, alpha, kappa = np.zeros(d), 0, 0.0, 0.0, 0.0, 1.0
        projected, clamped = 0, np.zeros(3, dtype=int)
        want = []
        for z in stream:
            kappa = max(kappa, z.norm())
            if not stats.ready:
                stats.update(z)
                want.append((w.tobytes(), t, a.hex(), b.hex(), alpha.hex()))
                continue
            snap = stats.snapshot()
            eta = sched.step_size(t + 1)
            gw, ga, gb, galpha = saddle_grad(w, a, b, alpha, z, snap.p)
            w = w - eta * gw
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
                projected += 1
            bound = kappa * radius
            clamped += np.abs([a - eta * ga, b - eta * gb, alpha + eta * galpha]) \
                > [bound, bound, 2 * bound]
            a = float(np.clip(a - eta * ga, -bound, bound))
            b = float(np.clip(b - eta * gb, -bound, bound))
            alpha = float(np.clip(alpha + eta * galpha, -2 * bound, 2 * bound))
            stats.update(z)
            t += 1
            want.append((w.tobytes(), t, a.hex(), b.hex(), alpha.hex()))
        assert projected > 0 and clamped.all() and t >= 200
        assert got == want

    def test_reaches_good_auc_on_gaussian_task(self):
        ds = gaussian_task(6, n=4000, d=20)
        tr, te = split(ds, 0.2, seed=6)
        cfg = config(schedule=PracticalSchedule(30.0), epochs=5, seed=6,
                     eval_every=10**9)
        _, trace = run_baseline("solam", tr, cfg, radius=100.0, test_data=te)
        assert trace[-1].test_auc >= 0.93


class TestRunBaseline:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=50, d=4)
        cfg = config(epochs=2, seed=11, eval_every=25)
        for algo in ("spam", "solam"):
            w1, t1 = run_baseline(algo, ds, cfg)
            w2, t2 = run_baseline(algo, ds, cfg)
            assert np.array_equal(w1, w2)
            assert [p.step for p in t1] == [p.step for p in t2]

    def test_spam_time_includes_moment_pass(self, monkeypatch):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=30, d=4)
        real = baselines.exact_snapshot

        def slow_snapshot(dataset):
            time.sleep(0.05)
            return real(dataset)

        monkeypatch.setattr(baselines, "exact_snapshot", slow_snapshot)
        _, trace = run_baseline("spam", ds, config(eval_every=10))
        assert trace[0].elapsed_sec >= 0.05

    def test_trace_schema_shared_with_trainer(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=30, d=4)
        cfg = config(eval_every=10)
        _, trace = run_baseline("spam", ds, cfg, test_data=ds, objective_data=ds)
        assert all(isinstance(p, TracePoint) for p in trace)
        assert all(p.test_auc is not None and p.objective is not None for p in trace)

    def test_unknown_algorithm(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, n=10, d=3)
        with pytest.raises(ValueError) as exc:
            run_baseline("fsauc", ds, config())
        msg = str(exc.value)
        for name in ("spauc", "spam", "solam", "opauc", "oam", "fsauc"):
            assert name in msg

    def test_single_class_rejected(self):
        from aucstream.data import Dataset
        from conftest import dense_example
        ds = Dataset.from_examples([dense_example([1.0], 1)] * 3)
        with pytest.raises(ValueError):
            run_baseline("spam", ds, config())


def test_unknown_algorithm_message_names_unimplemented():
    msg = unknown_algorithm_message("oam")
    assert "opauc" in msg and "oam" in msg and "fsauc" in msg
