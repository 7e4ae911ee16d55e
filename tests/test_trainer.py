import warnings

import numpy as np
import pytest

from aucstream.baselines import SolamTrainer
from aucstream.bench import run_algorithm
from aucstream.data import Dataset, split
from aucstream.metrics import auc
from aucstream.objective import surrogate_grad
from aucstream.regularizers import l2, none_reg
from aucstream.schedules import FastRateSchedule, PolySchedule, PracticalSchedule
from aucstream.stats import ClassStats
from aucstream.trainer import (DivergenceError, Learner, SpaucTrainer, TrainConfig,
                               load_model, save_model, stream_run, train)

from conftest import (dense_example, gaussian_task, pairwise_quadratic,
                      random_dataset, sparse_example)


def config(schedule=None, reg=None, **kw):
    return TrainConfig(regularizer=reg or none_reg(),
                       schedule=schedule or PracticalSchedule(10.0), **kw)


def fixed_stream(rng, labels, d=4):
    return [sparse_example(rng, d, y) for y in labels]


def states(learner, examples):
    """Bit patterns of the learner's state after each example: the iterate,
    the step count and, for solam, the auxiliary variables a, b, alpha."""
    out = []
    for z in examples:
        learner.step(z)
        aux = [getattr(learner, name, 0.0).hex() for name in ("a", "b", "alpha")]
        out.append((learner.w.tobytes(), learner.t, *aux))
    return out


class TestCausality:
    """Step t depends only on examples 1..t: permuting the stream after
    position k leaves the first k states bit-identical."""

    @pytest.mark.parametrize("algo", ["spauc", "solam"])
    @pytest.mark.parametrize("seed", range(6))
    def test_permuting_later_examples_keeps_earlier_iterates(self, algo, seed):
        rng = np.random.default_rng(seed)
        n, d = 40, 6
        examples = fixed_stream(rng, rng.choice([1, -1], size=n), d)
        k = int(rng.integers(2, n - 5))
        tail = [examples[k + i] for i in rng.permutation(n - k)]
        cfg = config(reg=l2(0.05), schedule=PracticalSchedule(1.0))

        def fresh():
            return SpaucTrainer(d, cfg) if algo == "spauc" else SolamTrainer(d, cfg, 5.0)

        before = states(fresh(), examples)
        after = states(fresh(), examples[:k] + tail)
        assert after[:k] == before[:k]
        assert after[k:] != before[k:]  # the permuted tail does matter


class TestStep:
    def test_warmup_absorbs_until_both_classes(self):
        rng = np.random.default_rng(0)
        learner = SpaucTrainer(4, config())
        z1, z2, z3 = fixed_stream(rng, [1, -1, 1])
        learner.step(z1)
        assert learner.t == 0 and not learner.stats.ready
        np.testing.assert_array_equal(learner.w, np.zeros(4))
        learner.step(z2)
        assert learner.t == 0 and learner.stats.ready
        np.testing.assert_array_equal(learner.w, np.zeros(4))
        # first proximal step sees the prior built from the first two examples
        assert learner.stats.snapshot().p == 0.5
        learner.step(z3)
        assert learner.t == 1
        assert np.any(learner.w != 0)

    def test_unregularized_step_is_plain_gradient_descent(self):
        rng = np.random.default_rng(1)
        cfg = config()
        learner = SpaucTrainer(4, cfg)
        z1, z2, z3 = fixed_stream(rng, [1, -1, -1])
        learner.step(z1)
        learner.step(z2)
        snap = learner.stats.snapshot()
        eta = cfg.schedule.step_size(1)
        expected = -eta * surrogate_grad(np.zeros(4), z3, snap)
        learner.step(z3)
        np.testing.assert_array_equal(learner.w, expected)

    def test_composed_loop_is_bit_identical(self):
        rng = np.random.default_rng(2)
        d = 5
        stream = fixed_stream(rng, [1, -1, -1, 1, 1, -1, 1, -1, 1], d=d)
        reg = l2(0.05)
        sched = PracticalSchedule(5.0)
        learner = SpaucTrainer(d, config(schedule=sched, reg=reg))
        for z in stream:
            learner.step(z)

        stats = ClassStats(d)
        w = np.zeros(d)
        t = 0
        for z in stream:
            if not stats.ready:
                stats.update(z)
                continue
            eta = sched.step_size(t + 1)
            g = surrogate_grad(w, z, stats.snapshot())
            w = reg.prox(w - eta * g, eta)
            stats.update(z)
            t += 1
        assert learner.t == t
        assert np.array_equal(learner.w, w)

    def test_t_counts_steps_after_ready(self):
        rng = np.random.default_rng(3)
        learner = SpaucTrainer(4, config())
        for z in fixed_stream(rng, [1, 1, 1, -1, 1, -1]):
            learner.step(z)
        assert learner.t == 2  # four warm-up examples, two proximal steps


class TestAverages:
    def test_incremental_matches_definitions(self):
        rng = np.random.default_rng(4)
        t1 = 3.5
        sched = PracticalSchedule(2.0)
        learners = {kind: SpaucTrainer(4, config(schedule=sched, average=kind,
                                                 t1=t1))
                    for kind in ("avg1", "avg2")}
        learner = learners["avg1"]
        iterates, etas = [], []
        for z in fixed_stream(rng, [1, -1] + [1 if rng.random() < 0.5 else -1
                                              for _ in range(100)]):
            before = learner.t
            for each in learners.values():
                each.step(z)
            if learner.t > before:
                iterates.append(learner.w.copy())
                etas.append(sched.step_size(learner.t))
        etas = np.array(etas)
        ws = np.array(iterates)
        ks = np.arange(1, len(ws) + 1)
        avg1 = (etas[:, None] * ws).sum(axis=0) / etas.sum()
        weights2 = ks + t1 + 1.0
        avg2 = (weights2[:, None] * ws).sum(axis=0) / weights2.sum()
        np.testing.assert_allclose(learners["avg1"].model(), avg1, rtol=1e-10)
        np.testing.assert_allclose(learners["avg2"].model(), avg2, rtol=1e-10)

    def test_avg2_offset_defaults_to_fastrate_t1(self):
        sched = FastRateSchedule(0.5, 0.5, t1=42.0)
        assert config(schedule=sched).resolved_t1() == 42.0
        assert config().resolved_t1() == 0.0
        assert config(t1=7.0).resolved_t1() == 7.0

    def test_model_before_any_step_is_zero(self):
        learner = SpaucTrainer(3, config(average="avg1"))
        np.testing.assert_array_equal(learner.model(), np.zeros(3))


class TestTrain:
    def test_no_signal_data_scores_half(self):
        x = [1.0, -2.0, 0.5]
        examples = [dense_example(x, 1 if i % 2 else -1) for i in range(40)]
        ds = Dataset.from_examples(examples)
        w, _ = train(ds, config(epochs=3, seed=1))
        assert auc(ds.scores(w), ds.labels) == 0.5

    def test_gaussian_task_reaches_high_auc(self):
        ds = gaussian_task(5, n=3000, d=20)
        tr, te = split(ds, 0.2, seed=5)
        cfg = config(schedule=PracticalSchedule(30.0), epochs=3, seed=5,
                     eval_every=2000)
        w, trace = train(tr, cfg, test_data=te)
        assert trace[-1].test_auc >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=60, d=5)
        cfg = config(epochs=2, seed=9, eval_every=20)
        w1, trace1 = train(ds, cfg, objective_data=ds)
        w2, trace2 = train(ds, cfg, objective_data=ds)
        assert np.array_equal(w1, w2)
        assert [p.step for p in trace1] == [p.step for p in trace2]
        assert [p.objective for p in trace1] == [p.objective for p in trace2]

    def test_single_class_rejected_before_looping(self):
        ds = Dataset.from_examples([dense_example([1.0], 1)] * 4)
        with pytest.raises(ValueError):
            train(ds, config())

    @pytest.mark.parametrize("algo", ["spauc", "spam"])
    def test_divergence_raises_structured_error(self, algo):
        rng = np.random.default_rng(7)
        examples = [dense_example(100.0 * rng.normal(size=4),
                                  1 if i % 2 else -1) for i in range(50)]
        ds = Dataset.from_examples(examples)
        cfg = config(schedule=PolySchedule(eta1=5.0, theta=0.51), epochs=50)
        with pytest.raises(DivergenceError) as exc:
            run_algorithm(algo, ds, cfg)
        assert exc.value.iteration >= 1
        assert str(exc.value.iteration) in str(exc.value)
        assert np.isfinite(exc.value.last_weight).all()

    def test_trace_cadence_and_final_point(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=25, d=4)
        cfg = config(epochs=1, eval_every=10, seed=0)
        _, trace = train(ds, cfg)
        steps = [p.step for p in trace]
        assert steps[:2] == [10, 20]
        assert steps[-1] == trace[-1].step and steps[-1] > 20
        assert steps == sorted(set(steps))

    def test_objective_trend_decreases_with_fastrate(self):
        ds = gaussian_task(9, n=4000, d=10)
        scale, _, m = pairwise_quadratic(ds)
        sigma_phi = scale * float(np.linalg.eigvalsh(m)[0])
        from aucstream.objective import dataset_kappa
        t1 = 4.0 * 16.0 * dataset_kappa(ds) ** 2 / sigma_phi
        cfg = config(schedule=FastRateSchedule(sigma_phi, sigma_phi, t1),
                     epochs=2, seed=3, eval_every=200)
        _, trace = train(ds, cfg, objective_data=ds)
        objs = [p.objective for p in trace]
        k = max(1, len(objs) // 10)
        assert np.median(objs[-k:]) < np.median(objs[:k])

    def test_time_offset_is_carried_into_trace(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, n=20, d=3)
        cfg = config(epochs=1, eval_every=5)
        learner = SpaucTrainer(ds.dim, cfg)
        _, trace = stream_run(learner, ds, cfg, time_offset=5.0)
        assert all(p.elapsed_sec >= 5.0 for p in trace)

    def test_final_trace_point_is_under_the_overflow_policy(self):
        # huge but finite weights pass the divergence check; scoring them
        # overflows, and the run's numpy policy keeps that silent
        class Huge(Learner):
            def step(self, z):
                self.accept(np.full(len(self.w), 1e200), 1.0)

        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=20, d=3)
        cfg = config(epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = stream_run(Huge(ds.dim, cfg), ds, cfg, objective_data=ds)
        assert [p.step for p in trace] == [20]


class TestModelPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        w = rng.normal(size=7)
        path = tmp_path / "model.json"
        save_model(path, w, {"note": "test"})
        w2, meta = load_model(path)
        assert np.array_equal(w, w2)
        assert meta == {"note": "test"}

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99, "d": 1, "weights": [0.0]}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1, "d": 2, "weights": [0.0]}')
        with pytest.raises(ValueError):
            load_model(path)


def test_config_validation():
    with pytest.raises(ValueError):
        config(epochs=0)
    with pytest.raises(ValueError):
        config(eval_every=0)
    with pytest.raises(ValueError):
        config(average="median")
