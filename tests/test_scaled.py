"""The O(nnz) scaled-vector learners (w = sigma * r) against the dense
SpamTrainer and SolamTrainer they stand in for: drift over long streams,
the fold of sigma back into r, and divergence at the same iteration; and
the learner run_algorithm picks for each algorithm and penalty."""

import math

import numpy as np
import pytest

import aucstream.baselines as baselines
from aucstream.baselines import (FastSolamTrainer, FastSpamTrainer,
                                 SolamTrainer, SpamTrainer, run_algorithm)
from aucstream.data import Dataset
from aucstream.objective import saddle_grad
from aucstream.regularizers import l1, l2, none_reg
from aucstream.schedules import PolySchedule, PracticalSchedule
from aucstream.stats import StatsSnapshot, exact_snapshot
from aucstream.trainer import (AVERAGES, DivergenceError, FastSpaucTrainer,
                               IterateAverages, L1SpaucTrainer, ScaledLearner,
                               SpaucTrainer, TrainConfig, stream_run)

from conftest import dense_example, random_dataset, sparse_example

DRIFT_BOUND = 1e-9


def config(reg=None, schedule=None, radius=0.3, **kw):
    return TrainConfig(regularizer=reg or none_reg(),
                       schedule=schedule or PracticalSchedule(0.01), radius=radius, **kw)


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def pair(algo, d, cfg, moments=None):
    """A dense learner and its scaled sibling under one configuration."""
    if algo == "spam":
        return SpamTrainer(d, cfg, moments), FastSpamTrainer(d, cfg, moments)
    return SolamTrainer(d, cfg), FastSolamTrainer(d, cfg)


class TestDrift:
    """After 10^5 steps the scaled learners hold the dense iterate (the
    "last" model) and its two running averages to a relative error of
    DRIFT_BOUND, with the same step count."""

    @pytest.mark.parametrize("algo,reg", [("spam", none_reg()), ("spam", l2(0.1)),
                                          ("solam", none_reg())],
                             ids=["spam-none", "spam-l2", "solam"])
    def test_long_stream(self, algo, reg):
        rng = np.random.default_rng(20)
        d, t1, steps = 4, 3.0, 10**5
        ds = random_dataset(rng, n=200, d=d, pos_fraction=0.35)
        rows = list(ds)
        stream = [rows[i] for i in rng.integers(len(rows), size=steps)]
        sched = PracticalSchedule(0.01)
        moments = exact_snapshot(ds)
        # at radius 0.3 solam's projection fires throughout the stream
        dense, _ = pair(algo, d, config(reg, sched), moments)
        # the iterate does not depend on the configured average (see
        # test_average_leaves_iterate_alone), so these two also stand for
        # the learner configured with "last"
        fast = {avg: pair(algo, d, config(reg, sched, average=avg, t1=t1), moments)[1]
                for avg in ("avg1", "avg2")}
        iterates = np.zeros((steps, d))
        for z in stream:
            dense.step(z)
            iterates[dense.t - 1] = dense.w
            for learner in fast.values():
                learner.step(z)
        iterates = iterates[:dense.t]
        ks = np.arange(1, dense.t + 1)
        weights = {"avg1": 2.0 / (0.01 * ks + 1.0), "avg2": ks + t1 + 1.0}
        for avg, learner in fast.items():
            assert learner.t == dense.t
            assert rel_err(learner.w, dense.w) <= DRIFT_BOUND
            want = weights[avg] @ iterates / weights[avg].sum()
            assert rel_err(learner.model(), want) <= DRIFT_BOUND
        if algo == "solam":
            norms = np.linalg.norm(iterates, axis=1)
            assert np.isclose(norms, 0.3, rtol=1e-12).sum() >= 1000

    @pytest.mark.parametrize("algo,reg", [("spam", l2(0.1)), ("solam", none_reg())])
    def test_average_leaves_iterate_alone(self, algo, reg):
        rng = np.random.default_rng(21)
        d = 4
        ds = random_dataset(rng, n=100, d=d, pos_fraction=0.35)
        moments = exact_snapshot(ds)
        learners = [pair(algo, d, config(reg, average=avg), moments)[1]
                    for avg in AVERAGES]
        for i in rng.integers(len(ds), size=3000):
            for learner in learners:
                learner.step(ds[i])
        last = learners[0]
        assert all(learner.t == last.t for learner in learners)
        assert all(learner.w.tobytes() == last.w.tobytes() for learner in learners)
        assert last.model().tobytes() == last.w.tobytes()


LEARNERS = {  # name -> (class, penalty, whether it needs the data's moments)
    "spauc": (SpaucTrainer, l2(0.1), False),
    "spauc-l1": (L1SpaucTrainer, l1(0.01), False),
    "spam": (SpamTrainer, l1(0.01), True),
    "solam": (SolamTrainer, none_reg(), False),
    "fast-spauc": (FastSpaucTrainer, l2(0.1), False),
    "fast-spam": (FastSpamTrainer, l2(0.1), True),
    "fast-solam": (FastSolamTrainer, none_reg(), False),
}


def stepped(name, average, steps=300):
    """A learner of LEARNERS[name] after `steps` seeded random rows."""
    rng = np.random.default_rng(40)
    ds = random_dataset(rng, n=50, d=6, pos_fraction=0.35)
    cls, reg, needs_moments = LEARNERS[name]
    cfg = config(reg, average=average, t1=2.0)
    learner = cls(ds.dim, cfg, exact_snapshot(ds)) if needs_moments else cls(ds.dim, cfg)
    for i in rng.integers(len(ds), size=steps):
        learner.step(ds[i])
    return learner


class TestModel:
    @pytest.mark.parametrize("average", AVERAGES)
    @pytest.mark.parametrize("name", list(LEARNERS))
    def test_returned_model_is_the_callers(self, name, average):
        # the model is a new array: writing to it changes neither the
        # iterate nor a later model
        learner = stepped(name, average)
        w, model = learner.w.copy(), learner.model()
        again = model.copy()
        if average == "last":
            assert model.tobytes() == w.tobytes()
        model[:] = 123.0
        assert learner.w.tobytes() == w.tobytes()
        assert learner.model().tobytes() == again.tobytes()

    @pytest.mark.parametrize("average", ["avg1", "avg2"])
    @pytest.mark.parametrize("name", ["fast-spauc", "fast-spam", "fast-solam"])
    def test_average_does_not_build_the_iterate(self, name, average, monkeypatch):
        # a scaled learner's w costs O(d) to build; an averaged model has
        # no use for it
        learner = stepped(name, average)
        want = learner.model()
        monkeypatch.setattr(type(learner), "w", property(
            lambda self: pytest.fail("model() built the iterate")))
        assert learner.model().tobytes() == want.tobytes()


class TestFold:
    def test_tiny_scale_folds_back_into_r(self):
        # the projection shrinks sigma on nearly every step here; without
        # the fold it underflows to 0 within the stream and the next step
        # divides by it
        rng = np.random.default_rng(30)
        d, steps = 8, 3000
        labels = [1, -1] + [1 if rng.random() < 0.35 else -1 for _ in range(steps - 2)]
        stream = [dense_example(rng.uniform(-1.0, 1.0, d), y) for y in labels]
        cfg = config(average="avg2")
        dense, fast = pair("solam", d, cfg)
        folds = []
        fold = fast.fold
        fast.fold = lambda: (folds.append(fast.sigma), fold())
        for z in stream:
            dense.step(z)
            fast.step(z)
        assert sum(sigma < ScaledLearner.FOLD_BELOW for sigma in folds) >= 3
        assert fast.t == dense.t
        assert rel_err(fast.w, dense.w) <= DRIFT_BOUND
        assert rel_err(fast.model(), dense.model()) <= DRIFT_BOUND

    def test_overflowing_norm_projects_to_zero(self):
        # ||w||^2 overflows to inf, so the dense projection multiplies w by
        # R / inf = 0; the scaled learner folds its scale 0 into r
        rng = np.random.default_rng(31)
        d = 8
        stream = [dense_example(1e160 * rng.uniform(0.5, 1.0, d), y)
                  for y in (1, -1, 1, -1, -1)]
        dense, fast = pair("solam", d, config())
        with np.errstate(over="ignore"):
            for z in stream[:2]:
                dense.step(z)
                fast.step(z)
            gw = saddle_grad(dense.w, 0.0, 0.0, 0.0, stream[2], dense.n_pos / dense.n)[0]
            assert np.linalg.norm(gw) == np.inf
            for z in stream[2:]:
                dense.step(z)
                fast.step(z)
        assert fast.t == dense.t == 3
        assert not dense.w.any() and not fast.w.any()
        assert fast.sigma == 1.0 and fast.rr == 0.0

    def test_overflowing_r_norm_is_taken_from_w(self):
        # at sigma = 1e-100, ||r||^2 overflows where the dense ||w||^2 does
        # not; the fold computes it from w, so the projection matches
        d = 3
        dense, fast = pair("solam", d, config())
        for z in (dense_example([1.0, 0.0, 0.0], 1), dense_example([0.0, 1.0, 0.0], -1)):
            dense.step(z)  # warm-up: no step yet
            fast.step(z)
        w0 = np.array([0.1, -0.1, 0.05])
        dense.w = w0.copy()
        fast.r, fast.sigma = w0 / 1e-100, 1e-100
        fast.refresh()
        z = dense_example([1e60, 0.0, 1e60], 1)
        with np.errstate(over="ignore"):
            dense.step(z)
            fast.step(z)
        assert np.linalg.norm(dense.w) == pytest.approx(0.3)
        assert rel_err(fast.w, dense.w) <= 1e-12


def divergence_cases():
    """The divergence test's stream, then random streams that blow up."""
    rng = np.random.default_rng(7)
    examples = [dense_example(100.0 * rng.normal(size=4), 1 if i % 2 else -1)
                for i in range(50)]
    yield Dataset.from_examples(examples), PolySchedule(eta1=5.0, theta=0.51)
    for seed in range(6):
        rng = np.random.default_rng([40, seed])
        d, n = int(rng.integers(2, 12)), int(rng.integers(10, 60))
        scale = 10.0 ** rng.uniform(1, 3)
        examples = [sparse_example(rng, d, 1 if i % 2 else -1) for i in range(n)]
        examples = [z._replace(values=scale * z.values) for z in examples]
        yield (Dataset.from_examples(examples, dim=d),
               PolySchedule(eta1=float(10 ** rng.uniform(0, 1)), theta=0.51))


class TestDivergence:
    @pytest.mark.parametrize("reg", [none_reg(), l2(1e-3), l2(0.3)],
                             ids=["none", "l2-small", "l2-large"])
    @pytest.mark.parametrize("case", range(7))
    def test_same_iteration_as_dense(self, reg, case):
        ds, sched = list(divergence_cases())[case]
        cfg = config(reg, sched, epochs=50)
        moments = exact_snapshot(ds)
        errors = []
        for learner in pair("spam", ds.dim, cfg, moments):
            with pytest.raises(DivergenceError) as exc:
                stream_run(learner, ds)
            errors.append(exc.value)
        dense, fast = errors
        assert fast.iteration == dense.iteration
        assert np.isfinite(fast.last_weight).all()
        scale = np.abs(dense.last_weight).max()
        assert np.abs(fast.last_weight - dense.last_weight).max() <= DRIFT_BOUND * scale


    def test_step_overflowing_in_c_times_x(self):
        # c * x overflows while c * (eta * x) would not: the dense learner
        # diverges at this step, and so must the scaled one; solam takes no
        # step on its warm-up, after which its prior is 0.1
        moments = StatsSnapshot(0.05, np.zeros(1), np.zeros(1), True)
        warm_ups = {"spam": [],
                    "solam": [dense_example([0.0], y) for y in [-1] * 9 + [1]]}
        z = dense_example([1e308], 1)
        cfg = config(schedule=PracticalSchedule(3.0))  # eta_1 = 0.5
        for algo, warm_up in warm_ups.items():
            for learner in pair(algo, 1, cfg, moments):
                for example in warm_up:
                    learner.step(example)
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(DivergenceError) as exc:
                    learner.step(z)
                assert exc.value.iteration == 1
                assert not exc.value.last_weight.any()


class TestWarmUp:
    @pytest.mark.parametrize("cls", [FastSpaucTrainer, FastSolamTrainer],
                             ids=["spauc", "solam"])
    def test_warm_up_costs_no_refresh(self, monkeypatch, cls):
        # before both classes are seen an example is only absorbed or
        # counted, in O(nnz(x)): no fold, and one refresh when warm-up ends
        d = 10**5
        rng = np.random.default_rng(5)
        args = (d, config(l2(1e-4)))
        learner = cls(*args)
        dense = (SpaucTrainer if cls is FastSpaucTrainer else SolamTrainer)(*args)
        calls = []
        real = cls.refresh

        def spy(self):
            calls.append(self.t)
            real(self)
        monkeypatch.setattr(cls, "refresh", spy)
        stream = [sparse_example(rng, d, -1, density=5e-4) for _ in range(50)]
        stream += [sparse_example(rng, d, 1, density=5e-4) for _ in range(2)]
        for z in stream[:50]:
            learner.step(z)
            dense.step(z)
        assert calls == []
        for z in stream[50:]:
            learner.step(z)
            dense.step(z)
        assert calls == [0]  # warm-up ended; the last example took a fast step
        assert learner.t == dense.t == 1
        assert rel_err(learner.w, dense.w) <= 1e-12


ROUTES = {("spauc", "none"): FastSpaucTrainer, ("spauc", "l2"): FastSpaucTrainer,
          ("spauc", "l1"): L1SpaucTrainer, ("spam", "none"): FastSpamTrainer,
          ("spam", "l2"): FastSpamTrainer, ("spam", "l1"): SpamTrainer,
          ("solam", "none"): FastSolamTrainer, ("solam", "l2"): FastSolamTrainer,
          ("solam", "l1"): FastSolamTrainer}
PENALTIES = {"none": none_reg(), "l2": l2(0.1), "l1": l1(0.1)}


class TestRouting:
    @pytest.mark.parametrize("algo,kind", ROUTES, ids=[f"{a}-{k}" for a, k in ROUTES])
    def test_run_algorithm_picks_learner(self, monkeypatch, algo, kind):
        seen = []
        real = baselines.stream_run

        def spy(learner, *args, **kwargs):
            seen.append(type(learner))
            return real(learner, *args, **kwargs)

        monkeypatch.setattr(baselines, "stream_run", spy)
        rng = np.random.default_rng(50)
        run_algorithm(algo, random_dataset(rng, n=30, d=4), config(PENALTIES[kind]))
        assert seen == [ROUTES[algo, kind]]

    def test_scaled_spam_rejects_l1(self):
        rng = np.random.default_rng(51)
        moments = exact_snapshot(random_dataset(rng, n=10, d=3))
        with pytest.raises(ValueError, match="l1"):
            FastSpamTrainer(3, config(l1(0.1)), moments)


class TestLazyAverage:
    @pytest.mark.parametrize("kind", ["avg1", "avg2"])
    def test_matches_definition_while_scale_decays(self, kind):
        # a shrinking scale makes the running mass outgrow its new terms;
        # the average closes epochs of the mass, in O(1), and stays exact
        # without settling every coordinate
        rng = np.random.default_rng(60)
        d, t1 = 6, 2.0
        averages = IterateAverages(d, kind, t1)
        flushes = []
        flush = averages.flush
        averages.flush = lambda vectors: (flushes.append(averages.mass[0]), flush(vectors))
        r, sigma = np.zeros(d), 1.0
        weights, iterates = [], []
        for step in range(1, 401):
            idx = np.flatnonzero(rng.random(d) < 0.4)
            averages.touch(idx, r[idx])
            r[idx] = rng.normal(size=len(idx))
            sigma *= 0.9
            eta = 1.0 / step
            averages.add_scaled((sigma,), eta, step)
            weights.append(eta if kind == "avg1" else step + t1 + 1.0)
            iterates.append(sigma * r)
        assert averages.since.size > 3 and not flushes
        averages.flush((r,))
        want = np.array([math.fsum(w * x[j] for w, x in zip(weights, iterates))
                         for j in range(d)]) / math.fsum(weights)
        assert rel_err(averages.get(), want) <= 1e-12

    @pytest.mark.parametrize("kind", ["avg1", "avg2"])
    def test_signed_parts_and_a_steep_scale(self, kind):
        # three parts, as for spauc: the scale falls by 2^200 over the
        # stream, and the other two coefficients change sign
        rng = np.random.default_rng(61)
        d, t1 = 5, 1.0
        averages = IterateAverages(d, kind, t1, parts=3)
        vectors = [np.zeros(d) for _ in range(3)]
        coefs = [1.0, 0.0, 0.0]
        weights, iterates, signs = [], [], set()
        for step in range(1, 201):
            for part, v in enumerate(vectors):
                idx = np.flatnonzero(rng.random(d) < 0.3)
                averages.touch(idx, v[idx], part)
                v[idx] = rng.normal(size=len(idx))
            coefs[0] *= 0.5
            coefs[1] = float(rng.normal())
            coefs[2] = coefs[2] + float(rng.normal())
            signs.update((part, c > 0) for part, c in enumerate(coefs))
            eta = 1.0 / step
            averages.add_scaled(tuple(coefs), eta, step)
            weights.append(eta if kind == "avg1" else step + t1 + 1.0)
            iterates.append(sum(c * v for c, v in zip(coefs, vectors)))
        assert averages.since.size > 10
        assert {(1, True), (1, False), (2, True), (2, False)} <= signs
        averages.flush(tuple(vectors))
        want = np.array([math.fsum(w * x[j] for w, x in zip(weights, iterates))
                         for j in range(d)]) / math.fsum(weights)
        assert rel_err(averages.get(), want) <= 1e-12
