"""The spauc learners that keep the class sums, against the dense
SpaucTrainer they stand in for: the O(nnz) FastSpaucTrainer
(w = sigma * r + A * S+ + B * S-) for no penalty and l2, and
L1SpaucTrainer for l1. Drift over long streams, the fold when the parts
outgrow the iterate, the dense fallback for huge weights, divergence at the
same iteration, and no d-sized allocation in an l1 step."""

import tracemalloc

import numpy as np
import pytest

from aucstream.data import Dataset
from aucstream.regularizers import l1, l2, none_reg
from aucstream.schedules import PolySchedule, PracticalSchedule
from aucstream.trainer import (AVERAGES, DivergenceError, FastSpaucTrainer,
                               L1SpaucTrainer, SpaucTrainer, TrainConfig,
                               stream_run)

from conftest import dense_example, random_dataset, sparse_example

DRIFT_BOUND = 1e-9


def config(reg=None, schedule=None, **kw):
    return TrainConfig(regularizer=reg or none_reg(),
                       schedule=schedule or PracticalSchedule(0.01), **kw)


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def recording(learner, name):
    """Record what each call of one of the learner's methods returns."""
    returns = []
    method = getattr(learner, name)
    setattr(learner, name, lambda *args: (returns.append(method(*args)), returns[-1])[1])
    return returns


def sums_learner(reg):
    """The class run_algorithm picks for spauc under the penalty."""
    return L1SpaucTrainer if reg.kind == "l1" else FastSpaucTrainer


class TestDrift:
    """After 10^5 steps the fast learner holds the dense iterate (the "last"
    model) and its two running averages to a relative error of
    DRIFT_BOUND, with the same step count."""

    @pytest.mark.parametrize("reg,average", [(none_reg(), "avg1"), (l2(0.1), "avg2")],
                             ids=["none-avg1", "l2-avg2"])
    def test_long_stream(self, reg, average):
        # the iterate does not depend on the configured average (see
        # test_average_leaves_iterate_alone), and the lazy average does not
        # depend on the penalty, so these two runs stand for all six pairs
        # of penalty and average while keeping to one fast learner each
        rng = np.random.default_rng(70)
        d, t1, steps = 4, 3.0, 10**5
        ds = random_dataset(rng, n=200, d=d, pos_fraction=0.35)
        rows = list(ds)
        dense = SpaucTrainer(d, config(reg))
        fast = FastSpaucTrainer(d, config(reg, average=average, t1=t1))
        iterates = np.zeros((steps, d))
        for i in rng.integers(len(rows), size=steps):
            dense.step(rows[i])
            iterates[dense.t - 1] = dense.w
            fast.step(rows[i])
        iterates = iterates[:dense.t]
        ks = np.arange(1, dense.t + 1)
        weights = 2.0 / (0.01 * ks + 1.0) if average == "avg1" else ks + t1 + 1.0
        assert fast.t == dense.t
        assert rel_err(fast.w, dense.w) <= DRIFT_BOUND
        assert rel_err(fast.model(), weights @ iterates / weights.sum()) <= DRIFT_BOUND

    def test_l1_long_stream(self):
        # the l1 learner adds every iterate to the average as the dense one
        # does; avg1 and avg2 runs also hold the last iterate
        rng = np.random.default_rng(73)
        d, t1, steps = 4, 3.0, 10**5
        ds = random_dataset(rng, n=200, d=d, pos_fraction=0.35)
        rows = list(ds)
        dense = SpaucTrainer(d, config(l1(0.08)))
        sums = [L1SpaucTrainer(d, config(l1(0.08), average=average, t1=t1))
                for average in ("avg1", "avg2")]
        taken = [recording(learner, "sums_step") for learner in sums]
        iterates = np.zeros((steps, d))
        zeros = 0
        for i in rng.integers(len(rows), size=steps):
            dense.step(rows[i])
            iterates[dense.t - 1] = dense.w
            zeros += int((dense.w == 0.0).sum())
            for learner in sums:
                learner.step(rows[i])
        iterates = iterates[:dense.t]
        ks = np.arange(1, dense.t + 1)
        assert zeros >= steps  # the soft-threshold zeroes weights on this stream
        for learner, average, took in zip(sums, ("avg1", "avg2"), taken):
            weights = 2.0 / (0.01 * ks + 1.0) if average == "avg1" else ks + t1 + 1.0
            assert learner.t == dense.t and all(took)
            assert rel_err(learner.w, dense.w) <= DRIFT_BOUND
            assert rel_err(learner.model(), weights @ iterates / weights.sum()) \
                <= DRIFT_BOUND

    @pytest.mark.parametrize("reg", [none_reg(), l2(0.1)], ids=["none", "l2"])
    def test_average_leaves_iterate_alone(self, reg):
        rng = np.random.default_rng(71)
        d = 4
        ds = random_dataset(rng, n=100, d=d, pos_fraction=0.35)
        learners = [FastSpaucTrainer(d, config(reg, average=avg)) for avg in AVERAGES]
        for i in rng.integers(len(ds), size=3000):
            for learner in learners:
                learner.step(ds[i])
        last = learners[0]
        assert all(learner.t == last.t for learner in learners)
        assert all(learner.w.tobytes() == last.w.tobytes() for learner in learners)
        assert last.model().tobytes() == last.w.tobytes()

    def test_sparse_rows_at_larger_dimension(self):
        rng = np.random.default_rng(72)
        d = 1000
        ds = random_dataset(rng, n=200, d=d, density=0.02)
        cfg = config(l2(1e-4), average="avg2")
        dense, fast = SpaucTrainer(d, cfg), FastSpaucTrainer(d, cfg)
        for i in rng.integers(len(ds), size=3000):
            dense.step(ds[i])
            fast.step(ds[i])
        assert fast.t == dense.t
        assert rel_err(fast.w, dense.w) <= DRIFT_BOUND
        assert rel_err(fast.model(), dense.model()) <= DRIFT_BOUND


class TestFold:
    def test_parts_that_cancel_are_folded(self):
        # on this stream the parts grow far beyond the iterate they sum to;
        # without the dense step that folds them the kept scalars lose the
        # iterate
        rng = np.random.default_rng(3)
        d, steps = 4, 2 * 10**4
        ds = random_dataset(rng, n=200, d=d, pos_fraction=0.35)
        rows = list(ds)
        cfg = config(average="avg2")
        dense, fast = SpaucTrainer(d, cfg), FastSpaucTrainer(d, cfg)
        tangles = []
        tangled = fast.tangled

        def spy(*scalars):
            tangles.append(tangled(*scalars))
            return tangles[-1]

        fast.tangled = spy
        for i in rng.integers(len(rows), size=steps):
            dense.step(rows[i])
            fast.step(rows[i])
        assert sum(tangles) >= 3
        assert fast.t == dense.t
        assert rel_err(fast.w, dense.w) <= DRIFT_BOUND
        assert rel_err(fast.model(), dense.model()) <= DRIFT_BOUND

    def test_huge_weights_take_the_dense_step(self):
        # ||w||^2 overflows on this stream while every weight stays finite:
        # the fast step declines there, the dense step is taken, and the
        # learner does not diverge
        ds = random_dataset(np.random.default_rng(3), n=200, d=50)
        cfg = config(epochs=3)
        dense, fast = SpaucTrainer(ds.dim, cfg), FastSpaucTrainer(ds.dim, cfg)
        taken = recording(fast, "fast_step")
        want, _ = stream_run(dense, ds)
        got, _ = stream_run(fast, ds)
        assert fast.t == dense.t
        with np.errstate(over="ignore"):
            assert np.linalg.norm(want) == np.inf
        warm_up = cfg.epochs * len(ds) - fast.t  # examples before both classes
        assert taken.count(False) - warm_up >= 10
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= DRIFT_BOUND * scale


def one_step(learner, warm_up, w0, z):
    """Warm the learner up, set its iterate to w0 and take one step on z;
    returns the new iterate, or the DivergenceError."""
    for example in warm_up:
        learner.step(example)
    learner.w = w0.copy()
    try:
        learner.step(z)
    except DivergenceError as exc:
        return exc
    return learner.w


def divergence_cases():
    """Random streams whose weights blow up under a large step size."""
    for seed in range(8):
        rng = np.random.default_rng([80, seed])
        d, n = int(rng.integers(2, 12)), int(rng.integers(10, 60))
        scale = 10.0 ** rng.uniform(1, 3)
        examples = [sparse_example(rng, d, 1 if i % 2 else -1) for i in range(n)]
        examples = [z._replace(values=scale * z.values) for z in examples]
        yield (Dataset.from_examples(examples, dim=d),
               PolySchedule(eta1=float(10 ** rng.uniform(0, 1)), theta=0.51))


class TestDivergence:
    @pytest.mark.parametrize("reg", [none_reg(), l2(1e-3), l2(0.3), l1(1e-3)],
                             ids=["none", "l2-small", "l2-large", "l1"])
    @pytest.mark.parametrize("case", range(8))
    def test_same_iteration_as_dense(self, reg, case):
        ds, sched = list(divergence_cases())[case]
        cfg = config(reg, sched, epochs=50)
        errors = []
        for learner in (SpaucTrainer(ds.dim, cfg), sums_learner(reg)(ds.dim, cfg)):
            with pytest.raises(DivergenceError) as exc:
                stream_run(learner, ds)
            errors.append(exc.value)
        dense, fast = errors
        assert fast.iteration == dense.iteration
        assert np.isfinite(fast.last_weight).all()
        scale = np.abs(dense.last_weight).max()
        assert np.abs(fast.last_weight - dense.last_weight).max() <= DRIFT_BOUND * scale


    @pytest.mark.parametrize("seed", range(3))
    def test_one_step_from_huge_numbers(self, seed):
        self.check_one_steps(np.random.default_rng([100, seed]), lambda rng: (
            l2(10 ** rng.uniform(-4, 1)) if rng.random() < 0.5 else none_reg()))

    @pytest.mark.parametrize("seed", range(3))
    def test_l1_one_step_from_huge_numbers(self, seed, monkeypatch):
        taken = []
        real = L1SpaucTrainer.sums_step
        monkeypatch.setattr(L1SpaucTrainer, "sums_step",
                            lambda *args: (taken.append(real(*args)), taken[-1])[1])
        self.check_one_steps(np.random.default_rng([101, seed]),
                             lambda rng: l1(10 ** rng.uniform(-4, 1)))
        assert set(taken) == {True, False}  # both forms of the step are met

    @staticmethod
    def check_one_steps(rng, draw_penalty):
        # weights, class means and examples of random scales up to the
        # largest floats, where the dense step's numbers overflow (a tiny
        # example next to huge class means overflows the dense gradient
        # while the fast step's own numbers stay finite): the learner
        # run_algorithm picks for the penalty raises exactly when the dense
        # one does, and otherwise lands on the same iterate
        outcomes = set()
        for _ in range(1000):
            reg = draw_penalty(rng)
            cfg = config(reg, PolySchedule(eta1=10 ** rng.uniform(-3, 3), theta=0.51))
            sw, su, sv, sx = 10 ** rng.uniform(-150, 300, size=4)
            warm_up = [dense_example(su * rng.normal(size=3), 1),
                       dense_example(sv * rng.normal(size=3), -1)]
            w0 = sw * rng.normal(size=3)
            z = dense_example(sx * rng.normal(size=3), int(rng.choice([1, -1])))
            with np.errstate(over="ignore", invalid="ignore"):
                want, got = (one_step(cls(3, cfg), warm_up, w0, z)
                             for cls in (SpaucTrainer, sums_learner(reg)))
            assert type(got) is type(want), (sw, su, sv, sx)
            outcomes.add(type(want))
            if isinstance(want, DivergenceError):
                assert got.iteration == want.iteration == 1
                assert np.isfinite(got.last_weight).all()
            else:
                assert np.abs(got - want).max() <= DRIFT_BOUND * np.abs(want).max()
        assert outcomes == {np.ndarray, DivergenceError}


class TestRouting:
    def test_fast_learner_rejects_l1(self):
        with pytest.raises(ValueError, match="l1"):
            FastSpaucTrainer(3, config(l1(0.1)))

    @pytest.mark.parametrize("reg", [none_reg(), l2(0.1)], ids=["none", "l2"])
    def test_l1_learner_rejects_other_penalties(self, reg):
        with pytest.raises(ValueError, match="l1"):
            L1SpaucTrainer(3, config(reg))


class TestL1Buffers:
    def test_average_holds_one_d_vector(self):
        # a dense learner adds whole iterates, so its average keeps only the
        # running sum and none of the lazy state of the scaled learners
        d = 1000
        averages = L1SpaucTrainer(d, config(l1(1e-4), average="avg2")).averages
        arrays = [a for v in vars(averages).values()
                  for a in (v if isinstance(v, list) else [v])
                  if isinstance(a, np.ndarray) and a.size >= d]
        assert len(arrays) == 1

    @pytest.mark.parametrize("average", AVERAGES)
    def test_no_d_sized_allocation_per_step(self, average):
        # 100 steps at d = 10^5 allocate less than one d-vector at their
        # peak: the step reuses its buffers, and the average its term
        rng = np.random.default_rng(110)
        d = 10**5
        rows = [sparse_example(rng, d, y, density=5e-4) for y in [1, -1] * 60]
        learner = L1SpaucTrainer(d, config(l1(1e-4), average=average))
        taken = recording(learner, "sums_step")
        for z in rows[:20]:
            learner.step(z)
        tracemalloc.start()
        try:
            for z in rows[20:]:
                learner.step(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert learner.t == 118 and all(taken)
        assert peak < 8 * d


def exact_norm(w):
    """||w||, scaled so that no square overflows."""
    top = np.abs(w).max()
    return float(top * np.linalg.norm(w / top)) if top else 0.0


class TestL1Bound:
    """w_bound, the bound on ||w|| that the l1 step's guard reads in place
    of a norm pass, holds after every step: sums, declined and dense."""

    @staticmethod
    def checking_bound(learner):
        """Check the bound after each of the learner's steps from here on;
        returns what sums_step returns at each call."""
        taken = recording(learner, "sums_step")
        step = learner.step

        def checked(z):
            step(z)
            assert learner.w_bound >= exact_norm(learner.w) * (1 - 1e-12), learner.t

        learner.step = checked
        return taken

    def test_divergence_streams(self):
        declined = 0
        for ds, sched in divergence_cases():
            learner = L1SpaucTrainer(ds.dim, config(l1(1e-3), sched, epochs=50))
            taken = self.checking_bound(learner)
            with pytest.raises(DivergenceError):
                stream_run(learner, ds)
            declined += taken.count(False)
        assert declined >= 8  # the dense step is met, and resets the bound

    def test_long_stream_and_reset(self):
        rng = np.random.default_rng(74)
        ds = random_dataset(rng, n=2000, d=6, pos_fraction=0.35)
        learner = L1SpaucTrainer(ds.dim, config(l1(0.08), epochs=5))
        taken = self.checking_bound(learner)
        stream_run(learner, ds)
        assert len(taken) == learner.t >= 9000 and all(taken)
        assert learner.w_bound > np.linalg.norm(learner.w)  # grown by the steps
        w0 = rng.normal(size=ds.dim)
        learner.w = w0
        assert learner.w_bound == np.linalg.norm(w0)
