import csv

import numpy as np
import pytest

import aucstream.bench as bench_module
from aucstream.bench import (DEFAULT_LAMBDA_GRID, DEFAULT_MU_GRID,
                             DEFAULT_RADIUS_GRID, TuneGrid, _fold_indices,
                             aggregate, benchmark, config_from_params,
                             objective_subsample, protocol_grid, read_trace,
                             tune, write_report, write_trace, write_tune_table)
from aucstream.trainer import TracePoint

from conftest import gaussian_task, practical_config, random_dataset


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = [TracePoint(10, 0.125, 0.875, None),
                 TracePoint(20, 0.25, None, 0.0625),
                 TracePoint(30, 0.5, 0.9123456789012345, 1e-17)]
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        again = read_trace(path)
        assert again == trace

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestGrids:
    def test_default_grids_match_protocol(self):
        assert len(DEFAULT_MU_GRID) == 10
        assert DEFAULT_MU_GRID[0] == pytest.approx(1e-7)
        assert DEFAULT_MU_GRID[-1] == pytest.approx(10**-2.5)
        assert [pytest.approx(v) for v in DEFAULT_LAMBDA_GRID] == \
            [10.0**e for e in range(-5, 1)]

    def test_grid_product_and_sampling(self):
        grid = TuneGrid({"mu": [1.0, 2.0], "lambda": [0.1, 0.2, 0.3]},
                        pair_sample_size=4, folds=2)
        assert grid.size == 6
        sample = grid.sample(seed=3)
        assert len(sample) == 4
        keys = [tuple(sorted(p.items())) for p in sample]
        assert len(set(keys)) == 4  # without replacement
        assert sample == grid.sample(seed=3)

    def test_protocol_grid(self):
        grid = protocol_grid("none", pairs=15, folds=3)
        assert grid.params == {"mu": DEFAULT_MU_GRID}
        assert (grid.pair_sample_size, grid.folds) == (10, 3)  # min(pairs, size)
        grid = protocol_grid("l1", pairs=4, folds=5, tune_radius=True)
        assert list(grid.params) == ["mu", "lambda", "radius"]
        assert grid.params["lambda"] == DEFAULT_LAMBDA_GRID
        assert grid.params["radius"] == DEFAULT_RADIUS_GRID
        assert grid.pair_sample_size == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TuneGrid({"mu": []})
        with pytest.raises(ValueError):
            TuneGrid({"mu": [1.0]}, pair_sample_size=2)
        with pytest.raises(ValueError):
            TuneGrid({"mu": [1.0]}, pair_sample_size=1, folds=1)


class TestTune:
    def test_single_point_grid(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n=40, d=4)
        grid = TuneGrid({"mu": [50.0]}, pair_sample_size=1, folds=2)
        best, table = tune(ds, "spauc", grid, [practical_config(seed=1, epochs=1)])[0]
        assert best == {"mu": 50.0}
        assert len(table) == 1

    def test_selects_dominant_step_parameter(self):
        ds = gaussian_task(3, n=400, d=8)
        # neither candidate diverges: mu = 1 keeps larger steps for longer
        # and scores 0.59-0.99 on the folds, mu = 30 about 0.98 on each, so
        # tune must pick the higher mean fold AUC
        grid = TuneGrid({"mu": [1.0, 30.0]}, pair_sample_size=2, folds=3)
        best, table = tune(ds, "spauc", grid, [practical_config(seed=2, epochs=2)])[0]
        assert best == {"mu": 30.0}
        means = {row["params"]["mu"]: row["mean_auc"] for row in table}
        assert means[30.0] > means[1.0]

    def test_too_few_of_a_class_for_the_folds_raises(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=200, d=4, pos_fraction=0.02)
        assert ds.n_pos == 4
        grid = TuneGrid({"mu": [50.0]}, pair_sample_size=1, folds=5)
        with pytest.raises(ValueError) as exc:
            tune(ds, "spauc", grid, [practical_config(seed=1, epochs=1)])
        assert "4 positive and 196 negative" in str(exc.value)

    def test_stratified_folds_hold_both_classes(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=200, d=4, pos_fraction=0.025)
        folds = _fold_indices(ds.labels, 5, seed=0)
        assert sorted(np.concatenate(folds)) == list(range(200))
        for idx in folds:
            assert len(idx) == 40
            labels = ds.labels[idx]
            assert (labels == 1).sum() == 1 and (labels == -1).sum() == 39

    def test_table_written(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n=40, d=4)
        grid = TuneGrid({"mu": [50.0, 80.0]}, pair_sample_size=2, folds=2)
        _, table = tune(ds, "spauc", grid, [practical_config(seed=1, epochs=1)])[0]
        path = tmp_path / "cv.csv"
        write_tune_table(path, table)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "fold_0", "fold_1", "mean_auc"]
        assert len(rows) == 3


class TestBenchmark:
    def test_two_repeats_schema(self, tmp_path):
        ds = gaussian_task(4, n=200, d=5)
        rows, traces = benchmark(ds, "toy", ["spauc", "spam"], repeats=2,
                                 config=practical_config(seed=5, epochs=2, eval_every=100),
                                 outdir=tmp_path)
        assert [r.algo for r in rows] == ["spauc", "spam"]
        for r in rows:
            assert r.dataset == "toy"
            assert np.isfinite(r.auc_std) and r.auc_std >= 0.0
            assert np.isfinite(r.time_per_pass_mean)
        assert (tmp_path / "spauc_rep0.csv").exists()
        assert (tmp_path / "spam_rep1.csv").exists()
        assert (tmp_path / "report.csv").exists()

    def test_single_repeat_has_zero_std(self):
        ds = gaussian_task(5, n=150, d=4)
        rows, _ = benchmark(ds, "toy", ["spauc"], repeats=1,
                            config=practical_config(seed=0, epochs=1, eval_every=100))
        assert rows[0].auc_std == 0.0 and rows[0].time_per_pass_std == 0.0

    def test_aggregate_matches_trace_recomputation(self, tmp_path):
        ds = gaussian_task(6, n=200, d=5)
        epochs = 2
        rows, _ = benchmark(ds, "toy", ["spauc"], repeats=3,
                            config=practical_config(seed=1, epochs=epochs, eval_every=100),
                            outdir=tmp_path)
        finals = [read_trace(tmp_path / f"spauc_rep{r}.csv")[-1] for r in range(3)]
        aucs = [pt.test_auc for pt in finals]
        times = [pt.elapsed_sec / epochs for pt in finals]
        assert rows[0].auc_mean == float(np.mean(aucs))
        assert rows[0].auc_std == float(np.std(aucs, ddof=1))
        assert rows[0].time_per_pass_mean == float(np.mean(times))
        with open(tmp_path / "report.csv") as fh:
            report = list(csv.reader(fh))
        assert report[0] == ["algo", "dataset", "auc_mean", "auc_std",
                             "time_per_pass_mean", "time_per_pass_std"]
        assert float(report[1][2]) == rows[0].auc_mean

    def test_reproducible_except_elapsed(self):
        ds = gaussian_task(7, n=200, d=5)
        kw = dict(repeats=2, config=practical_config(seed=3, epochs=2, eval_every=50))
        _, traces_a = benchmark(ds, "toy", ["spauc", "solam"], **kw)
        _, traces_b = benchmark(ds, "toy", ["spauc", "solam"], **kw)
        for key in traces_a:
            ta, tb = traces_a[key], traces_b[key]
            assert [p.step for p in ta] == [p.step for p in tb]
            assert [p.test_auc for p in ta] == [p.test_auc for p in tb]
            assert [p.objective for p in ta] == [p.objective for p in tb]

    def test_repeats_use_distinct_seeds(self):
        ds = gaussian_task(8, n=200, d=5)
        _, traces = benchmark(ds, "toy", ["spauc"], repeats=2,
                              config=practical_config(seed=0, epochs=1, eval_every=50))
        a = [p.test_auc for p in traces[("spauc", 0)]]
        b = [p.test_auc for p in traces[("spauc", 1)]]
        assert a != b

    def test_unknown_algorithm_rejected(self):
        ds = gaussian_task(10, n=100, d=4)
        with pytest.raises(ValueError) as exc:
            benchmark(ds, "toy", ["opauc"], repeats=1,
                      config=practical_config(seed=0, epochs=1))
        assert "fsauc" in str(exc.value)

    def test_tuned_repeats(self):
        ds = gaussian_task(11, n=300, d=5)
        grid = TuneGrid({"mu": [1.0, 30.0]}, pair_sample_size=2, folds=2)
        rows, traces = benchmark(ds, "toy", ["spauc"], repeats=2,
                                 config=practical_config(seed=0, epochs=2, eval_every=100),
                                 tune_grid=grid)
        assert rows[0].auc_mean > 0.9
        assert len(traces) == 2

    @pytest.fixture
    def fits(self, monkeypatch):
        """(kind, fit size, config, where) of every fit: "cv" for each
        lockstep candidate, where is its group's index and the call's
        number of groups; "run" for each run_algorithm call."""
        seen = []
        real, real_lockstep = bench_module.run_algorithm, bench_module.lockstep

        def spy(algo, train_data, config, **kwargs):
            seen.append(("run", len(train_data), config, None))
            return real(algo, train_data, config, **kwargs)

        def spy_lockstep(algo, dataset, groups):
            seen.extend(("cv", len(rows), config, (g, len(groups)))
                        for g, (rows, configs) in enumerate(groups) for config in configs)
            return real_lockstep(algo, dataset, groups)

        monkeypatch.setattr(bench_module, "run_algorithm", spy)
        monkeypatch.setattr(bench_module, "lockstep", spy_lockstep)
        return seen

    def test_tuned_solam_runs_at_the_given_radius(self, fits):
        ds = gaussian_task(12, n=120, d=4)
        grid = TuneGrid({"mu": [1.0, 30.0]}, pair_sample_size=2, folds=2)
        config = practical_config(seed=0, epochs=1, eval_every=100, radius=5.0,
                                  average="avg1")
        benchmark(ds, "toy", ["solam"], repeats=1, config=config, tune_grid=grid)
        seen = [config.radius for _, _, config, _ in fits]
        assert len(seen) == 5  # 2 candidates x 2 folds, then the reported run
        assert set(seen) == {5.0}
        self.check_one_config(fits, config, repeats=1, part=96)  # 120 rows less a fifth

    def test_every_repeat_runs_the_config_at_seed_plus_r(self, fits):
        ds = gaussian_task(13, n=150, d=4)
        grid = TuneGrid({"mu": [1.0, 30.0], "lambda": [1e-3]}, pair_sample_size=2,
                        folds=3)
        config = practical_config("l2", seed=7, epochs=2, eval_every=30, radius=3.0,
                                  average="avg2")
        benchmark(ds, "toy", ["spauc", "solam"], repeats=2, config=config,
                  tune_grid=grid)
        assert len(fits) == 2 * 2 * (2 * 3 + 1)
        self.check_one_config(fits, config, repeats=2, part=120)  # 150 rows less a fifth

    @staticmethod
    def check_one_config(fits, config, repeats, part):
        """Every fit of repeat r has the config's epochs and radius and seed
        + r; a CV fit is of the last iterate with one trace point (its trace
        interval is the steps of the repeat's `part` training rows, more
        than any fold fits), a reported run has the config's average and trace interval. A
        lockstep call's groups are the folds of each repeat in turn, and
        the reported runs come repeat by repeat."""
        runs = [c for kind, _, c, _ in fits if kind == "run"]
        for k, c in enumerate(runs):
            assert (c.epochs, c.radius, c.seed) == (config.epochs, config.radius,
                                                    config.seed + k * repeats // len(runs))
            assert (c.average, c.eval_every) == (config.average, config.eval_every)
        for kind, size, c, where in fits:
            if kind == "cv":
                g, n_groups = where
                assert (c.epochs, c.radius, c.seed) == (config.epochs, config.radius,
                                                        config.seed + g * repeats // n_groups)
                assert (c.average, c.eval_every) == ("last", part * config.epochs)
                assert size < part


def test_config_from_params():
    cfg = config_from_params({"mu": 0.5, "lambda": 0.1},
                             practical_config("l2", epochs=3, seed=4, eval_every=10))
    assert cfg.schedule.mu == 0.5
    assert cfg.regularizer.kind == "l2" and cfg.regularizer.lam == 0.1
    cfg = config_from_params({"mu": 0.5}, practical_config(epochs=1, seed=0, eval_every=1))
    assert cfg.regularizer.kind == "none"
    with pytest.raises(KeyError):
        config_from_params({"mu": 0.5}, practical_config("l1", epochs=1, seed=0, eval_every=1))


def test_objective_subsample_is_deterministic_and_capped():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, n=50, d=4)
    sub1 = objective_subsample(ds, seed=2, cap=20)
    sub2 = objective_subsample(ds, seed=2, cap=20)
    assert len(sub1) == 20
    for a, b in zip(sub1, sub2):
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.label == b.label
    assert objective_subsample(ds, seed=2, cap=100) is ds


def test_aggregate_requires_auc():
    with pytest.raises(ValueError):
        aggregate("spauc", "toy", [[TracePoint(1, 0.1, None, None)]], epochs=1)
