import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aucstream
import aucstream.bench as bench
import aucstream.cli as cli
from aucstream.cli import main
from aucstream.data import MAX_DIM, save_libsvm
from aucstream.trainer import load_model

from conftest import gaussian_task, random_dataset


@pytest.fixture
def easy_file(tmp_path):
    path = tmp_path / "easy.libsvm"
    save_libsvm(gaussian_task(1, n=600, d=10), path)
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("+1 1:2.0\n-1 1:-2.0\n+1 1:1.5\n-1 1:-0.5\n")
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_writes_model_and_trace(self, tmp_path, easy_file, capsys):
        model = tmp_path / "m.json"
        trace = tmp_path / "t.csv"
        code = main(["train", "--data", easy_file, "--test", easy_file,
                     "--mu", "30", "--epochs", "2", "--seed", "1",
                     "--eval-every", "200",
                     "--out", str(model), "--trace", str(trace)])
        assert code == 0
        assert model.exists() and trace.exists()
        out = capsys.readouterr().out
        assert "test AUC: 0.9" in out
        w, meta = load_model(model)
        assert len(w) == 10
        assert meta["schedule"]["mu"] == 30.0

    def test_rerun_identical_except_elapsed(self, tmp_path, easy_file):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (t1, t2):
            assert main(["train", "--data", easy_file, "--test", easy_file,
                         "--mu", "30", "--epochs", "1", "--seed", "3",
                         "--eval-every", "100", "--trace", str(out),
                         "--trace-objective"]) == 0
        rows1, rows2 = read_rows(t1), read_rows(t2)
        assert len(rows1) == len(rows2)
        for a, b in zip(rows1, rows2):
            assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]

    def test_missing_lambda_is_usage_error(self, easy_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", easy_file, "--mu", "30", "--reg", "l1"])
        assert exc.value.code == 2

    def test_missing_schedule_param_is_usage_error(self, easy_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", easy_file, "--schedule", "poly",
                  "--eta1", "0.1"])
        assert exc.value.code == 2

    def test_threshold_rule_needs_label(self, easy_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", easy_file, "--mu", "30",
                  "--binarize", "threshold"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent.libsvm"),
                     "--mu", "30"]) == 1

    def test_non_utf8_byte_is_data_error_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(b"+1 1:2.0\n-1 1:-2.0\n+1 1:1.5 \xff\n-1 1:-0.5\n")
        assert main(["tune", "--data", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 3: not UTF-8 text: byte 0xff")

    @pytest.mark.parametrize("reg", ["l1", "l2"])
    def test_huge_index_is_data_error_before_allocating(self, tmp_path, capsys, reg):
        # d = 10^12 would ask for terabytes per weight vector; the run is
        # refused at the line, having allocated little
        path = tmp_path / "wide.libsvm"
        path.write_text("-1 1:0.5\n+1 1000000000000:1\n")
        tracemalloc.start()
        try:
            code = main(["train", "--data", str(path), "--reg", reg,
                         "--lambda", "1e-3", "--mu", "0.1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**24
        assert capsys.readouterr().err == (
            "error: line 2: feature index 1000000000000 exceeds the largest "
            f"supported dimension, {MAX_DIM}\n")

    def test_test_data_beyond_train_dim_is_data_error(self, tmp_path, tiny_file):
        wide = tmp_path / "wide.libsvm"
        wide.write_text("+1 7:1.0\n-1 1:1.0\n")
        assert main(["train", "--data", tiny_file, "--test", str(wide),
                     "--mu", "30"]) == 1

    def test_divergence_exit_code(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=40, d=4)
        big = tmp_path / "big.libsvm"
        with open(big, "w") as fh:
            for ex in ds:
                feats = " ".join(f"{i+1}:{float(100.0 * v)!r}"
                                 for i, v in zip(ex.indices, ex.values))
                fh.write(f"{ex.label} {feats}\n")
        # a fresh process, so any numpy overflow warning would reach stderr
        src = str(Path(aucstream.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "aucstream.cli", "train", "--data", str(big),
             "--schedule", "poly", "--eta1", "5.0", "--theta", "0.51",
             "--epochs", "50"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: training diverged at iteration ")

    def test_clamp_theory_flag(self, tmp_path, easy_file):
        model = tmp_path / "m.json"
        assert main(["train", "--data", easy_file, "--schedule", "poly",
                     "--eta1", "5.0", "--theta", "0.51", "--epochs", "1",
                     "--clamp-theory", "--out", str(model)]) == 0
        _, meta = load_model(model)
        assert meta["schedule"]["eta1"] < 5.0

    @pytest.mark.parametrize("flags,reads_kappa", [
        (["--mu", "30"], False),
        (["--schedule", "fastrate", "--sigma-phi", "0.4", "--t1", "5"], False),
        (["--schedule", "fastrate", "--sigma-phi", "0.4"], True),
        (["--mu", "30", "--clamp-theory"], True),
    ])
    def test_kappa_computed_only_when_the_schedule_reads_it(
            self, monkeypatch, easy_file, flags, reads_kappa):
        import aucstream.cli as cli
        calls = []
        real = cli.dataset_kappa
        monkeypatch.setattr(cli, "dataset_kappa",
                            lambda data: calls.append(1) or real(data))
        assert main(["train", "--data", easy_file, "--epochs", "1", *flags]) == 0
        assert len(calls) == int(reads_kappa)

    def test_fastrate_t1_defaults_from_horizon(self, tmp_path, easy_file):
        model = tmp_path / "m.json"
        assert main(["train", "--data", easy_file, "--schedule", "fastrate",
                     "--sigma-phi", "0.4", "--epochs", "1",
                     "--out", str(model)]) == 0
        _, meta = load_model(model)
        assert meta["schedule"]["t1"] > 0
        assert meta["schedule"]["sigma_f"] == 0.4


class TestEval:
    def test_perfect_model(self, tmp_path, tiny_file, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(
            {"format_version": 1, "d": 1, "weights": [1.0], "config": {}}))
        assert main(["eval", "--model", str(model), "--data", tiny_file]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_zero_model_ties(self, tmp_path, tiny_file, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(
            {"format_version": 1, "d": 1, "weights": [0.0], "config": {}}))
        assert main(["eval", "--model", str(model), "--data", tiny_file]) == 0
        assert capsys.readouterr().out.strip() == "0.5000"

    def test_dim_mismatch(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(
            {"format_version": 1, "d": 1, "weights": [1.0], "config": {}}))
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 5:1.0\n-1 1:1.0\n")
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 1

    @pytest.mark.parametrize("doc", [
        "[1, 2]",
        '{"format_version": 1, "d": 1}',
        '{"format_version": 1, "d": 2, "weights": [null, 1.0]}',
        '{"format_version": 1, "d": 1, "weights": ["1.0"]}',
        '{"format_version": 1, "d": 1, "weights": [true]}',
        '{"format_version": 1, "d": 1, "weights": [NaN]}',
        '{"format_version": 1, "d": 1, "weights": [-Infinity]}',
        '{"format_version": 1, "d": 1, "weights": [[1.0]]}',
        '{"format_version": 1, "d": 0, "weights": []}',
        '{"format_version": 1, "d": 1.0, "weights": [1.0]}',
    ])
    def test_bad_model_document_is_data_error(self, tmp_path, tiny_file, capsys, doc):
        model = tmp_path / "m.json"
        model.write_text(doc)
        assert main(["eval", "--model", str(model), "--data", tiny_file]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")

    @pytest.mark.parametrize("data,weight", [
        ("+1 100000000000000000000:1\n-1 1:1\n", "1.0"),
        ("+1 1:2.0\n-1 1:-2.0\n", "1" + "0" * 400),
    ], ids=["index-beyond-int64", "weight-beyond-float-range"])
    def test_overflowing_number_is_data_error(self, tmp_path, capsys, data, weight):
        path, model = tmp_path / "d.libsvm", tmp_path / "m.json"
        path.write_text(data)
        model.write_text(f'{{"format_version": 1, "d": 1, "weights": [{weight}]}}')
        assert main(["eval", "--model", str(model), "--data", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")

    def test_train_then_eval_roundtrip(self, tmp_path, easy_file, capsys):
        model = tmp_path / "m.json"
        assert main(["train", "--data", easy_file, "--mu", "30",
                     "--epochs", "3", "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--data", easy_file]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(printed) >= 0.95


class TestBenchmarkCommand:
    def test_writes_report_and_traces(self, tmp_path, easy_file, capsys):
        outdir = tmp_path / "bench"
        outdir.mkdir()
        code = main(["benchmark", "--data", easy_file, "--algos", "spauc,solam",
                     "--repeats", "2", "--epochs", "1", "--mu", "30",
                     "--eval-every", "200", "--seed", "4",
                     "--outdir", str(outdir)])
        assert code == 0
        report = read_rows(outdir / "report.csv")
        assert report[0][0] == "algo"
        assert [r[0] for r in report[1:]] == ["spauc", "solam"]
        assert (outdir / "spauc_rep0.csv").exists()
        assert (outdir / "solam_rep1.csv").exists()

    @pytest.mark.parametrize("fraction,held_out", [("0.1", 1), ("0.05", 0)])
    def test_a_held_out_part_that_cannot_be_scored_is_a_data_error(
            self, tmp_path, monkeypatch, capsys, fraction, held_out):
        # it ran repeat 0's first fit, then exited 1 with "AUC is undefined
        # without both classes present", naming neither repeat nor part
        path = tmp_path / "ten.libsvm"
        path.write_text("".join(f"{'+1' if i % 2 else '-1'} 1:{i}\n" for i in range(10)))
        fits = []
        monkeypatch.setattr(bench, "run_algorithm", lambda *args, **kw: fits.append(args))
        code = main(["benchmark", "--data", str(path), "--mu", "0.1", "--repeats", "2",
                     "--epochs", "1", "--test-fraction", fraction])
        assert code == 1
        assert f"error: repeat 0: the held-out part ({held_out} of 10 rows) holds " \
            in capsys.readouterr().err
        assert fits == []

    def test_unknown_algorithm_usage_error(self, easy_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--data", easy_file, "--algos", "spauc,oam",
                  "--mu", "30"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fsauc" in err and "solam" in err

    def test_repeated_algorithm_usage_error(self, easy_file, capsys):
        # a repeated name would be fitted twice and reported as two rows
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--data", easy_file, "--algos", "spauc,spauc",
                  "--mu", "30"])
        assert exc.value.code == 2
        assert "once" in capsys.readouterr().err

    @pytest.mark.parametrize("algos", [",", ""], ids=["comma", "empty"])
    def test_no_algorithm_usage_error(self, easy_file, capsys, algos):
        # an empty list loaded the data, ran nothing and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--data", easy_file, "--algos", algos, "--mu", "30"])
        assert exc.value.code == 2
        assert "at least one algorithm" in capsys.readouterr().err

    def test_needs_mu_or_tune(self, easy_file):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--data", easy_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--mu", "--lambda"])
    def test_tune_refuses_a_fixed_parameter(self, easy_file, capsys, flag):
        # --tune picks mu and lambda per repeat, and dropped these silently
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--data", easy_file, "--reg", "l2", "--tune", flag, "0.01",
                  "--repeats", "1", "--pairs", "1", "--folds", "2", "--epochs", "1"])
        assert exc.value.code == 2
        assert f"{flag} cannot be given with --tune" in capsys.readouterr().err


class TestTuneCommand:
    def test_prints_best_and_writes_table(self, tmp_path, easy_file, capsys):
        table = tmp_path / "cv.csv"
        code = main(["tune", "--data", easy_file, "--algo", "spauc",
                     "--pairs", "3", "--folds", "2", "--epochs", "1",
                     "--seed", "1", "--out", str(table)])
        assert code == 0
        assert "mu=" in capsys.readouterr().out
        rows = read_rows(table)
        assert rows[0][0] == "mu" and len(rows) == 4


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, easy_file):
        conf = tmp_path / "run.conf"
        conf.write_text("mu = 30\nepochs = 2\n# comment\n")
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["--config", str(conf), "train", "--data", easy_file,
                     "--out", str(m1)]) == 0
        _, meta = load_model(m1)
        assert meta["schedule"]["mu"] == 30.0 and meta["epochs"] == 2
        assert main(["--config", str(conf), "train", "--data", easy_file,
                     "--mu", "50", "--out", str(m2)]) == 0
        _, meta = load_model(m2)
        assert meta["schedule"]["mu"] == 50.0 and meta["epochs"] == 2

    def test_malformed_config(self, tmp_path, easy_file):
        conf = tmp_path / "bad.conf"
        conf.write_text("mu 30\n")
        assert main(["--config", str(conf), "train", "--data", easy_file]) == 1

    @pytest.mark.parametrize("entry,named", [
        ("reg = l3\nlambda = 0.001", "'l3'"),
        ("binarize = bogus", "'bogus'"),
        ("clamp_theory = maybe", "'maybe'"),
        ("epoch = 3", "'epoch'"),
    ])
    def test_bad_entry_is_usage_error(self, tmp_path, easy_file, capsys, entry, named):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"mu = 30\n{entry}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(conf), "train", "--data", easy_file])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_keys_of_other_verbs_are_ignored(self, tmp_path, easy_file):
        conf = tmp_path / "run.conf"
        conf.write_text("mu = 30\nepochs = 1\nradius = 5\nmodel = m.json\n"
                        "algos = spauc\n")
        assert main(["--config", str(conf), "train", "--data", easy_file]) == 0

    @pytest.mark.parametrize("word,on", [("yes", True), ("TRUE", True),
                                         ("1", True), ("off", False), ("no", False)])
    def test_store_true_flag_takes_a_truth_word(self, tmp_path, easy_file, word, on):
        conf = tmp_path / "run.conf"
        conf.write_text(f"schedule = poly\neta1 = 5.0\ntheta = 0.51\n"
                        f"clamp-theory = {word}\n")
        model = tmp_path / "m.json"
        assert main(["--config", str(conf), "train", "--data", easy_file,
                     "--epochs", "1", "--out", str(model)]) == 0
        _, meta = load_model(model)
        assert (meta["schedule"]["eta1"] < 5.0) == on


@pytest.mark.parametrize("verb,flags,conf", [
    ("train", ["--mu", "30", "--epochs", "0"], None),
    ("train", ["--mu", "30", "--eval-every", "0"], None),
    ("train", ["--mu", "-1"], None),
    ("train", ["--mu", "30", "--reg", "l2", "--lambda", "-1"], None),
    ("train", ["--mu", "30"], "epochs = 0"),
    ("tune", ["--pairs", "0"], None),
    ("tune", ["--folds", "1"], None),
    ("benchmark", ["--mu", "30", "--repeats", "0"], None),
    ("benchmark", ["--mu", "30", "--test-fraction", "1.5"], None),
    ("benchmark", ["--mu", "30", "--radius", "-1"], None),
    ("train", ["--schedule", "fastrate", "--sigma-phi", "0"], None),
    ("train", ["--mu", "nan"], None),
    ("train", ["--mu", "30", "--reg", "l2", "--lambda", "nan"], None),
    ("train", ["--mu", "30", "--reg", "l1", "--lambda", "nan"], None),
    ("train", ["--schedule", "poly", "--eta1", "nan", "--theta", "0.6"], None),
    ("train", ["--schedule", "logdamped", "--eta1", "1", "--beta", "nan"], None),
    ("train", ["--schedule", "fastrate", "--sigma-phi", "nan"], None),
    ("benchmark", ["--mu", "30", "--radius", "nan"], None),
    ("train", ["--mu", "inf"], None),
    ("benchmark", ["--mu", "inf"], None),
    ("train", ["--mu", "30", "--reg", "l2", "--lambda", "inf"], None),
    ("train", ["--mu", "30", "--reg", "l1", "--lambda", "inf"], None),
    ("train", ["--schedule", "poly", "--eta1", "inf", "--theta", "0.6"], None),
    ("train", ["--schedule", "logdamped", "--eta1", "inf", "--beta", "3"], None),
    ("train", ["--schedule", "logdamped", "--eta1", "1", "--beta", "inf"], None),
    ("train", ["--schedule", "fastrate", "--sigma-phi", "inf", "--t1", "1"], None),
    ("train", ["--schedule", "fastrate", "--sigma-phi", "1", "--sigma-f", "inf"], None),
    ("train", ["--schedule", "fastrate", "--sigma-phi", "1", "--t1", "inf"], None),
    ("train", ["--mu", "30", "--seed", "-1"], None),
    ("benchmark", ["--mu", "30", "--seed", "-1"], None),
    ("tune", ["--seed", "-1"], None),
], ids=["epochs", "eval-every", "mu", "lambda", "config-epochs", "pairs", "folds",
        "repeats", "test-fraction", "radius", "sigma-phi", "mu-nan", "l2-lambda-nan",
        "l1-lambda-nan", "eta1-nan", "beta-nan", "sigma-phi-nan", "radius-nan",
        "mu-inf", "benchmark-mu-inf", "l2-lambda-inf", "l1-lambda-inf", "eta1-inf",
        "logdamped-eta1-inf", "beta-inf", "sigma-phi-inf", "sigma-f-inf", "t1-inf",
        "train-seed", "benchmark-seed", "tune-seed"])
def test_refused_value_is_usage_error(tmp_path, easy_file, capsys, verb, flags, conf):
    argv = [verb, "--data", easy_file, *flags]
    if conf is not None:
        path = tmp_path / "run.conf"
        path.write_text(conf + "\n")
        argv = ["--config", str(path), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb,flags", [
    ("train", ["--mu", "1", "--seed", "-1"]),
    ("train", ["--mu", "1", "--epochs", "0"]),
    ("train", ["--mu", "1", "--eval-every", "0"]),
    ("benchmark", ["--mu", "1", "--seed", "-1"]),
    ("tune", ["--seed", "-1"]),
], ids=["train-seed", "train-epochs", "train-eval-every", "benchmark-seed", "tune-seed"])
def test_run_settings_are_refused_before_the_load(tmp_path, capsys, verb, flags):
    # train used to check these only after loading, so a missing file exited 1
    with pytest.raises(SystemExit) as exc:
        main([verb, "--data", str(tmp_path / "no_such.libsvm"), *flags])
    assert exc.value.code == 2
    assert "no_such" not in capsys.readouterr().err


@pytest.mark.parametrize("conf", [None, "lambda = 1000"], ids=["flag", "config"])
@pytest.mark.parametrize("verb", ["train", "benchmark"])
def test_lambda_without_a_penalty_is_usage_error(tmp_path, capsys, verb, conf):
    # --reg none has no penalty to weigh, and the weight used to be dropped
    argv = [verb, "--data", str(tmp_path / "no_such.libsvm"), "--mu", "30", "--reg", "none"]
    if conf is None:
        argv += ["--lambda", "1000"]
    else:
        path = tmp_path / "run.conf"
        path.write_text(conf + "\n")
        argv = ["--config", str(path), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "no_such" not in err


@pytest.mark.parametrize("verb,flags", [
    ("train", ["--mu", "30", "--test", "{data}", "--out", "{missing}/m.json"]),
    ("train", ["--mu", "30", "--test", "{data}", "--trace", "{missing}/t.csv"]),
    ("benchmark", ["--mu", "30", "--repeats", "1", "--outdir", "{missing}"]),
    ("tune", ["--pairs", "1", "--folds", "2", "--out", "{missing}/cv.csv"]),
], ids=["train-out", "train-trace", "benchmark-outdir", "tune-out"])
def test_output_into_a_missing_directory_fails_before_the_fit(
        monkeypatch, tmp_path, easy_file, capsys, verb, flags):
    # the write used to fail with [Errno 2] only after the whole fit
    fits = []
    for owner, name in [(cli, "train"), (bench, "run_algorithm"), (bench, "lockstep")]:
        def spy(*args, real=getattr(owner, name), **kwargs):
            fits.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    missing = str(tmp_path / "no_such_dir")
    argv = [verb, "--data", easy_file,
            *(f.format(data=easy_file, missing=missing) for f in flags)]
    assert main(argv) == 1
    assert fits == []
    assert missing in capsys.readouterr().err


def test_infinite_radius_is_an_unconstrained_solam(easy_file, capsys):
    assert main(["benchmark", "--data", easy_file, "--algos", "solam", "--mu", "30",
                 "--radius", "inf", "--repeats", "1", "--epochs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("solam,")


def test_more_folds_than_a_class_holds_is_data_error(tiny_file, capsys):
    assert main(["tune", "--data", tiny_file, "--folds", "3", "--pairs", "1"]) == 1
    assert "3-fold cross-validation" in capsys.readouterr().err
