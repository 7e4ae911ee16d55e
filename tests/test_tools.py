"""Each checked-in tool under tools/ run once on tiny inputs, so that a change
to the library calls a tool makes cannot break it unseen; and the benchmark
probe (perfbench/probe.py), which must see every fit exactly once."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aucstream.baselines import ALGORITHMS
from aucstream.data import Dataset, load_libsvm, save_libsvm

from conftest import gaussian_task, read_trace

ROOT = Path(__file__).resolve().parent.parent


def run_tool(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_script(ROOT / "tools" / name, *args)


def run_script(path: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def load_tool(name: str, monkeypatch):
    """A tool's module, imported with its environment defaults kept to this
    test."""
    monkeypatch.setattr(os, "environ", os.environ.copy())
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cost_steps_the_rows_stream_run_gives(monkeypatch):
    """The table charges no int32 index cast, which no fit pays: the rows
    carry the dataset's values and labels and its indices as intp."""
    step_cost = load_tool("step_cost", monkeypatch)
    ds = step_cost.random_rows(1000)
    assert ds.indices.dtype == np.int32
    rows = step_cost.stream_rows(ds)
    assert len(rows) == len(ds)
    for row, ex in zip(rows, ds):
        assert row.indices.dtype == np.intp
        np.testing.assert_array_equal(row.indices, ex.indices)
        assert row.values.base is ds.values and row.label == ex.label


def test_step_cost_prints_one_row_of_positive_cells():
    check_one_step_cost_row(run_tool("step_cost.py", "--dims", "1000"))


def test_step_cost_times_the_lazy_average():
    check_one_step_cost_row(run_tool("step_cost.py", "--dims", "1000", "--average", "avg2"))
    proc = run_tool("step_cost.py", "--dims", "1000", "--average", "avg3")
    assert proc.returncode == 2 and "invalid choice: 'avg3'" in proc.stderr


def check_one_step_cost_row(proc: subprocess.CompletedProcess) -> None:
    """One table row at d = 1000, where the 400 rows hold every column, of
    five positive cells, and the host scale."""
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows, host = proc.stdout.splitlines()
    assert header.startswith("| d | d_eff |") and rule.startswith("|---")
    assert host.startswith("host scale ")
    assert float(host.split()[2].rstrip(":")) > 0
    assert len(rows) == 1
    d, d_eff, *cells = [c.strip() for c in rows[0].strip("|").split("|")]
    assert d == d_eff == "1,000"
    assert len(cells) == 5
    assert all(float(c.replace(",", "")) > 0 for c in cells)


def test_cv_cost_times_one_tiny_cell():
    proc = run_tool("cv_cost.py", "--algo", "spam", "--dims", "30", "--nnz", "5", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    header, rule, row, host = proc.stdout.splitlines()
    assert header.startswith("| algo | d |") and rule.startswith("|---")
    algo, d, nnz, k, *cells = [c.strip() for c in row.strip("|").split("|")]
    assert (algo, d, nnz, k) == ("spam l2", "30", "5", "2")
    assert len(cells) == 3 and all(float(c) > 0 for c in cells)
    assert host.startswith("host scale ")
    proc = run_tool("cv_cost.py", "--algo", "spauc,svm")
    assert proc.returncode == 2 and "--algo takes" in proc.stderr


def test_fingerprint_prints_the_same_hashes_twice():
    runs = [run_tool("fingerprint.py") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert [name for name, _ in lines] == ["fits", "fits-compact", "tune",
                                               "benchmark", "benchmark-compact",
                                               "parse"]
        assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="peak_rss.py reads /proc/self/status (Linux only)")
def test_peak_rss_reports_the_phases_of_a_train(tmp_path):
    data = tmp_path / "train.libsvm"
    save_libsvm(gaussian_task(1, n=60, d=4), str(data))
    proc = run_tool("peak_rss.py", "train", "--data", str(data), "--test", str(data),
                    "--mu", "30", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stderr.splitlines()
    assert header.split() == ["phase", "VmHWM", "MB", "VmRSS", "MB", "minflt", "seconds"]
    phases = [line.split()[0] for line in lines]
    assert phases[0] == "imports"
    assert {"load", "fit"} <= set(phases)
    # every phase's minor page faults, a count, and its seconds; the imports
    # alone take some of each
    faults = [int(line[12:].split()[2]) for line in lines]
    seconds = [float(line[12:].split()[3]) for line in lines]
    assert faults[0] > 0 and min(faults) >= 0
    assert seconds[0] > 0 and min(seconds) >= 0
    assert proc.stdout.startswith("test AUC: ")
    # each load, the training and the test file, gives the file's MB read
    # per second and its CSR size: 8 bytes per row bound and label, 4 per
    # index and 8 per value
    ds = load_libsvm(str(data))
    nbytes = 8 * (2 * len(ds) + 1) + 12 * ds.indices.size
    loads = [line for line in lines if line[:12].strip() == "load"]
    assert len(loads) == 2
    for line in loads:
        rate, unit = line[12:].split()[4:6]
        assert unit == "MB/s" and float(rate) > 0
        assert line.endswith(f"  CSR {nbytes / 2**20:.2f} MB, "
                             f"{nbytes / ds.indices.size:.2f} B per nonzero")
    assert all("CSR" not in line and "MB/s" not in line
               for line in lines if line not in loads)


def test_probe_sees_each_fit_once(tmp_path):
    """A traced probe run of train and of benchmark --tune names every
    reported fit once in its finals, and its step count is the sum of the
    fits' trace CSVs: each fit passes through exactly one of the probe's fit
    targets (cli.train, bench.run_algorithm)."""
    data = tmp_path / "train.libsvm"
    ds = gaussian_task(1, n=120, d=4)
    # features scaled down so that no sampled candidate diverges
    save_libsvm(Dataset(ds.indptr, ds.indices, 0.2 * ds.values, ds.labels, ds.dim),
                str(data))
    common = ["--data", str(data), "--epochs", "1", "--eval-every", "20"]
    trace = tmp_path / "train.csv"
    doc = run_probe(tmp_path / "train.json", "train", *common, "--test", str(data),
                    "--mu", "30", "--trace", str(trace))
    check_fits(doc, ["spauc"], [trace])

    outdir = tmp_path / "bench"
    outdir.mkdir()
    doc = run_probe(tmp_path / "bench.json", "benchmark", *common, "--tune",
                    "--repeats", "2", "--pairs", "3", "--folds", "2", "--outdir", str(outdir))
    # at d = 4 the lockstep fits every CV candidate, so only the reported
    # runs pass through run_algorithm
    assert doc["counts"]["bench.cv_fits"] == 0
    check_fits(doc, list(ALGORITHMS) * 2,
               [outdir / f"{algo}_rep{r}.csv" for r in range(2) for algo in ALGORITHMS])


def run_probe(out: Path, *cli_args: str) -> dict:
    proc = run_script(ROOT / "perfbench" / "probe.py", str(out), "1", "--", *cli_args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def check_fits(doc: dict, algos: list[str], traces: list[Path]) -> None:
    """One fit per trace CSV, in order, each seen once by the probe."""
    assert doc["exit"] == 0 and doc["missing"] == []
    finals = [read_trace(str(path))[-1] for path in traces]
    assert doc["finals"] == [[algo, point.test_auc] for algo, point in zip(algos, finals)]
    assert doc["agg"]["fit"][0] == doc["agg"]["trainer.stream_run"][0] == len(traces)
    assert doc["counts"]["steps"] == sum(point.step for point in finals)


def result_json(path: Path, workload: str, seed: int, wall_s: float) -> str:
    doc = {"workload": workload, "seed": seed, "host_scale": 1.0, "attempted": 3,
           "failed": 0, "environment": {"python": "3"},
           "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_bench_record_writes_medians_and_ratios(tmp_path):
    parent = [result_json(tmp_path / f"p{s}.json", "w", s, t)
              for s, t in [(1, 2.0), (2, 4.0), (3, 3.0)]]
    change = [result_json(tmp_path / f"c{s}.json", "w", s, t)
              for s, t in [(1, 1.0), (2, 1.5), (3, 2.0)]]
    out = tmp_path / "BENCH.json"
    proc = run_tool("bench_record.py", str(out), "--parent", *parent, "--change", *change)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["environment"] == {"python": "3"}
    w = doc["workloads"]["w"]
    assert w["parent"]["median"] == {"wall_s": 3.0}
    assert w["change"]["median"] == {"wall_s": 1.5}
    assert w["change_over_parent"] == {"wall_s": 0.5}
    assert [run["seed"] for run in w["parent"]["runs"]] == [1, 2, 3]
    assert w["parent"]["units"] == {"wall_s": "s"}
