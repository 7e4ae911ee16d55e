"""Each checked-in tool under tools/ run once on tiny inputs, so that a change
to the library calls a tool makes cannot break it unseen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aucstream.data import save_libsvm

from conftest import gaussian_task

ROOT = Path(__file__).resolve().parent.parent


def run_tool(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_step_cost_prints_one_row_of_positive_cells():
    check_one_step_cost_row(run_tool("step_cost.py", "--dims", "1000"))


def test_step_cost_times_the_lazy_average():
    check_one_step_cost_row(run_tool("step_cost.py", "--dims", "1000", "--average", "avg2"))
    proc = run_tool("step_cost.py", "--dims", "1000", "--average", "avg3")
    assert proc.returncode == 2 and "invalid choice: 'avg3'" in proc.stderr


def check_one_step_cost_row(proc: subprocess.CompletedProcess) -> None:
    """One table row at d = 1000 of five positive cells, and the host scale."""
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows, host = proc.stdout.splitlines()
    assert header.startswith("| d |") and rule.startswith("|---")
    assert host.startswith("host scale ")
    assert float(host.split()[2].rstrip(":")) > 0
    assert len(rows) == 1
    d, *cells = [c.strip() for c in rows[0].strip("|").split("|")]
    assert d == "1,000"
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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="peak_rss.py reads /proc/self/status (Linux only)")
def test_peak_rss_reports_the_phases_of_a_train(tmp_path):
    data = tmp_path / "train.libsvm"
    save_libsvm(gaussian_task(1, n=60, d=4), str(data))
    proc = run_tool("peak_rss.py", "train", "--data", str(data), "--test", str(data),
                    "--mu", "30", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    phases = [line.split()[0] for line in proc.stderr.splitlines()[1:]]
    assert phases[0] == "imports"
    assert {"load", "fit"} <= set(phases)
    assert proc.stdout.startswith("test AUC: ")


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
