"""aucstream benchmark: seeded workloads run through the real CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building, the CLI is
run from ``src`` in fresh interpreter processes (see probe.py). NAME is one
of the workloads below, or ``all`` to run each in turn.

A run generates its input files from the seed (not timed), then runs jobs in
a closed loop with one client, each job starting after the previous one has
exited, until S seconds have passed. Every CLI invocation is one operation;
it fails on a non-zero exit or a failed output check. The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Timings are medians over the run's jobs, scaled to a nominal host
speed by a frozen reference job timed between them (see hostref.py); the
seconds as measured are kept in the human-readable lines and result.json.

Only per-process timers are used: time.perf_counter and the rusage that
os.wait4 returns for each child. Nothing system-wide is traced, read from
hardware counters or flushed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One job runs at a time, on one core: BLAS gets one thread, here and in the
# jobs, unless the caller chose otherwise. Set before numpy loads BLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import gen  # noqa: E402
import probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(probe.__file__).resolve()
HOSTREF = PROBE.with_name("hostref.py")
# Mean wall time of hostref.py on the machine the bounds were set on (2-vCPU
# Xeon VM, Python 3.11, numpy 2.4, one BLAS thread). It only fixes the scale
# of the reported timings.
HOSTREF_NOMINAL_S = 0.5
# end-to-end metrics cannot be computed without these
PHASE_NAMES = {name for name, _, _ in probe.PHASE_TARGETS}
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run, generation included, ends within this

TRACE_HEADER = "iter,elapsed_sec,test_auc,objective"
REPORT_HEADER = "algo,dataset,auc_mean,auc_std,time_per_pass_mean,time_per_pass_std"
ALGOS = ["spauc", "spam", "solam"]

END_TO_END = {  # name -> (unit, power of the host-speed scale it takes)
    "wall_s": ("s", 1), "setup_s": ("s", 1), "train_steps_per_s": ("steps/s", -1),
    "test_auc": ("auc", 0), "peak_rss_mb": ("MB", 0),
}


# -- one CLI invocation ----------------------------------------------------

@dataclass
class Invocation:
    args: list[str]
    exit: int
    wall_s: float
    cpu_s: float  # user + system time of the process
    stdout: str
    probe: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def invoke(args: list[str], jobdir: Path, traced: bool, deadline: float) -> Invocation:
    """Run `aucstream ARGS` through the probe in a fresh process, killing it
    at `deadline` (a perf_counter time); wall time covers interpreter start,
    imports and exit."""
    verb = args[0]  # each verb runs at most once per job
    probe_out = jobdir / f"{verb}.probe.json"
    out_path, err_path = jobdir / f"{verb}.stdout", jobdir / f"{verb}.stderr"
    env = child_env()
    cmd = [sys.executable, str(PROBE), str(probe_out), "1" if traced else "0",
           "--", *args]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(args, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     out_path.read_text())
    if inv.exit != 0:
        inv.problems.append(f"exit code {inv.exit}: {err_path.read_text()[-500:]}")
    try:
        inv.probe = json.loads(probe_out.read_text())
    except (OSError, ValueError):
        inv.problems.append("probe wrote no record")
    if inv.probe and inv.probe.get("peak_rss_mb") is None:
        inv.problems.append("probe could not read its peak RSS")
    lost = PHASE_NAMES.intersection(inv.probe.get("missing", []))
    if lost:
        inv.problems.append(f"phase-level targets not found: {sorted(lost)}")
    return inv


def host_reference() -> float:
    """Wall time of one run of the frozen reference job."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HOSTREF)], check=True, cwd=ROOT)
    return time.perf_counter() - start


def read_trace_csv(path: Path, inv: Invocation) -> list[str] | None:
    """Last row of a trace CSV after checking its header."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        inv.problems.append(f"missing trace {path.name}")
        return None
    if not lines or lines[0] != TRACE_HEADER:
        inv.problems.append(f"bad trace header in {path.name}: {lines[:1]}")
        return None
    if len(lines) < 2:
        inv.problems.append(f"empty trace {path.name}")
        return None
    return lines[-1].split(",")


# -- workloads -------------------------------------------------------------

@dataclass
class Inputs:
    files: dict[str, Path]
    held_out: gen.Rows | None = None  # for checking saved models


class Workload:
    name = ""
    why = ""
    auc_floor = 0.0

    def generate(self, seed: int, work: Path) -> Inputs:
        raise NotImplementedError

    def run(self, seed: int, inputs: Inputs, jobdir: Path, traced: bool,
            deadline: float) -> list[Invocation]:
        raise NotImplementedError


class BenchmarkVerb(Workload):
    """`aucstream benchmark` over one generated file; checks the report rows
    and every per-run trace CSV against the fits the probe saw."""

    repeats = 1
    flags: list[str] = []

    def run(self, seed, inputs, jobdir, traced, deadline):
        inv = invoke(["benchmark", "--data", str(inputs.files["data"]),
                      "--algos", ",".join(ALGOS), "--repeats", str(self.repeats),
                      "--seed", str(seed), "--outdir", str(jobdir), *self.flags],
                     jobdir, traced, deadline)
        if inv.exit == 0 and inv.probe:
            self.check(inv, jobdir)
        return [inv]

    def check(self, inv: Invocation, jobdir: Path) -> None:
        lines = inv.stdout.splitlines()
        if lines[:1] != [REPORT_HEADER]:
            inv.problems.append(f"bad report header {lines[:1]}")
            return
        finals = inv.probe["finals"]
        expected = [a for _ in range(self.repeats) for a in ALGOS]
        if [a for a, _ in finals] != expected:
            inv.problems.append(f"final runs {[a for a, _ in finals]} != {expected}")
            return
        for k, (algo, final_auc) in enumerate(finals):
            last = read_trace_csv(jobdir / f"{algo}_rep{k // len(ALGOS)}.csv", inv)
            if last is not None and float(last[2]) != final_auc:
                inv.problems.append(f"{algo} rep {k // len(ALGOS)}: trace AUC "
                                    f"{last[2]} != fitted {final_auc!r}")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        for algo in ALGOS:
            mean = float(np.mean([a for name, a in finals if name == algo]))
            if algo not in rows or rows[algo][2] != f"{mean:.4f}":
                inv.problems.append(f"report row for {algo} {rows.get(algo)} "
                                    f"does not show mean AUC {mean:.4f}")


class TuneDense(BenchmarkVerb):
    name = "tune-dense-d8"
    why = ("d=8 dense, shaped like scaled UCI diabetes: per-call overhead, "
           "many short CV fits, fold subsets and held-out scoring")
    auc_floor = 0.6
    repeats = 4
    flags = ["--reg", "l2", "--tune", "--epochs", "1", "--pairs", "4",
             "--folds", "3"]

    def generate(self, seed, work):
        path = work / "diabetes_like.libsvm"
        gen.dense(seed, n=768, dim=8, pos_frac=0.35, spread=0.05,
                  shift=0.075).write(str(path))
        return Inputs({"data": path})


class StreamSparse(BenchmarkVerb):
    name = "stream-sparse-d1e5"
    why = ("d=1e5, 50 nnz per row, no tuning: the O(d) dense work in each "
           "step dominates; parsing is a small share")
    auc_floor = 0.8
    repeats = 1
    flags = ["--reg", "l2", "--lambda", "1e-4", "--mu", "0.01", "--epochs", "1",
             "--eval-every", "200"]

    def generate(self, seed, work):
        path = work / "sparse_d1e5.libsvm"
        gen.planted_sparse(seed, n=600, dim=100_000, nnz=50, n_informative=100,
                           informative_per_row=6, purity=0.8).write(str(path))
        return Inputs({"data": path})


class PipelineL1(Workload):
    name = "pipeline-l1-file"
    why = ("train --reg l1 then eval on ~15 MB of text, d=1e4, 100 nnz per row: "
           "parsing dominates; the only model save/load path")
    auc_floor = 0.85

    def generate(self, seed, work):
        rows = gen.planted_sparse(seed, n=10_000, dim=10_000, nnz=100,
                                  n_informative=200, informative_per_row=8,
                                  purity=0.75)
        files = {"train": work / "train_d1e4.libsvm",
                 "test": work / "test_d1e4.libsvm"}
        rows.take(0, 6000).write(str(files["train"]))
        held_out = rows.take(6000, 10_000)
        held_out.write(str(files["test"]))
        return Inputs(files, held_out)

    def run(self, seed, inputs, jobdir, traced, deadline):
        model, trace = jobdir / "model.json", jobdir / "trace.csv"
        fit = invoke(["train", "--data", str(inputs.files["train"]),
                      "--test", str(inputs.files["test"]), "--reg", "l1",
                      "--lambda", "1e-5", "--mu", "0.01", "--epochs", "1",
                      "--seed", str(seed), "--eval-every", "2000",
                      "--out", str(model), "--trace", str(trace)],
                     jobdir, traced, deadline)
        printed = None
        if fit.exit == 0 and fit.probe:
            printed = self.check_train(fit, inputs, model, trace)
        ev = invoke(["eval", "--model", str(model), "--data",
                     str(inputs.files["test"])], jobdir, traced, deadline)
        if ev.exit == 0 and printed is not None and ev.stdout.strip() != printed:
            ev.problems.append(f"eval printed {ev.stdout.strip()!r}, train {printed!r}")
        return [fit, ev]

    def check_train(self, inv, inputs, model, trace) -> str | None:
        from aucstream.metrics import auc_bruteforce
        finals = inv.probe["finals"]
        if len(finals) != 1:
            inv.problems.append(f"expected one final fit, saw {len(finals)}")
            return None
        final_auc = finals[0][1]
        printed = inv.stdout.strip().removeprefix("test AUC: ")
        last = read_trace_csv(trace, inv)
        if last is not None and float(last[2]) != final_auc:
            inv.problems.append(f"trace AUC {last[2]} != fitted {final_auc!r}")
        try:
            weights = np.asarray(json.loads(model.read_text())["weights"])
        except (OSError, ValueError, KeyError) as exc:
            inv.problems.append(f"unreadable model {model.name}: {exc!r}")
            return None
        held_out = inputs.held_out
        oracle = auc_bruteforce(held_out.scores(weights), held_out.labels)
        if abs(oracle - final_auc) > 1e-9 or printed != f"{oracle:.4f}":
            inv.problems.append(f"printed AUC {printed!r}, fitted {final_auc!r}, "
                                f"pair-count oracle on the saved model {oracle!r}")
        return printed


WORKLOADS = {w.name: w for w in (TuneDense(), StreamSparse(), PipelineL1())}


# -- jobs and metrics ------------------------------------------------------

CALLS, BUSY, SELF = 0, 1, 2  # columns of a probe aggregate


@dataclass
class Job:
    traced: bool
    invocations: list[Invocation]

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)

    def agg(self, name: str, col: int) -> float:
        return sum(i.probe.get("agg", {}).get(name, [0, 0.0, 0.0])[col]
                   for i in self.invocations)

    def count(self, name: str) -> int:
        return sum(i.probe.get("counts", {}).get(name, 0) for i in self.invocations)

    @property
    def test_auc(self) -> float:
        aucs = [a for i in self.invocations for _, a in i.probe.get("finals", [])]
        return float(np.mean(aucs)) if aucs else float("nan")

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "setup_s": self.agg("data.load_libsvm", BUSY),
            "train_steps_per_s": self.count("steps") / self.agg("fit", BUSY),
            "test_auc": self.test_auc,
            "peak_rss_mb": max(i.probe["peak_rss_mb"] for i in self.invocations),
        }


def per_layer_table() -> dict:
    """name -> (unit, probe targets it reads, value for one traced job)."""
    t = {}

    def col(key, c):
        return lambda job: job.agg(key, c)

    for source in ("data.load_libsvm", "data.scores", "data.subset",
                   "stats.update", "stats.snapshot", "objective.surrogate_grad",
                   "objective.saddle_grad", "objective.pairwise_objective_fast",
                   "schedules.step_size", "metrics.auc"):
        t[f"{source}.calls"] = ("count", [source], col(source, CALLS))
        t[f"{source}.busy_s"] = ("s", [source], col(source, BUSY))
    for kind in ("l2", "l1"):
        key = f"regularizers.prox.{kind}"
        t[f"{key}.calls"] = ("count", ["regularizers.prox"], col(key, CALLS))
        t[f"{key}.busy_s"] = ("s", ["regularizers.prox"], col(key, BUSY))
    for source in ("data.split", "data.stream_order", "stats.exact_snapshot",
                   "trainer.averages", "trainer.save_model", "trainer.load_model",
                   "bench.cross_validate", "bench.write_trace"):
        t[f"{source}.busy_s"] = ("s", [source], col(source, BUSY))
    t["trainer.stream_run.self_s"] = ("s", ["trainer.stream_run"],
                                      col("trainer.stream_run", SELF))
    for source in ("trainer.step", "baselines.spam.step", "baselines.solam.step"):
        t[f"{source}.calls"] = ("count", [source], col(source, CALLS))
        t[f"{source}.self_s"] = ("s", [source], col(source, SELF))
        t[f"{source}.us_per_step"] = ("us", [source], lambda job, s=source: (
            1e6 * job.agg(s, BUSY) / job.agg(s, CALLS) if job.agg(s, CALLS) else 0.0))
    t["trainer.diverged"] = ("count", ["fit"], lambda job: job.count("trainer.diverged"))
    cv = ["fit", "bench.cross_validate", "metrics.auc"]
    for name in ("bench.cv_fits", "bench.cv_diverged", "bench.cv_degenerate"):
        t[name] = ("count", cv, lambda job, n=name: job.count(n))

    def useful(job):
        fits = job.count("bench.cv_fits")
        wasted = job.count("bench.cv_diverged") + job.count("bench.cv_degenerate")
        return (fits - wasted) / fits if fits else 0.0

    t["bench.cv_useful_ratio"] = ("ratio", cv, useful)
    t["data.load_libsvm.mb_per_s"] = ("MB/s", ["data.load_libsvm"], lambda job: (
        job.count("bytes_loaded") / 1e6 / job.agg("data.load_libsvm", BUSY)))
    t["data.load_libsvm.wall_share"] = ("ratio", ["data.load_libsvm"], lambda job: (
        job.agg("data.load_libsvm", BUSY) / job.wall_s))
    t["fit.busy_s"] = ("s", ["fit"], col("fit", BUSY))
    busy = ["stats.snapshot", "objective.surrogate_grad", "objective.saddle_grad",
            "regularizers.prox.l2", "regularizers.prox.l1", "trainer.averages"]
    steps = ["trainer.step", "baselines.spam.step", "baselines.solam.step"]
    sources = ["fit", *busy[:3], "regularizers.prox", *busy[5:], *steps]
    t["fit.kernel_share"] = ("ratio", sources, lambda job: (
        (sum(job.agg(k, BUSY) for k in busy) + sum(job.agg(k, SELF) for k in steps))
        / job.agg("fit", BUSY)))
    t["cli.startup_s"] = ("s", [], lambda job: job.wall_s - job.agg("cli.main", BUSY))
    return t


PER_LAYER = per_layer_table()


# -- a run -----------------------------------------------------------------

def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "timers": "time.perf_counter, per-child getrusage (os.wait4) and each "
                  "job process's own VmHWM only; "
                  "no system-wide tracing, hardware counters or cache dropping",
    }


def layer_rows(traced: list[Job], plain: list[Job], missing: list[str]) -> dict:
    """Per-layer values of the traced jobs, plus the tracing overhead: the
    median traced job's wall time minus the median untraced one's."""
    rows = {}
    for name, (unit, sources, value) in PER_LAYER.items():
        if any(s in missing for s in sources):
            continue
        values = [value(j) for j in traced]
        if unit == "count" and len(set(values)) > 1:
            traced[0].invocations[0].problems.append(
                f"{name} differs between traced jobs: {values}")
        rows[name] = (values, unit)
    rows["trace.wall_s"] = ([j.wall_s for j in traced], "s")
    rows["trace.overhead_s"] = ([statistics.median(j.wall_s for j in traced)
                                 - statistics.median(j.wall_s for j in plain)], "s")
    return rows


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.generate(seed, work)
    jobdir = work / "job"
    # warm the bytecode cache and the shared libraries before timing
    subprocess.run([sys.executable, "-c", "import aucstream.cli"], cwd=ROOT,
                   env=child_env(), check=True)
    host_reference()  # untimed, so the timed reference jobs start warm too

    jobs: list[Job] = []
    refs: list[float] = []  # reference job times, one before each job and one after
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(jobs) < (2 if trace else 1):
        shutil.rmtree(jobdir, ignore_errors=True)
        jobdir.mkdir()
        traced = trace and len(jobs) % 2 == 0
        refs.append(host_reference())
        jobs.append(Job(traced, wl.run(seed, inputs, jobdir, traced, hard_deadline)))
    refs.append(host_reference())
    # measured seconds times this are seconds at the nominal host speed; the
    # mean, not the median, because the host's speed comes in bursts that a
    # reference job samples while a longer job averages over them
    scale = HOSTREF_NOMINAL_S / statistics.mean(refs)

    def clean_jobs():
        return [j for j in jobs if not any(i.problems for i in j.invocations)]

    for job in clean_jobs():
        inv = job.invocations[0]
        if not job.test_auc >= wl.auc_floor:
            inv.problems.append(f"test AUC {job.test_auc!r} below {wl.auc_floor}")
    clean = clean_jobs()
    for job in clean[1:]:
        if job.test_auc != clean[0].test_auc:
            job.invocations[0].problems.append(
                f"test AUC {job.test_auc!r} differs from {clean[0].test_auc!r} "
                f"in an earlier job of this seed")
    missing = sorted({m for j in jobs for i in j.invocations
                      for m in i.probe.get("missing", [])})
    clean = clean_jobs()
    traced = [j for j in clean if j.traced]
    plain = [j for j in clean if not j.traced]
    powers = {}
    if trace and traced and plain:
        rows = layer_rows(traced, plain, missing)
        rows["host.ref_s"] = (refs, "s")
    elif not trace and clean:
        rows = {name: ([j.end_to_end()[name] for j in clean], unit)
                for name, (unit, _) in END_TO_END.items()}
        powers = {name: power for name, (_, power) in END_TO_END.items()}
    else:
        rows = {}
    attempted = sum(len(j.invocations) for j in jobs)
    failed = sum(1 for j in jobs for i in j.invocations if i.problems)
    # counts repeat exactly between jobs (checked above), so report one
    metrics = {name: {"value": values[0] if unit == "count"
                      else statistics.median(values) * scale ** powers.get(name, 0),
                      "unit": unit}
               for name, (values, unit) in rows.items()}
    result = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "environment": environment(), "missing": missing,
        "host_ref_s": refs, "host_scale": scale,
        "jobs": [{"traced": j.traced, "wall_s": j.wall_s,
                  "invocations": [{"args": i.args, "exit": i.exit,
                                   "wall_s": i.wall_s, "cpu_s": i.cpu_s,
                                   "peak_rss_mb": i.probe.get("peak_rss_mb"),
                                   "problems": i.problems,
                                   "spans": i.probe.get("spans", [])}
                                  for i in j.invocations]} for j in jobs],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1))
    report(result, rows)
    return result


def report(result: dict, rows: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(result['jobs'])} jobs, {result['attempted']} invocations, "
          f"{result['failed']} failed; host scale {result['host_scale']:.4f}")
    for name, (values, unit) in rows.items():
        value = result["metrics"][name]["value"]
        print(f"  {name:38s} {value:14.6g} {unit:8s} "
              f"(measured: median of {len(values)} {statistics.median(values):.6g}, "
              f"min {min(values):.6g}, max {max(values):.6g})")
    if not result["trace"]:
        print(f"  {'failed_frac':38s} {result['failed'] / result['attempted']:14.6g} "
              f"{'ratio':8s} ({result['failed']} of {result['attempted']})")
    for job in result["jobs"]:
        for inv in job["invocations"]:
            for problem in inv["problems"]:
                print(f"  FAILED {' '.join(inv['args'][:1])}: {problem}")
    if result["missing"]:
        print(f"  missing (target not found): {', '.join(result['missing'])}")
    print("  environment: " + json.dumps(result["environment"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "aucstream" / "cli.py").is_file():
        print(f"error: no aucstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
