"""Run one aucstream CLI invocation in this process and record where its time
went.

    python3 perfbench/probe.py OUT.json TRACE -- <aucstream arguments>

The benchmark starts one probe per CLI invocation, so every job runs in fresh
processes, as a user's would. Functions are patched where their callers look
them up (``aucstream.cli.load_libsvm``, ``ClassStats.snapshot``, ...).

TRACE 0 wraps only the phase-level entry points: loading, the training entry
points and the CLI entry itself, a few hundred calls per job at most.
TRACE 1 also wraps the per-step functions of every module. They are kept as
in-memory aggregates of calls, busy time and self time (busy time minus the
time spent in wrapped children); spans are recorded only for the job, load,
fit and eval boundaries. A target that cannot be found is listed under
``missing`` instead of failing the run.

Only time.perf_counter is used; nothing outside this process is traced.
The record also holds the process's peak resident set (VmHWM). The rusage a
parent gets from wait4 is no substitute: Linux carries the forking parent's
peak RSS over into the child's ru_maxrss at exec.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (aggregate name, owner, attribute). The owner is a module or module:Class.
PHASE_TARGETS = [
    ("data.load_libsvm", "aucstream.cli", "load_libsvm"),
    ("fit", "aucstream.cli", "train"),
    ("fit", "aucstream.bench", "run_algorithm"),
]
TRACE_TARGETS = [
    ("data.scores", "aucstream.data:Dataset", "scores"),
    ("data.subset", "aucstream.data:Dataset", "subset"),
    ("data.split", "aucstream.bench", "split"),
    ("data.stream_order", "aucstream.trainer", "stream_order"),
    ("stats.update", "aucstream.stats:ClassStats", "update"),
    ("stats.snapshot", "aucstream.stats:ClassStats", "snapshot"),
    ("stats.exact_snapshot", "aucstream.baselines", "exact_snapshot"),
    ("objective.surrogate_grad", "aucstream.trainer", "surrogate_grad"),
    ("objective.saddle_grad", "aucstream.baselines", "saddle_grad"),
    ("objective.pairwise_objective_fast", "aucstream.trainer",
     "pairwise_objective_fast"),
    ("regularizers.prox", "aucstream.regularizers:Regularizer", "prox"),
    ("schedules.step_size", "aucstream.schedules:PracticalSchedule", "step_size"),
    ("schedules.step_size", "aucstream.schedules:PolySchedule", "step_size"),
    ("schedules.step_size", "aucstream.schedules:LogDampedSchedule", "step_size"),
    ("schedules.step_size", "aucstream.schedules:FastRateSchedule", "step_size"),
    ("trainer.step", "aucstream.trainer:SpaucTrainer", "step"),
    ("trainer.averages", "aucstream.trainer:IterateAverages", "add"),
    ("trainer.averages", "aucstream.trainer:IterateAverages", "get"),
    ("trainer.stream_run", "aucstream.trainer", "stream_run"),
    ("trainer.stream_run", "aucstream.baselines", "stream_run"),
    ("trainer.save_model", "aucstream.cli", "save_model"),
    ("trainer.load_model", "aucstream.cli", "load_model"),
    ("baselines.spam.step", "aucstream.baselines:SpamTrainer", "step"),
    ("baselines.solam.step", "aucstream.baselines:SolamTrainer", "step"),
    ("metrics.auc", "aucstream.metrics", "auc"),
    ("metrics.auc", "aucstream.trainer", "auc"),
    ("metrics.auc", "aucstream.cli", "auc"),
    ("bench.cross_validate", "aucstream.bench", "cross_validate"),
    ("bench.write_trace", "aucstream.bench", "write_trace"),
]
SPANS = {"data.load_libsvm": "load", "fit": "fit", "metrics.auc": "eval"}
# aggregates split by an argument: the prox by penalty kind
PER_KIND = {"regularizers.prox": lambda args: "regularizers.prox." + args[0].kind}


def peak_rss_mb() -> float | None:
    """Peak resident set of this process since exec, in MB (10^6 bytes)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return None


class Recorder:
    def __init__(self):
        self.agg: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.children: list[float] = []  # wrapped-child time per open call
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self.counts = {"steps": 0, "bytes_loaded": 0, "trainer.diverged": 0,
                       "bench.cv_fits": 0, "bench.cv_diverged": 0,
                       "bench.cv_degenerate": 0}
        self.finals: list[list] = []  # [algo, final held-out AUC] per fit
        self.cv_depth = 0
        self.missing: list[str] = []

    def timed(self, name, fn, span=None, after=None):
        """Wrap fn so each call adds to the aggregate `name` (a string, or a
        function of the call's arguments for per-kind names)."""
        agg, children, clock = self.agg, self.children, time.perf_counter

        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            if span:
                sid = len(self.spans)
                self.spans.append({"name": span, "parent": (
                    self.open_spans[-1] if self.open_spans else None)})
                self.open_spans.append(sid)
            children.append(0.0)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                elapsed = end - start
                child = children.pop()
                if children:
                    children[-1] += elapsed
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if span:
                    self.open_spans.pop()
                    self.spans[sid].update(start=start, end=end)
                if after is not None:
                    after(args, kwargs, result, exc)
        return wrapper

    def patch(self, name, owner, attr, **hooks) -> None:
        module_name, _, cls_name = owner.partition(":")
        try:
            target = importlib.import_module(module_name)
            if cls_name:
                target = getattr(target, cls_name)
            fn = getattr(target, attr)
        except (ImportError, AttributeError):
            if name not in self.missing:
                self.missing.append(name)
            return
        setattr(target, attr, self.timed(PER_KIND.get(name, name), fn, **hooks))

    # -- hooks ---------------------------------------------------------
    def after_load(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.counts["bytes_loaded"] += os.path.getsize(args[0])

    def after_fit(self, args, kwargs, result, exc) -> None:
        from aucstream.trainer import DivergenceError
        if isinstance(exc, DivergenceError):
            self.counts["steps"] += exc.iteration
            self.counts["trainer.diverged"] += 1
        elif exc is None:
            last = result[1][-1]
            self.counts["steps"] += last.step
            if last.test_auc is not None:
                # run_algorithm(algo, ...) or cli's train(data, ...)
                algo = args[0] if isinstance(args[0], str) else "spauc"
                self.finals.append([algo, last.test_auc])
        if self.cv_depth:
            self.counts["bench.cv_fits"] += 1
            if isinstance(exc, DivergenceError):
                self.counts["bench.cv_diverged"] += 1
            elif isinstance(exc, ValueError):
                self.counts["bench.cv_degenerate"] += 1

    def after_auc(self, args, kwargs, result, exc) -> None:
        if self.cv_depth and isinstance(exc, ValueError):
            self.counts["bench.cv_degenerate"] += 1

    def install(self, traced: bool) -> None:
        hooks = {"data.load_libsvm": self.after_load, "fit": self.after_fit,
                 "metrics.auc": self.after_auc}
        for name, owner, attr in PHASE_TARGETS + (TRACE_TARGETS if traced else []):
            self.patch(name, owner, attr, span=SPANS.get(name) if traced else None,
                       after=hooks.get(name))
        if traced:
            self._mark_cv()

    def _mark_cv(self) -> None:
        """Count fits and degenerate folds made inside cross-validation."""
        if "bench.cross_validate" in self.missing:
            return
        import aucstream.bench as bench
        timed_cv = bench.cross_validate

        def cross_validate(*args, **kwargs):
            self.cv_depth += 1
            try:
                return timed_cv(*args, **kwargs)
            finally:
                self.cv_depth -= 1
        bench.cross_validate = cross_validate


def main() -> int:
    out_path, traced, sep, *cli_args = sys.argv[1:]
    if sep != "--" or traced not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder()
    rec.install(traced == "1")
    from aucstream import cli
    run_cli = rec.timed("cli.main", cli.main, span="job" if traced == "1" else None)
    code = 1
    try:
        code = run_cli(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        doc = {"exit": code, "agg": rec.agg, "counts": rec.counts,
               "finals": rec.finals, "missing": rec.missing,
               "spans": rec.spans, "peak_rss_mb": peak_rss_mb()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
