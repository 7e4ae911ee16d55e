"""Peak and current resident memory after each phase of one CLI invocation.

    PYTHONPATH=src python3 tools/peak_rss.py <aucstream arguments>

    e.g.  PYTHONPATH=src python3 tools/peak_rss.py train --data train.libsvm \\
              --test test.libsvm --reg l1 --lambda 1e-5 --mu 0.01 --out model.json

Runs the verb in this process, as perfbench/probe.py does, and after each
phase prints the process's VmHWM (peak resident set so far) and VmRSS
(resident set now), in MB, from /proc/self/status: once after the imports,
then after each data load, fit, scoring pass (the trace points of a fit,
the held-out scoring of eval and benchmark), model save and model load. A
phase's peak is VmHWM after it less VmHWM before it; the benchmark's
peak_rss_mb is the last VmHWM. Linux only; not part of the test suite.
"""

import functools
import os
import sys

# one BLAS thread, as in perfbench/run.py, unless the caller chose otherwise;
# set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from aucstream import bench, cli  # noqa: E402
from aucstream.data import Dataset  # noqa: E402

# (phase name, owner, attribute), patched where the CLI looks them up
PHASES = [
    ("load", cli, "load_libsvm"),
    ("fit", cli, "train"),
    ("fit", bench, "run_algorithm"),
    ("score", Dataset, "scores"),
    ("save", cli, "save_model"),
    ("load model", cli, "load_model"),
]


def memory_mb() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(rest.split()[0]) / 1024  # kB
    return fields["VmHWM"], fields["VmRSS"]


def report(phase: str) -> None:
    hwm, rss = memory_mb()
    print(f"{phase:12s} {hwm:9.1f} {rss:9.1f}", file=sys.stderr, flush=True)


def reporting(phase: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            report(phase)
    return wrapper


def main() -> int:
    for phase, owner, attr in PHASES:
        setattr(owner, attr, reporting(phase, getattr(owner, attr)))
    print(f"{'phase':12s} {'VmHWM MB':>9s} {'VmRSS MB':>9s}", file=sys.stderr)
    report("imports")
    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
