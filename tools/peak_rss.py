"""Peak and current resident memory after each phase of one CLI invocation.

    PYTHONPATH=src python3 tools/peak_rss.py <aucstream arguments>

    e.g.  PYTHONPATH=src python3 tools/peak_rss.py train --data train.libsvm \\
              --test test.libsvm --reg l1 --lambda 1e-5 --mu 0.01 --out model.json

Runs the verb in this process, as perfbench/probe.py does, and after each
phase prints the process's VmHWM (peak resident set so far) and VmRSS
(resident set now), in MB, from /proc/self/status, the minor page faults
taken during the phase (getrusage's ru_minflt) and its wall seconds (a
phase inside another, such as a fit's scoring passes, counts in both): once
after the imports (the faults since the process started, the seconds since
this tool started), then after each data load, fit, scoring pass (the trace
points of a fit, the held-out scoring of eval and benchmark), model save and
model load. Beside each data load it prints the file's MB (2^20 bytes) read
per second, the loaded dataset's CSR bytes (its four arrays) and those bytes
per stored nonzero. A phase's peak is VmHWM after it less VmHWM before it; the
benchmark's peak_rss_mb is the last VmHWM. A fit that re-faults memory the
allocator gave back since the previous fit shows as more faults. Linux
only; not part of the test suite.
"""

import functools
import os
import resource
import sys
import time

STARTED = time.perf_counter()

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


def csr_size(ds: Dataset) -> str:
    """The bytes of a dataset's four CSR arrays, in MB and per nonzero."""
    nbytes = sum(a.nbytes for a in (ds.indptr, ds.indices, ds.values, ds.labels))
    return (f"CSR {nbytes / 2**20:.2f} MB, "
            f"{nbytes / max(1, ds.indices.size):.2f} B per nonzero")


def minor_faults() -> int:
    """Minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def report(phase: str, faults: int, seconds: float, result=None, path=None) -> None:
    hwm, rss = memory_mb()
    size = ""
    if isinstance(result, Dataset):  # a data load, of the file at `path`
        size = (f"  {os.path.getsize(path) / 2**20 / seconds:.1f} MB/s"
                f"  {csr_size(result)}")
    print(f"{phase:12s} {hwm:9.1f} {rss:9.1f} {faults:9d} {seconds:9.4f}{size}",
          file=sys.stderr, flush=True)


def reporting(phase: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = None
        before, start = minor_faults(), time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            report(phase, minor_faults() - before, time.perf_counter() - start,
                   result, args[0] if args else None)
    return wrapper


def main() -> int:
    for phase, owner, attr in PHASES:
        setattr(owner, attr, reporting(phase, getattr(owner, attr)))
    print(f"{'phase':12s} {'VmHWM MB':>9s} {'VmRSS MB':>9s} {'minflt':>9s} "
          f"{'seconds':>9s}", file=sys.stderr)
    report("imports", minor_faults(), time.perf_counter() - STARTED)
    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
