"""Microseconds per learner step at growing dimension, one table.

    PYTHONPATH=src python3 tools/step_cost.py [--dims 1000,10000,100000,1000000]
                                              [--average last|avg1|avg2]

For each d it draws 400 seeded rows of 50 nonzeros (distinct indices, normal
values, labels +1/-1 with prior 1/2), keeps them on the columns they hold, as
baselines.run_algorithm trains (baselines.compact; the table prints that
count, d_eff, beside d), and steps a fresh learner over them once, in row
order, with the practical schedule mu = 0.01, penalty weight 1e-4 and
the iterate average of --average (default: the last iterate; avg1 and avg2 add
the lazy average's cost, its folds' settles included). A cell is the best of 3
such passes: the seconds of the step loop alone (rows are built and learners
constructed before the clock starts) divided by the 400 rows, warm-up rows
included, and scaled to the nominal host of perfbench/run.py:
perfbench/hostref.py is timed in a fresh process before and after the table,
and every cell is multiplied by 0.5 s over the mean of those two times, the
factor printed under the table. The columns are spam l2, spam l1, spauc l1,
spauc l2 and solam (no penalty, radius TrainConfig.radius), each the learner
that baselines.LEARNERS, the routing table of run_algorithm, gives the
algorithm and penalty, at d_eff.

The full table takes about half a minute on a 2-core machine and uses a few
hundred MB at d = 10^6. It is not part of the test suite.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, as in perfbench/run.py, unless the caller chose otherwise;
# set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from aucstream.baselines import LEARNERS, compact  # noqa: E402
from aucstream.data import Dataset  # noqa: E402
from aucstream.regularizers import l1, l2, none_reg  # noqa: E402
from aucstream.schedules import PracticalSchedule  # noqa: E402
from aucstream.stats import exact_snapshot  # noqa: E402
from aucstream.trainer import AVERAGES, TrainConfig  # noqa: E402

ROWS, NNZ, REPEATS, MU, LAM = 400, 50, 3, 0.01, 1e-4
# column name -> (algorithm, penalty), in table order
COLUMNS = {"spam l2": ("spam", l2(LAM)), "spam l1": ("spam", l1(LAM)),
           "spauc l1": ("spauc", l1(LAM)), "spauc l2": ("spauc", l2(LAM)),
           "solam": ("solam", none_reg())}
HOSTREF = Path(__file__).resolve().parent.parent / "perfbench" / "hostref.py"
HOSTREF_NOMINAL_S = 0.5  # perfbench/run.py's nominal host


def host_reference() -> float:
    """Wall time of one run of perfbench/hostref.py in a fresh process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HOSTREF)], check=True)
    return time.perf_counter() - start


def random_rows(d: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng([seed, d])
    indices = np.concatenate([np.sort(rng.choice(d, size=NNZ, replace=False))
                              for _ in range(ROWS)])
    values = rng.normal(size=ROWS * NNZ)
    labels = rng.choice([1, -1], size=ROWS)
    return Dataset(np.arange(0, ROWS * NNZ + 1, NNZ), indices, values, labels, dim=d)


def learners(ds: Dataset, average: str) -> dict:
    """Column name -> a function building a fresh learner for ds."""
    moments = exact_snapshot(ds)

    def builder(algo, reg):
        config = TrainConfig(regularizer=reg, schedule=PracticalSchedule(MU), average=average)
        make = LEARNERS[algo][reg.kind == "l1"]
        extra = (moments,) if algo == "spam" else ()
        return lambda: make(ds.dim, config, *extra)
    return {name: builder(*column) for name, column in COLUMNS.items()}


def us_per_step(make, rows: list) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        learner = make()
        tick = time.perf_counter()
        for z in rows:
            learner.step(z)
        best = min(best, time.perf_counter() - tick)
    return 1e6 * best / len(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default="1000,10000,100000,1000000",
                        help="comma-separated dimensions")
    parser.add_argument("--average", default="last", choices=AVERAGES,
                        help="the learners' iterate average")
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    host_reference()  # untimed, so the timed runs start warm, as in perfbench
    before = host_reference()
    table = []
    for d in dims:
        ds, _ = compact(random_rows(d))
        rows = list(ds)
        table.append((d, ds.dim, {name: us_per_step(make, rows)
                                  for name, make in learners(ds, args.average).items()}))
    after = host_reference()
    scale = HOSTREF_NOMINAL_S / ((before + after) / 2)
    header = list(table[0][2])
    print("| d | d_eff | " + " | ".join(header) + " |")
    print("|---" * (len(header) + 2) + "|")
    for d, d_eff, cells in table:
        print(f"| {d:,} | {d_eff:,} | "
              + " | ".join(f"{cells[n] * scale:,.1f}" for n in header) + " |")
    print(f"host scale {scale:.4f}: hostref.py took {before:.3f} s before the "
          f"table and {after:.3f} s after it, nominal {HOSTREF_NOMINAL_S} s")


if __name__ == "__main__":
    main()
