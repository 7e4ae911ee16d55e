"""Seconds of one bench.tune call, lockstep against one fit per candidate.

    PYTHONPATH=src python3 tools/cv_cost.py [--algo spauc,spam,solam] [--dims 1000]
                                            [--nnz 50] [--pairs 4,15]

For each algorithm, d and K (--pairs) it draws ROWS = 512 seeded rows with
--nnz nonzeros each at distinct indices (0: every column, dense rows), normal
values scaled to a unit norm on average and labels +1/-1 with prior 1/2, and
times bench.tune on them under the tuning protocol's l2 grid
(protocol_grid("l2", K, FOLDS = 3), solam's radius tuned as under `tune`),
one epoch, seed 1. One call is the `tune` verb's shape: a single problem of
3 folds, so a lockstep pass holds 3 folds; `benchmark --tune` packs the folds
of every repeat into a pass, up to LOCKSTEP_MAX_CELLS iterate entries, and
this table does not cover that path. The call runs with
bench.LOCKSTEP_MAX_DIM set to d, so that lockstep passes fit the candidates,
and set to d - 1, so that run_algorithm fits each candidate of each fold
alone; the two alternate, 3 times each, so that host drift reaches both
alike, and a cell is the best of its 3 calls, in seconds, scaled to the
nominal host of perfbench/run.py as tools/step_cost.py scales its cells:
perfbench/hostref.py is timed in a fresh process before and after the table,
and every cell is multiplied by 0.5 s over the mean of those two times, the
factor printed under the table. The last column is lockstep over
per-candidate, unscaled, so above 1 the lockstep is the slower path. The
size rule itself reads d alone (LOCKSTEP_MAX_DIM); this tool measures shapes
no benchmark workload covers. The default table takes about half a minute
per algorithm on a 2-core machine; it is not part of the test suite.
"""

import argparse
import os
import time
from unittest.mock import patch

# one BLAS thread, as in perfbench/run.py, unless the caller chose otherwise;
# set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from aucstream import bench  # noqa: E402
from aucstream.baselines import ALGORITHMS  # noqa: E402
from aucstream.data import Dataset  # noqa: E402
from aucstream.regularizers import Regularizer  # noqa: E402
from aucstream.schedules import PracticalSchedule  # noqa: E402
from aucstream.trainer import TrainConfig  # noqa: E402
from step_cost import HOSTREF_NOMINAL_S, host_reference  # noqa: E402

REPEATS = 3
ROWS = 512
FOLDS = 3
CONFIG = TrainConfig(Regularizer("l2", 1e-4), PracticalSchedule(1.0), epochs=1, seed=1)


def random_rows(n: int, d: int, nnz: int, seed: int = 0) -> Dataset:
    rng = np.random.default_rng([seed, d, nnz])
    per_row = nnz or d
    indices = (np.concatenate([np.sort(rng.choice(d, size=nnz, replace=False))
                               for _ in range(n)]) if nnz else np.tile(np.arange(d), n))
    values = rng.normal(size=n * per_row) / np.sqrt(per_row)
    labels = rng.choice([1, -1], size=n)
    return Dataset(np.arange(0, n * per_row + 1, per_row), indices, values, labels, dim=d)


def tune_seconds(algo: str, ds: Dataset, grid: bench.TuneGrid) -> tuple[float, float]:
    """Best seconds of the lockstep and of the per-candidate path, alternating."""
    best = {ds.dim: float("inf"), ds.dim - 1: float("inf")}
    for _ in range(REPEATS):
        for max_dim in best:
            with patch.object(bench, "LOCKSTEP_MAX_DIM", max_dim):
                tick = time.perf_counter()
                bench.tune(ds, algo, grid, [CONFIG])
                best[max_dim] = min(best[max_dim], time.perf_counter() - tick)
    return best[ds.dim], best[ds.dim - 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--algo", default="spauc",
                        help="comma-separated algorithms, of " + ", ".join(ALGORITHMS))
    parser.add_argument("--dims", default="1000", help="comma-separated dimensions")
    parser.add_argument("--nnz", type=int, default=50,
                        help="nonzeros per row, 0 for dense rows")
    parser.add_argument("--pairs", default="4,15",
                        help="comma-separated candidate counts K")
    args = parser.parse_args()
    algos = args.algo.split(",")
    if not set(algos) <= set(ALGORITHMS):
        parser.error(f"--algo takes {', '.join(ALGORITHMS)}, got {args.algo}")
    dims = [int(d) for d in args.dims.split(",")]
    if not 0 <= args.nnz <= min(dims):
        parser.error(f"--nnz must be in [0, {min(dims)}], got {args.nnz}")
    host_reference()  # untimed, so the timed runs start warm, as in perfbench
    before = host_reference()
    table = []
    for d in dims:
        ds = random_rows(ROWS, d, args.nnz)
        for algo in algos:
            for pairs in (int(k) for k in args.pairs.split(",")):
                grid = bench.protocol_grid("l2", pairs, FOLDS, tune_radius=algo == "solam")
                table.append((algo, d, grid.pair_sample_size, *tune_seconds(algo, ds, grid)))
    after = host_reference()
    scale = HOSTREF_NOMINAL_S / ((before + after) / 2)
    print("| algo | d | nnz | K | lockstep s | per-candidate s | ratio |")
    print("|---" * 7 + "|")
    for algo, d, k, lock, alone in table:
        print(f"| {algo} l2 | {d:,} | {args.nnz or 'dense'} | {k} | "
              f"{lock * scale:.4g} | {alone * scale:.4g} | {lock / alone:.2f} |")
    print(f"host scale {scale:.4f}: hostref.py took {before:.3f} s before the "
          f"table and {after:.3f} s after it, nominal {HOSTREF_NOMINAL_S} s")


if __name__ == "__main__":
    main()
