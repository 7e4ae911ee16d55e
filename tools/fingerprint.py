"""Hashes of what the library computes, to check that a change leaves its
results byte for byte as they were.

    PYTHONPATH=<tree>/src python3 tools/fingerprint.py

Run it against two trees (say a parent commit unpacked elsewhere and the
working tree) and compare the outputs: equal lines mean equal bytes. It
prints one `name sha256` line per group, all data seeded:

    fits          the 27 algorithm x penalty x average fits of
                  baselines.run_algorithm on 400 rows at d = 12 (1 to 12
                  nonzeros per row), with test and objective data: each
                  model's bytes and its trace points' (step, test_auc,
                  objective)
    fits-compact  the same 27 fits on training rows that leave column 11
                  empty, so each runs on the 11 columns its rows hold
    tune          bench.tune's tables of spauc, spam and solam with l2 and
                  l1, on dense rows at d = 8 and on rows of 50 nonzeros at
                  d = 1000
    benchmark     the traces of one bench.benchmark run with a tuning grid,
                  elapsed times left out
    parse         parse_libsvm's arrays for a text whose blocks take the
                  exact-decimal, the float and the per-line reader

It uses only names the library has had since its fit function became
baselines.run_algorithm, so it runs on older trees too, and takes a few
seconds.
"""

import hashlib
import os

# one BLAS thread, as in perfbench/run.py: the lockstep's batched products
# may round differently with more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from aucstream import bench  # noqa: E402
from aucstream.baselines import ALGORITHMS, run_algorithm  # noqa: E402
from aucstream.data import Dataset, parse_libsvm  # noqa: E402
from aucstream.regularizers import PENALTIES, Regularizer  # noqa: E402
from aucstream.schedules import PracticalSchedule  # noqa: E402
from aucstream.trainer import AVERAGES, DivergenceError, TrainConfig  # noqa: E402


def digest(parts) -> str:
    """sha256 over the parts: an array as its dtype, shape and bytes,
    anything else as its repr (exact for floats)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def sparse_rows(seed, n: int, dim: int, nnz, columns: int | None = None) -> Dataset:
    """n seeded rows of distinct columns below `columns` (default dim),
    nnz(rng) of them per row, labels +1 with prior 0.4, and normal values
    of spread 0.5, shifted by 0.3 in the positive rows."""
    rng = np.random.default_rng(seed)
    counts = [nnz(rng) for _ in range(n)]
    indices = [np.sort(rng.choice(columns or dim, size=k, replace=False)) for k in counts]
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    values = 0.5 * rng.normal(size=sum(counts)) + 0.3 * np.repeat(labels == 1, counts)
    return Dataset(np.concatenate([[0], np.cumsum(counts)]), np.concatenate(indices),
                   values, labels, dim)


def dense_rows(seed, n: int, dim: int) -> Dataset:
    """n seeded dense rows whose positives are shifted by 0.3."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.35, 1, -1)
    values = 0.2 * rng.normal(size=(n, dim)) + 0.3 * (labels[:, None] == 1)
    return Dataset(np.arange(0, n * dim + 1, dim), np.tile(np.arange(dim), n),
                   values.ravel(), labels, dim)


def trace_parts(trace):
    return [(p.step, p.test_auc, p.objective) for p in trace]


def fits(train: Dataset, test: Dataset) -> list:
    parts = []
    for algo in ALGORITHMS:
        for kind in PENALTIES:
            for average in AVERAGES:
                config = TrainConfig(Regularizer(kind, 0.0 if kind == "none" else 1e-3),
                                     PracticalSchedule(1.0), epochs=2, seed=3,
                                     average=average, eval_every=70)
                try:
                    w, trace = run_algorithm(algo, train, config, test_data=test,
                                             objective_data=train)
                except DivergenceError as exc:
                    parts += [algo, kind, average, "diverged", exc.iteration,
                              exc.last_weight]
                    continue
                parts += [algo, kind, average, w, trace_parts(trace)]
    return parts


def tune() -> list:
    parts = []
    datasets = (dense_rows([1, 8], 240, 8),
                sparse_rows([1, 1000], 160, 1000, lambda rng: 50))
    for ds in datasets:
        for algo in ALGORITHMS:
            for kind in ("l2", "l1"):
                grid = bench.protocol_grid(kind, 4, 3)
                config = TrainConfig(Regularizer(kind, 1e-3), PracticalSchedule(1.0),
                                     epochs=1, seed=5)
                (best, table), = bench.tune(ds, algo, grid, [config])
                parts += [algo, kind, best]
                parts += [(row["params"], row["fold_aucs"], row["mean_auc"])
                          for row in table]
    return parts


def benchmark() -> list:
    grid = bench.protocol_grid("l2", 4, 3)
    config = TrainConfig(Regularizer("l2", 1e-3), PracticalSchedule(1.0), epochs=1,
                         seed=2, eval_every=50)
    _, traces = bench.benchmark(dense_rows([2, 8], 300, 8), "dense", list(ALGORITHMS),
                                2, config, tune_grid=grid)
    return [(key, trace_parts(trace)) for key, trace in sorted(traces.items())]


def libsvm_text(seed) -> str:
    """Three runs of 2,000 lines, each over 64 KiB, so that whole blocks
    read as exact decimals, as floats (exponents) and per line (a
    comment on every line)."""
    rng = np.random.default_rng(seed)
    formats = ("{:.4f}", "{:.6e}", "{!r}")
    lines = []
    for form in formats:
        for i in range(2000):
            cols = np.sort(rng.choice(60, size=int(rng.integers(0, 8)), replace=False))
            feats = "".join(f" {c + 1}:" + form.format(float(v))
                            for c, v in zip(cols, rng.normal(size=cols.size)))
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(label + feats + (f" # line {i}" if form == "{!r}" else ""))
    return "\n".join(lines) + "\n"


def parse() -> list:
    ds = parse_libsvm(libsvm_text(7))
    return [ds.indptr, ds.indices, ds.values, ds.labels, ds.dim]


def main() -> None:
    train = sparse_rows([0, 12], 400, 12, lambda rng: int(rng.integers(1, 13)))
    test = sparse_rows([1, 12], 200, 12, lambda rng: int(rng.integers(1, 13)))
    narrow = sparse_rows([2, 12], 400, 12, lambda rng: int(rng.integers(1, 12)),
                         columns=11)
    groups = {"fits": lambda: fits(train, test),
              "fits-compact": lambda: fits(narrow, test),
              "tune": tune, "benchmark": benchmark, "parse": parse}
    for name, parts in groups.items():
        print(name, digest(parts()))


if __name__ == "__main__":
    main()
