"""Frozen reference job: a fixed amount of work whose wall time tracks the
speed of the host at the moment it runs.

    python3 perfbench/hostref.py

The benchmark runs this in a fresh process before every job and once after
the last one. It imports nothing from the program and its input does not
depend on the workload seed, so no change to the program can move it. Its
work mixes what the workloads do, in the same interpreter and numpy build:
interpreter start and the numpy import, LIBSVM-style text formatting and
parsing into Python objects, many small numpy calls on short vectors, and
dense arithmetic on long ones.
"""

import numpy as np


def main() -> int:
    rng = np.random.default_rng(1906)
    idx = (np.sort(rng.integers(1, 10_000, size=(3000, 30)), axis=1)).tolist()
    vals = (rng.integers(1, 256, size=(3000, 30)) / 256).tolist()
    text = "\n".join("+1 " + " ".join(map("{}:{!r}".format, i, v))
                     for i, v in zip(idx, vals))
    rows = []
    for line in text.split("\n"):
        label, *pairs = line.split()
        feats = [(int(i) - 1, float(v)) for i, v in (p.split(":") for p in pairs)]
        rows.append((float(label), feats))

    small, w, acc = np.linspace(-1.0, 1.0, 8), np.zeros(8), 0.0
    for k in range(8000):
        w = w + 0.01 * (small * (k % 7) - w)
        acc += float(w @ small)
    long_ = np.linspace(0.0, 1.0, 100_000)
    v = np.zeros_like(long_)
    for _ in range(100):
        v = np.maximum(v + 0.01 * (long_ - v), 0.0)
        acc += float(v @ long_)
    return 0 if np.isfinite(acc) and len(rows) == 3000 else 1


if __name__ == "__main__":
    raise SystemExit(main())
