"""Fixed reference kernels that measure the machine's current speed.

On a shared 2-core VM each CPU moves between speed states tens of
percent apart, for a second or for minutes at a time, and every
invocation of one run is slowed by about the same factor. The harness
times kernels between invocations and reports its wall times scaled to
the speed at which each kernel takes its REFERENCE_S, so that
run-to-run spread measures the program and not the neighbours.

Not all work slows alike. Timed alternately on one CPU for a minute,
pure-Python work (sympy, Laurent arithmetic, `dist`, a `check`) moved
together, with a slope near 1 on a log-log plot, while numpy
eliminations mod p moved about 0.4 times as much. So there are two
kernels, and each workload is scaled by the kernels whose speed moves
like its own (REFERENCE_KERNEL in workloads.py):

- "python": products of sparse Laurent polynomials in two variables,
  dicts of monomials mod p, in pure Python;
- "numpy": a vectorised elimination mod p of a fixed random matrix.

The kernels belong to the benchmark, not to the program: no change to
`src/` can make them faster or slower. Their inputs are fixed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the median of sample(kernel) on a shared 2-core x86 VM (Python
# 3.11, numpy with OpenBLAS). Only a scale: a time reported "at the
# reference speed" is wall time x REFERENCE_S[kernel] / sample(kernel).
REFERENCE_S = {"python": 0.025, "numpy": 0.025}

_P = 7


def _poly(seed: int, terms: int) -> dict:
    out = {}
    for k in range(terms):
        key = ((seed * 31 + k * 17) % 13 - 6, (seed * 7 + k * 29) % 11 - 5)
        out[key] = (out.get(key, 0) + seed + k) % _P or 1
    return out


_LEFT = [_poly(s, 30) for s in range(8)]
_RIGHT = [_poly(s + 8, 30) for s in range(12)]
_MATRIX = np.random.default_rng(0).integers(0, _P, (112, 224), dtype=np.int64)


def _products() -> int:
    total = 0
    for a in _LEFT:
        for b in _RIGHT:
            prod: dict = {}
            for (i, j), x in a.items():
                for (k, l), y in b.items():
                    key = (i + k, j + l)
                    prod[key] = (prod.get(key, 0) + x * y) % _P
            total += sum(1 for v in prod.values() if v)
    return total


def _eliminate() -> int:
    m = _MATRIX.copy()
    inverse = [0] + [pow(v, _P - 2, _P) for v in range(1, _P)]
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + rows[0]
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * inverse[m[rank, col]] % _P
        factors = m[:, col].copy()
        factors[rank] = 0
        m -= np.outer(factors, m[rank])
        m %= _P
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


KERNELS = {"python": _products, "numpy": _eliminate}


def sample(kernel: str) -> float:
    """Wall seconds of one fixed round of a kernel."""
    t0 = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - t0


if __name__ == "__main__":
    import os
    import statistics
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name in KERNELS:
        times = [sample(name) for _ in range(40)]
        print(f"{name}: median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s")
