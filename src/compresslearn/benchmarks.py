"""Micro-benchmarks for the kernel twins: ``python3 -m compresslearn.benchmarks``.

Times the pure-numpy implementation against the jitted one for each hot
kernel (the jitted column reads n/a when numba is unavailable or disabled
through COMPRESSLEARN_NO_NUMBA).  Jitted functions are warmed up once so
compile time stays out of the numbers; each cell is the best of five runs.
A second table times the batched ``gauss_logpdf_many`` (100 Gaussians in
d=2 on 5000 points, as in one Scheffe MC pool) against a per-candidate loop
of ``gauss_logpdf_np`` over the same Gaussians.
"""

from __future__ import annotations

import time

import numpy as np

from . import _kernels
from ._kernels import HAS_NUMBA, backend_name

REPEATS = 5


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _cases(rng: np.random.Generator) -> list:
    d = 8
    n = 20000
    pts = rng.standard_normal((n, d))
    mean = rng.standard_normal(d)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    inv_cov = np.linalg.inv(cov)
    log_det = float(np.linalg.slogdet(cov)[1])

    k = 5
    means = rng.standard_normal((k, d))
    inv_covs = np.stack([inv_cov] * k)
    log_dets = np.full(k, log_det)
    log_weights = np.log(np.full(k, 1.0 / k))

    words = rng.integers(0, 16, size=(2000, 64), dtype=np.int64)
    cand = rng.integers(0, 16, size=64, dtype=np.int64)

    cells = rng.integers(0, 4096, size=200000, dtype=np.int64)

    values = rng.standard_normal((40, 5000))

    return [
        ("gauss_logpdf", (pts, mean, inv_cov, log_det)),
        ("mixture_logpdf", (pts, means, inv_covs, log_dets, log_weights)),
        ("hamming_at_least", (words, cand, 16)),
        ("first_occupants", (cells, 4096)),
        ("pairwise_greater_fraction", (values,)),
    ]


def _many_case(rng: np.random.Generator) -> tuple:
    m, n, d = 100, 5000, 2
    pts = rng.standard_normal((n, d))
    means = rng.standard_normal((m, d))
    a = rng.standard_normal((m, d, d))
    covs = a @ a.transpose(0, 2, 1) + d * np.eye(d)
    return (pts, means, np.linalg.inv(covs), np.linalg.slogdet(covs)[1])


def run_many(seed: int = 0) -> tuple:
    """``(batched_seconds, per_candidate_seconds)`` on the MC-pool case."""
    pts, means, inv_covs, log_dets = _many_case(np.random.default_rng(seed))

    def per_candidate():
        for r in range(means.shape[0]):
            _kernels.gauss_logpdf_np(pts, means[r], inv_covs[r],
                                     log_dets[r])

    return (_best_of(_kernels.gauss_logpdf_many_np, pts, means, inv_covs,
                     log_dets),
            _best_of(per_candidate))


def run(seed: int = 0) -> list:
    """Return (kernel, numpy_seconds, numba_seconds_or_None) triples."""
    rng = np.random.default_rng(seed)
    results = []
    for name, args in _cases(rng):
        np_fn = getattr(_kernels, name + "_np")
        t_np = _best_of(np_fn, *args)
        t_nb = None
        if HAS_NUMBA:
            nb_fn = getattr(_kernels, name + "_nb")
            nb_fn(*args)  # trigger compilation outside the timed region
            t_nb = _best_of(nb_fn, *args)
        results.append((name, t_np, t_nb))
    return results


def main() -> int:
    results = run()
    print(f"kernel backend in use: {backend_name()}")
    header = f"{'kernel':<28}{'numpy (ms)':>12}{'numba (ms)':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, t_np, t_nb in results:
        if t_nb is None:
            print(f"{name:<28}{1000 * t_np:>12.3f}{'n/a':>12}{'':>9}")
        else:
            print(f"{name:<28}{1000 * t_np:>12.3f}{1000 * t_nb:>12.3f}"
                  f"{t_np / t_nb:>8.1f}x")
    t_many, t_loop = run_many()
    print()
    header = (f"{'m=100, n=5000, d=2':<28}{'batched':>12}{'per-cand':>12}"
              f"{'speedup':>9}")
    print(header)
    print("-" * len(header))
    print(f"{'gauss_logpdf_many':<28}{1000 * t_many:>12.3f}"
          f"{1000 * t_loop:>12.3f}{t_loop / t_many:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
