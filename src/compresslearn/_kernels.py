"""Hot numerical kernels with numba-accelerated and pure-numpy twins.

Every public dispatcher here (``gauss_logpdf``, ``mixture_logpdf``,
``hamming_at_least``, ``first_occupants``, ``pairwise_greater_fraction``)
calls an ``@njit`` implementation when numba is importable, and a
vectorized numpy twin otherwise.  Setting the environment variable
``COMPRESSLEARN_NO_NUMBA=1`` forces the numpy path even when numba is
installed.  Run ``python -m compresslearn.benchmarks`` to compare the two
backends.

Integer-valued kernels return bit-identical results on both backends.  The
float kernels may differ in the last ulp because summation order differs;
callers must not rely on cross-backend bitwise identity.

``gauss_logpdf_many_np`` is the batched log density behind
``gaussmodels.log_densities`` and ``log_density``; it has no numba twin, so
those two give the same bits on every backend.  It evaluates many Gaussians
(or mixtures) on one point set with elementwise numpy ops, summing the
quadratic form ``y^T A y`` in ``einsum("ij,jk,ik->i")``'s order
(``q = 0``, then ``q += (y_j * A_jl) * y_l`` with ``j`` outer and ``l``
inner).  A row therefore does not depend on the rest of the batch, and for
three or more points it equals the per-Gaussian einsum of numpy 2.4 bit
for bit.  Its temporaries span tiles of whole candidates by up to
``LOGPDF_TILE_CELLS`` points, about ``LOGPDF_TILE_CELLS`` cells each, so
beyond its ``(m, n)`` output it holds ``O(d)`` such tiles.
``gauss_logpdf_np`` and ``mixture_logpdf_np`` are its one-row cases.

``pairwise_greater_fraction`` fills only the strict upper triangle
(``i < j``) of its output, on both backends, and is bit-identical across
them: each entry is an integer count divided by the column count.
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _env_disabled() -> bool:
    return os.environ.get("COMPRESSLEARN_NO_NUMBA", "").strip() not in ("", "0", "false", "False")


USE_NUMBA = HAS_NUMBA and not _env_disabled()


def backend_name() -> str:
    """Name of the active kernel backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Gaussian log-density

# cells (component rows x points) one tile of the batched log density spans;
# each temporary of gauss_logpdf_many_np holds at most about this many
LOGPDF_TILE_CELLS = 1 << 15


def gauss_logpdf_many_np(points: np.ndarray, means: np.ndarray,
                         inv_covs: np.ndarray, log_dets: np.ndarray,
                         log_weights: Optional[np.ndarray] = None
                         ) -> np.ndarray:
    """Log densities of many Gaussians, or many mixtures, at one point set.

    ``means`` ``(r, d)``, ``inv_covs`` ``(r, d, d)`` and ``log_dets``
    ``(r,)`` describe ``r`` Gaussians.  Without ``log_weights`` the result
    is ``(r, n)`` and row ``i`` is the log density of Gaussian ``i``.  With
    ``log_weights`` of shape ``(m, k)`` and ``r = m * k``, row ``i`` of the
    ``(m, n)`` result is the log density of the mixture of Gaussians
    ``i*k .. i*k + k - 1`` with those log weights: each component row gets
    its log weight added, and the row is ``top + log(sum(exp(c - top)))``
    with ``top`` the largest component and the sum taken in component
    order.  A ``-inf`` weight pads a mixture with fewer than ``k``
    components and adds exactly nothing.

    Summation order and tiling are described in the module docstring; a
    row's bits do not depend on the rest of the batch.
    """
    n, d = points.shape
    rows = means.shape[0]
    k = 1 if log_weights is None else log_weights.shape[1]
    m = rows // k
    out = np.empty((m, n))
    if n == 0 or m == 0:
        return out
    xt = np.ascontiguousarray(points.T)
    mu = np.ascontiguousarray(means.T)[:, :, None]
    a = np.ascontiguousarray(inv_covs.transpose(1, 2, 0))[:, :, :, None]
    const = (d * math.log(2.0 * math.pi) + log_dets)[:, None]
    if log_weights is not None:
        log_w = log_weights.reshape(rows, 1)
    tile = min(n, LOGPDF_TILE_CELLS)
    block = max(1, LOGPDF_TILE_CELLS // (k * tile))
    for i0 in range(0, m, block):
        i1 = min(m, i0 + block)
        r = slice(i0 * k, i1 * k)
        for t0 in range(0, n, tile):
            t1 = min(n, t0 + tile)
            dest = out[i0:i1, t0:t1]
            q = dest if log_weights is None \
                else np.empty((r.stop - r.start, t1 - t0))
            y = xt[:, None, t0:t1] - mu[:, r]
            q[...] = 0.0
            for j in range(d):
                for l in range(d):
                    term = y[j] * a[j, l, r]
                    term *= y[l]
                    q += term
            q += const[r]
            q *= -0.5
            if log_weights is None:
                continue
            # log-sum-exp over each candidate's k component rows, the sum
            # taken in component order
            q += log_w[r]
            comp = q.reshape(i1 - i0, k, t1 - t0)
            top = comp.max(axis=1)
            expd = np.exp(comp - top[:, None])
            total = expd[:, 0].copy()
            for c in range(1, k):
                total += expd[:, c]
            dest[...] = top + np.log(total)
    return out


def gauss_logpdf_np(points: np.ndarray, mean: np.ndarray, inv_cov: np.ndarray,
                    log_det: float) -> np.ndarray:
    return gauss_logpdf_many_np(points, mean[None], inv_cov[None],
                                np.array([log_det]))[0]


@njit(cache=True)
def gauss_logpdf_nb(points, mean, inv_cov, log_det):  # pragma: no cover - jitted
    n, d = points.shape
    out = np.empty(n)
    const = -0.5 * (d * math.log(2.0 * math.pi) + log_det)
    for i in range(n):
        quad = 0.0
        for j in range(d):
            row = 0.0
            for k in range(d):
                row += inv_cov[j, k] * (points[i, k] - mean[k])
            quad += (points[i, j] - mean[j]) * row
        out[i] = const - 0.5 * quad
    return out


def gauss_logpdf(points, mean, inv_cov, log_det):
    """Batched log-density of ``N(mean, cov)`` given ``inv_cov`` and ``log_det``."""
    if USE_NUMBA:
        return gauss_logpdf_nb(points, mean, inv_cov, float(log_det))
    return gauss_logpdf_np(points, mean, inv_cov, float(log_det))


# ---------------------------------------------------------------------------
# Mixture log-density (log-sum-exp over components)


def mixture_logpdf_np(points, means, inv_covs, log_dets, log_weights):
    return gauss_logpdf_many_np(points, means, inv_covs, np.asarray(log_dets),
                                np.asarray(log_weights)[None])[0]


@njit(cache=True)
def mixture_logpdf_nb(points, means, inv_covs, log_dets, log_weights):  # pragma: no cover
    n, d = points.shape
    k = means.shape[0]
    out = np.empty(n)
    base = -0.5 * d * math.log(2.0 * math.pi)
    for i in range(n):
        top = -1e300
        vals = np.empty(k)
        for c in range(k):
            quad = 0.0
            for j in range(d):
                row = 0.0
                for t in range(d):
                    row += inv_covs[c, j, t] * (points[i, t] - means[c, t])
                quad += (points[i, j] - means[c, j]) * row
            v = log_weights[c] + base - 0.5 * (log_dets[c] + quad)
            vals[c] = v
            if v > top:
                top = v
        acc = 0.0
        for c in range(k):
            acc += math.exp(vals[c] - top)
        out[i] = top + math.log(acc)
    return out


def mixture_logpdf(points, means, inv_covs, log_dets, log_weights):
    """Batched mixture log-density; zero-weight components must be pre-dropped."""
    if USE_NUMBA:
        return mixture_logpdf_nb(points, means, inv_covs, log_dets, log_weights)
    return mixture_logpdf_np(points, means, inv_covs, log_dets, log_weights)


# ---------------------------------------------------------------------------
# Hamming distance screen for greedy code construction


def hamming_at_least_np(words: np.ndarray, cand: np.ndarray, dmin: int) -> bool:
    if words.shape[0] == 0:
        return True
    return bool(np.min(np.sum(words != cand, axis=1)) >= dmin)


@njit(cache=True)
def hamming_at_least_nb(words, cand, dmin):  # pragma: no cover - jitted
    n, k = words.shape
    for i in range(n):
        dist = 0
        for j in range(k):
            if words[i, j] != cand[j]:
                dist += 1
        if dist < dmin:
            return False
    return True


def hamming_at_least(words, cand, dmin):
    """True iff ``cand`` is at Hamming distance >= dmin from every row of ``words``."""
    if USE_NUMBA:
        if words.shape[0] == 0:
            return True
        return bool(hamming_at_least_nb(words, cand, int(dmin)))
    return hamming_at_least_np(words, cand, int(dmin))


# ---------------------------------------------------------------------------
# First occupant per cell (interval pairing in the constant-size 1-D scheme)


def first_occupants_np(cells: np.ndarray, n_cells: int) -> np.ndarray:
    out = np.full(n_cells, -1, dtype=np.int64)
    valid = (cells >= 0) & (cells < n_cells)
    idx = np.nonzero(valid)[0]
    # reversed scatter keeps the lowest sample index per cell
    out[cells[idx[::-1]]] = idx[::-1]
    return out


@njit(cache=True)
def first_occupants_nb(cells, n_cells):  # pragma: no cover - jitted
    out = np.full(n_cells, -1, dtype=np.int64)
    for i in range(cells.shape[0]):
        c = cells[i]
        if 0 <= c < n_cells and out[c] < 0:
            out[c] = i
    return out


def first_occupants(cells, n_cells):
    """Index of the first sample landing in each cell, -1 for empty cells."""
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if USE_NUMBA:
        return first_occupants_nb(cells, int(n_cells))
    return first_occupants_np(cells, int(n_cells))


# ---------------------------------------------------------------------------
# Pairwise empirical winner fractions for candidate selection


def pairwise_greater_fraction_np(values: np.ndarray) -> np.ndarray:
    m, n = values.shape
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = np.count_nonzero(values[i] > values[j]) / n
    return out


@njit(cache=True)
def pairwise_greater_fraction_nb(values):  # pragma: no cover - jitted
    m, n = values.shape
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            count = 0
            for t in range(n):
                if values[i, t] > values[j, t]:
                    count += 1
            out[i, j] = count / n
    return out


def pairwise_greater_fraction(values):
    """Strict upper triangle of the pairwise win fractions.

    For ``i < j``, ``out[i, j]`` is the fraction of columns where
    ``values[i] > values[j]``; ties count for neither side (strict
    inequality) on both backends.  The diagonal and everything below it
    are zero: the Scheffe tournament only reads pairs with ``i < j``.
    Beyond the output, the numpy twin holds one ``n``-element temporary.
    """
    values = np.ascontiguousarray(values)
    if USE_NUMBA:
        return pairwise_greater_fraction_nb(values)
    return pairwise_greater_fraction_np(values)
