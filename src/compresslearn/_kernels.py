"""Hot numerical kernels, one numpy implementation each.

``gauss_logpdf_many_np`` is the batched log density behind
``gaussmodels.log_densities`` and ``log_density``.  It evaluates many
Gaussians (or mixtures) on one point set with elementwise numpy ops,
summing the quadratic form ``y^T A y`` in ``einsum("ij,jk,ik->i")``'s order
(``q = 0``, then ``q += (y_j * A_jl) * y_l`` with ``j`` outer and ``l``
inner).  A row therefore does not depend on the rest of the batch, and for
three or more points it equals the per-Gaussian einsum of numpy 2.4 bit
for bit.  Its temporaries span tiles of whole candidates by up to
``LOGPDF_TILE_CELLS`` points, about ``LOGPDF_TILE_CELLS`` cells each, so
beyond its ``(m, n)`` output it holds ``O(d)`` such tiles.

``pairwise_greater_counts`` counts, per pair ``(I[k], J[k])`` of a pair
list, the columns where row ``I[k]`` strictly exceeds row ``J[k]``.
``pairwise_greater_fraction`` fills only the strict upper triangle
(``i < j``) of its output with those counts divided by the column count.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend, recorded in run manifests."""
    return "numpy"


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


# ---------------------------------------------------------------------------
# Hamming distance screen for greedy code construction


def hamming_at_least(words: np.ndarray, cand: np.ndarray, dmin: int) -> bool:
    """True iff ``cand`` is at Hamming distance >= dmin from every row of ``words``."""
    if words.shape[0] == 0:
        return True
    return bool(np.min(np.sum(words != cand, axis=1)) >= int(dmin))


# ---------------------------------------------------------------------------
# First occupant per cell (interval pairing in the constant-size 1-D scheme)


def first_occupants(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Index of the first sample landing in each cell, -1 for empty cells."""
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    n_cells = int(n_cells)
    out = np.full(n_cells, -1, dtype=np.int64)
    valid = (cells >= 0) & (cells < n_cells)
    idx = np.nonzero(valid)[0]
    # reversed scatter keeps the lowest sample index per cell
    out[cells[idx[::-1]]] = idx[::-1]
    return out


# ---------------------------------------------------------------------------
# Pairwise empirical winner fractions for candidate selection


def pairwise_greater_counts(values: np.ndarray, I: np.ndarray,
                            J: np.ndarray) -> np.ndarray:
    """Columns where ``values[I[k]] > values[J[k]]``, one int64 count per
    pair ``k``, in the pair list's order.

    Ties count for neither side (strict inequality).  Beyond the output it
    holds one ``n``-element temporary.
    """
    values = np.ascontiguousarray(values)
    return np.array([np.count_nonzero(values[i] > values[j])
                     for i, j in zip(I.tolist(), J.tolist())],
                    dtype=np.int64)


def pairwise_greater_fraction(values: np.ndarray) -> np.ndarray:
    """Strict upper triangle of the pairwise win fractions.

    For ``i < j``, ``out[i, j]`` is the fraction of columns where
    ``values[i] > values[j]``: :func:`pairwise_greater_counts` over the
    ``np.triu_indices`` pairs, divided by the column count.  The diagonal
    and everything below it are zero.
    """
    m, n = values.shape
    out = np.zeros((m, m))
    pairs = np.triu_indices(m, 1)
    out[pairs] = pairwise_greater_counts(values, *pairs) / n
    return out
