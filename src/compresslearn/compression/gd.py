"""Contamination-robust compression of a d-dimensional Gaussian.

The encoder whitens consecutive sample differences,
``Y_i = S^-1 (X_{2i} - X_{2i-1}) / sqrt(2)`` over
``m = ceil(M_MULT * d * (1 + ln d))`` pairs (``M_MULT = 40``) with ``S``
the symmetric square root of the covariance, keeps the ``Y_i`` with norm
at most ``4 * sqrt(d)``, and writes each scaled eigenvector direction
``w_j / C_HULL`` (norm ``1 / C_HULL = 1/20``, the certified hull radius)
as a bounded combination of the kept vectors.  The decoder only ever sees
raw sample differences, so the quantized combination coefficients
reconstruct ``v_j = sqrt(e_j) w_j`` from the referenced points alone and
the covariance returns as ``sum_j v_j v_j^T``.

The mean rides on one anchor point: the first of the two leading samples
whose whitened offset has norm at most ``4 * sqrt(d)`` is expressed as
``mu + sum_j lam_j v_j`` in the eigenbasis, and the ``lam_j`` are
quantized on a per-coordinate grid whose L2 rounding error is at most
``eps / (3d)``.

The scheme tolerates L1 contamination up to 2/3: both the hull event and
the anchor event survive per-sample total variation 1/3 from the truth.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ValidationError
from ..gaussmodels import Gaussian, LabeledSample, gaussian_rows
from ..nets import solve_hull_coefficients
from ..utils import _run_units
from .grids import SymmetricGrid
from .message import SCHEME_GD, CompressionMessage, PayloadLayout
from .scheme import Codec, EncodeOutcome

C_HULL = 20.0  # hull targets w_j / C_HULL: certified radius 1 / C_HULL
M_MULT = 40.0  # difference pairs m = ceil(M_MULT * d * (1 + ln d))
ROBUSTNESS_L1 = 2.0 / 3.0
_RIDGE_REL = 1e-10


def n_pairs(d: int) -> int:
    if d < 1:
        raise ValidationError("d must be >= 1")
    return math.ceil(M_MULT * d * (1.0 + math.log(d)))


def m_samples_gd(d: int) -> int:
    return 2 * n_pairs(d)


@lru_cache(maxsize=256)
def coefficient_grid(eps: float, d: int) -> SymmetricGrid:
    """Grid for hull coefficients: spacing ``eps / (96 C_HULL m d^3)`` on [-1, 1]."""
    m = n_pairs(d)
    step = eps / (96.0 * C_HULL * m * d ** 3)
    return SymmetricGrid.from_bound(1.0, step)


@lru_cache(maxsize=256)
def anchor_grid(eps: float, d: int) -> SymmetricGrid:
    """Per-coordinate grid for the anchor coefficients on ``[-4 sqrt(d), 4 sqrt(d)]``.

    Spacing ``2 eps / (3 d sqrt(d))`` makes the L2 rounding error of the
    full coefficient vector at most ``eps / (3d)``.
    """
    step = 2.0 * eps / (3.0 * d * math.sqrt(d))
    return SymmetricGrid.from_bound(4.0 * math.sqrt(d), step)


@lru_cache(maxsize=256)
def gd_layout(eps: float, d: int, m: int) -> PayloadLayout:
    """``d * m`` hull coefficients (direction-major), then ``d`` anchor
    coefficients; the first field is the low digit."""
    return PayloadLayout.of_grids([coefficient_grid(eps, d)] * (d * m)
                                  + [anchor_grid(eps, d)] * d)


def tau_gd(d: int) -> int:
    # all 2m difference points plus the anchor reference
    return 2 * n_pairs(d) + 1


def _solve_direction(kept: np.ndarray, target: np.ndarray):
    """One direction's hull coefficients: a worker pool unit that pickles
    by reference and calls this module's ``solve_hull_coefficients`` as
    bound when it runs, so a tracer may rebind that name."""
    return solve_hull_coefficients(kept, target)


def _encode_gd(target: Gaussian, sample: LabeledSample,
               eps: float) -> EncodeOutcome:
    """Encode a d-dimensional Gaussian from ``2m`` samples plus an anchor.

    Fails (never raises) when some scaled eigenvector direction falls
    outside the symmetric hull of the kept whitened differences (the
    reason names the lowest such direction), or when both anchor
    candidates have whitened norm above ``4 sqrt(d)``.  The ``d`` hull
    solves run as units on the worker pool (``utils._run_units``); a dead
    worker raises :class:`WorkerPoolError`.
    """
    if not isinstance(target, Gaussian):
        raise ValidationError("this scheme encodes Gaussians")
    d = target.dim
    m = n_pairs(d)
    if sample.dim != d:
        raise ValidationError("sample dimension does not match the target")
    if sample.n < 2 * m:
        raise ValidationError(f"need at least {2 * m} sample points")
    pts = sample.points[:2 * m]
    eigvals, eigvecs = np.linalg.eigh(target.cov)
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    diffs = pts[1::2] - pts[0::2]              # (m, d), raw differences
    whitened = (diffs @ inv_sqrt) / math.sqrt(2.0)
    norms = np.linalg.norm(whitened, axis=1)
    keep = norms <= 4.0 * math.sqrt(d)
    if not np.any(keep):
        return EncodeOutcome.failure("all whitened differences filtered out")
    kept = whitened[keep]
    keep_idx = np.nonzero(keep)[0]

    # eigenvectors of the covariance carry the targets w_j / C_HULL; the
    # d solves are independent units, run on the worker pool
    theta = np.zeros((d, m))
    sols = _run_units([(_solve_direction, kept, eigvecs[:, j] / C_HULL)
                       for j in range(d)])
    for j, sol in enumerate(sols):
        if sol is None:
            return EncodeOutcome.failure(
                f"eigen direction {j} escapes the difference hull")
        theta[j, keep_idx] = sol

    # anchor: first of the two leading points with a tame whitened offset
    anchor_ref = -1
    for cand in (0, 1):
        z = inv_sqrt @ (pts[cand] - target.mean)
        if np.linalg.norm(z) <= 4.0 * math.sqrt(d):
            anchor_ref = cand
            lam = eigvecs.T @ z  # coefficients in the eigenbasis
            break
    if anchor_ref < 0:
        return EncodeOutcome.failure("both anchor candidates are outliers")

    bits = gd_layout(eps, d, m).pack(np.concatenate(
        [coefficient_grid(eps, d).offsets(theta.ravel()),
         anchor_grid(eps, d).offsets(lam)]))
    refs = np.concatenate([np.arange(2 * m), [anchor_ref]])
    return EncodeOutcome.success(CompressionMessage(SCHEME_GD, refs, bits))


def _gd_params(refs: np.ndarray, digits: np.ndarray, pts: np.ndarray,
               eps: float):
    """``(mean, cov, vecs)`` of each row: the rows of ``vecs[i]`` are its
    reconstructed ``v_j``."""
    d = pts.shape[1]
    m = n_pairs(d)
    theta = coefficient_grid(eps, d).values(digits[:, :d * m]).reshape(
        -1, d, m)
    lam = anchor_grid(eps, d).values(digits[:, d * m:])
    diffs = pts[refs[:, 1:2 * m:2]] - pts[refs[:, 0:2 * m:2]]
    vecs = (C_HULL / math.sqrt(2.0)) * (theta @ diffs)
    cov = np.swapaxes(vecs, 1, 2) @ vecs
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    mean = pts[refs[:, -1]] - (lam[:, None, :] @ vecs)[:, 0]
    return mean, cov, vecs


def _decode_gd(refs: np.ndarray, digits: np.ndarray, pts: np.ndarray,
               eps: float):
    """Each row's mean and covariance; a covariance ``Gaussian`` rejects
    gets one ridge of ``_RIDGE_REL`` times its mean eigenvalue."""
    mean, cov, _ = _gd_params(refs, digits, pts, eps)
    d = pts.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        ridge = _RIDGE_REL * np.trace(cov, axis1=1, axis2=2) / d
        fix = (gaussian_rows(mean, cov).fault > 0) & (ridge > 0.0)
        cov[fix] += ridge[fix, None, None] * np.eye(d)
    return None, mean, cov, np.ones(len(refs), dtype=bool)


def gd_codec(d: int) -> Codec:
    """Codec wrapper for fixed dimension ``d``."""
    m = n_pairs(d)
    return Codec.from_layout(f"gd[d={d}]", SCHEME_GD, _encode_gd, _decode_gd,
                             lambda eps: gd_layout(eps, d, m),
                             tau=lambda eps: tau_gd(d),
                             m_samples=lambda eps: m_samples_gd(d),
                             robustness=ROBUSTNESS_L1)
