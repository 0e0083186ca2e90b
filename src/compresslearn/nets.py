"""Convex hull certificates for the gd codec and the hull probe.

Hull membership is tested on a dense deterministic set of directions, so a
pass is approximate while a returned violation certificate is exact; hull
coefficients express a target over the symmetric hull of sample points, up
to a residual of ``HULL_RESIDUAL_RTOL * (1 + |target|)`` with
``HULL_RESIDUAL_RTOL = 1e-8``.  ``scipy.optimize`` loads on the first call
to ``solve_hull_coefficients``, not on import.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ValidationError

HULL_DIRECTION_SEED = 0x5EED_D1B5  # fixed so certificates are reproducible
HULL_MAX_DIM = 8
HULL_RESIDUAL_RTOL = 1e-8
_BISECT_ITERS = 14


def _hull_directions(d: int) -> np.ndarray:
    n_dirs = 10 * 3 ** d
    rng = np.random.default_rng(HULL_DIRECTION_SEED)
    dirs = rng.standard_normal((n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def hull_contains_ball(points: np.ndarray, rho: float
                       ) -> tuple[bool, Optional[np.ndarray]]:
    """Test ``rho * B_2 subseteq conv(points)`` on a dense direction set.

    Checks the support function ``max_i <y, t_i> >= rho`` over ``10 * 3^d``
    fixed pseudo-random unit directions.  A returned certificate (the first
    violating direction) is sound; a pass can miss shallow violations
    between tested directions.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must have shape (m, d) with m >= 1")
    d = pts.shape[1]
    if d > HULL_MAX_DIM:
        raise ValidationError(f"hull certification supports d <= {HULL_MAX_DIM}")
    if rho <= 0.0:
        raise ValidationError("rho must be positive")
    dirs = _hull_directions(d)
    support = (dirs @ pts.T).max(axis=1)
    bad = np.nonzero(support < rho)[0]
    if bad.size:
        return False, dirs[bad[0]].copy()
    return True, None


def solve_hull_coefficients(points: np.ndarray,
                            target: np.ndarray) -> Optional[np.ndarray]:
    """Coefficients ``theta`` with ``sum theta_i t_i = target``, ``|theta|_inf <= 1``.

    Expresses ``target`` over the symmetric hull ``conv(points U -points)``.
    A returned ``theta`` has ``|theta|_inf <= 1`` and reproduces the target
    within ``HULL_RESIDUAL_RTOL * (1 + |target|)``.  ``None`` means neither
    the least-squares solution nor the one bounded to ``[-1, 1]`` met that
    residual bound.  The box bound is then bisected ``_BISECT_ITERS`` times,
    keeping the last bounded solution that meets the residual bound; this
    does not minimize ``|theta|_inf``, because near the minimum the bounded
    solve can stop with a residual just above the bound.
    """
    # scipy.optimize loads on first use, not when the package is imported
    from scipy.optimize import lsq_linear

    a = np.asarray(points, dtype=float).T  # (d, m)
    target = np.asarray(target, dtype=float)
    if a.ndim != 2 or target.ndim != 1 or a.shape[0] != target.shape[0]:
        raise ValidationError("points must be (m, d) and target (d,)")
    m = a.shape[1]
    tol = HULL_RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(target)))

    theta0, *_ = np.linalg.lstsq(a, target, rcond=None)
    if float(np.linalg.norm(a @ theta0 - target)) > tol:
        return None  # even the unconstrained least-squares residual misses
    hi = float(np.max(np.abs(theta0))) if m else 0.0
    if hi <= 1e-300:
        return np.zeros(m)
    best = theta0
    if hi > 1.0:
        res = lsq_linear(a, target, bounds=(-1.0, 1.0))
        if float(np.linalg.norm(a @ res.x - target)) > tol:
            return None
        best, hi = res.x, 1.0
    lo = 0.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        res = lsq_linear(a, target, bounds=(-mid, mid))
        if float(np.linalg.norm(a @ res.x - target)) <= tol:
            best, hi = res.x, mid
        else:
            lo = mid
    return best
