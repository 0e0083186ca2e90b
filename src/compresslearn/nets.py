"""The simplex epsilon-net, and convex hull certificates.

The simplex net covers mixture weight vectors in the sup norm; the
agnostic mixture learner crosses it with its component candidates.  Hull
membership is tested on a dense deterministic set of directions, so a pass
is approximate while a returned violation certificate is exact; hull
coefficients express a target over the symmetric hull of sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import lsq_linear

from .errors import NetSizeError, ValidationError

NET_SIZE_GUARD = 1_000_000_000
HULL_DIRECTION_SEED = 0x5EED_D1B5  # fixed so certificates are reproducible
HULL_MAX_DIM = 8
HULL_RESIDUAL_RTOL = 1e-8
_BISECT_ITERS = 14


@dataclass(frozen=True)
class Net:
    """A finite point set with its covering radius and metric tag."""

    points: np.ndarray
    radius: float
    metric: str  # "linf_simplex_embedding", the only net built here

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("net points must have shape (N, d)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.radius <= 0.0:
            raise ValidationError("net radius must be positive")

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def net_simplex(k: int, eps: float) -> Net:
    """Sup-norm net of the probability simplex on ``k`` outcomes.

    Points are integer compositions of ``N = ceil(1/eps)`` scaled by
    ``1/N``, so every weight vector is within ``eps`` per coordinate of a
    net point.  Raises :class:`NetSizeError` beyond 1e9 points.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    n_steps = max(1, math.ceil(1.0 / eps))
    est_size = math.comb(n_steps + k - 1, k - 1)
    if est_size > NET_SIZE_GUARD:
        raise NetSizeError(f"simplex net would have {est_size} points")
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], n_steps, k)
    arr = np.asarray(pts, dtype=float) / n_steps
    return Net(points=arr, radius=eps, metric="linf_simplex_embedding")


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


def solve_hull_coefficients(points: np.ndarray, target: np.ndarray,
                            rtol: float = HULL_RESIDUAL_RTOL
                            ) -> Optional[np.ndarray]:
    """Coefficients ``theta`` with ``sum theta_i t_i = target``, ``|theta|_inf <= 1``.

    Expresses ``target`` over the symmetric hull ``conv(points U -points)``.
    The sup norm of ``theta`` is (approximately) minimized by bisection on
    the box bound with a box-constrained least-squares feasibility
    subproblem at each step.  Returns ``None`` when no coefficient vector
    reproduces the target within ``rtol * (1 + |target|)``.
    """
    a = np.asarray(points, dtype=float).T  # (d, m)
    target = np.asarray(target, dtype=float)
    if a.ndim != 2 or target.ndim != 1 or a.shape[0] != target.shape[0]:
        raise ValidationError("points must be (m, d) and target (d,)")
    m = a.shape[1]
    tol = rtol * (1.0 + float(np.linalg.norm(target)))

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
