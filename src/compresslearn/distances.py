"""Divergences and distances between Gaussians and mixtures.

Total variation is exposed through two estimators: adaptive quadrature for
one-dimensional distributions and importance-free Monte Carlo for the rest.
Both return a :class:`TvEstimate` carrying the estimator's standard error so
callers can apply sigma-band tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .gaussmodels import Distribution, Gaussian, density, log_density, sample

QUAD_SUCCESSIVE_TOL = 1e-7
QUAD_MAX_POINTS = (1 << 21) + 1
MC_DEFAULT_N = 200_000
PINSKER_SLACK = 1e-9
# eigenvalues at most this fraction of the largest count as zero
RANK_REL_TOL = 1e-9


@dataclass(frozen=True)
class TvEstimate:
    """A total-variation estimate with uncertainty metadata.

    Attributes
    ----------
    value : float
        Estimated total variation, in ``[0, 1]``.
    std_error : float
        Standard error; exactly 0.0 for the quadrature method.
    n_mc : int
        Number of Monte Carlo points used (0 for quadrature).
    method : str
        ``"quadrature1d"`` or ``"monte_carlo"``.
    """

    value: float
    std_error: float
    n_mc: int
    method: str

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError("TV estimate must lie in [0, 1]")
        if self.std_error < 0.0:
            raise ValidationError("std_error must be nonnegative")
        if self.method not in ("quadrature1d", "monte_carlo"):
            raise ValidationError(f"unknown TV method {self.method!r}")
        if self.method == "quadrature1d" and self.std_error != 0.0:
            raise ValidationError("quadrature estimates must report zero std_error")


def _require_same_dim(p: Distribution, q: Distribution) -> int:
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return p.dim


def kl_gaussians(p: Gaussian, q: Gaussian) -> float:
    """Kullback-Leibler divergence ``KL(p || q)`` between Gaussians.

    Uses the closed form
    ``0.5 * (tr(Sq^-1 Sp) - d + dm' Sq^-1 dm + log det Sq - log det Sp)``
    evaluated from the cached inverse and log-determinant.  Nonnegative up
    to about 1e-12 of numerical slack.
    """
    d = _require_same_dim(p, q)
    if not isinstance(p, Gaussian) or not isinstance(q, Gaussian):
        raise ValidationError("kl_gaussians needs two Gaussian arguments")
    tr_term = float(np.sum(q.inv_cov * p.cov))
    dm = p.mean - q.mean
    mean_term = float(dm @ q.inv_cov @ dm)
    return 0.5 * (tr_term - d + mean_term + q.log_det_cov - p.log_det_cov)


def logdet_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """Log-det matrix divergence ``tr(B^-1 A - I) - log det(B^-1 A)``.

    Both arguments must be SPD.  The divergence is nonnegative, zero iff
    ``A == B``, and invariant under joint congruence ``A -> C A C``,
    ``B -> C B C`` for invertible symmetric ``C``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("logdet_divergence needs square matrices")
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        if vals.min() <= 0.0:
            raise ValidationError("logdet_divergence needs SPD inputs")
    if a.shape != b.shape:
        raise DimensionMismatchError("matrix shapes differ")
    d = a.shape[0]
    m = np.linalg.solve(b, a)
    sign, logabs = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise ValidationError("B^-1 A has nonpositive determinant")
    return float(np.trace(m)) - d - float(logabs)


def _component_supports(dist: Distribution) -> list:
    """Mean +- 10 sigma interval of every component with positive weight."""
    if isinstance(dist, Gaussian):
        mu = float(dist.mean[0])
        sig = math.sqrt(float(dist.cov[0, 0]))
        return [(mu - 10.0 * sig, mu + 10.0 * sig)]
    out = []
    for w, c in zip(dist.weights, dist.components):
        if w > 0.0:
            out.extend(_component_supports(c))
    return out


def _simpson(values: np.ndarray, step: float) -> float:
    # composite Simpson rule; len(values) is odd
    return step / 3.0 * float(values[0] + values[-1]
                              + 4.0 * values[1:-1:2].sum()
                              + 2.0 * values[2:-2:2].sum())


def _segment_mass(p: Distribution, q: Distribution, lo: float,
                  hi: float) -> float:
    width = hi - lo

    def estimate(npts: int) -> float:
        xs = np.linspace(lo, hi, npts)[:, None]
        diff = np.abs(density(p, xs) - density(q, xs))
        return 0.5 * _simpson(diff, width / (npts - 1))

    n = 129
    prev = estimate(n)
    while n < QUAD_MAX_POINTS:
        n = 2 * n - 1
        cur = estimate(n)
        if abs(cur - prev) < QUAD_SUCCESSIVE_TOL:
            return cur
        prev = cur
    return prev


def tv_1d(p: Distribution, q: Distribution) -> TvEstimate:
    """Total variation between one-dimensional distributions by quadrature.

    Integrates ``|p - q| / 2`` with composite Simpson separately on each
    segment between component support boundaries (mean +- 10 sigma), each
    segment doubling its resolution until successive estimates differ by
    less than 1e-7; segmentation keeps narrow spikes resolved even when
    component scales differ by many orders of magnitude.  Absolute error
    is about 1e-6.
    """
    if _require_same_dim(p, q) != 1:
        raise DimensionMismatchError("tv_1d needs one-dimensional inputs")
    cuts = sorted(set(edge for interval in
                      _component_supports(p) + _component_supports(q)
                      for edge in interval))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            total += _segment_mass(p, q, lo, hi)
    value = min(max(total, 0.0), 1.0)
    return TvEstimate(value=value, std_error=0.0, n_mc=0, method="quadrature1d")


def tv_mc(p: Distribution, q: Distribution, n_mc: int = MC_DEFAULT_N,
          seed=0) -> TvEstimate:
    """Monte Carlo total variation ``E_p[(1 - q/p)_+]``.

    Draws ``n_mc`` points from ``p`` and averages the positive part of
    ``1 - q(x)/p(x)``; each term lies in ``[0, 1]`` so the estimator is
    well behaved even for near-disjoint pairs.
    """
    _require_same_dim(p, q)
    if n_mc < 2:
        raise ValidationError("n_mc must be at least 2")
    pts = sample(p, n_mc, seed).points
    lp = log_density(p, pts)
    lq = log_density(q, pts)
    terms = 1.0 - np.exp(np.minimum(lq - lp, 0.0))
    value = float(terms.mean())
    se = float(terms.std(ddof=1) / math.sqrt(n_mc))
    return TvEstimate(value=min(max(value, 0.0), 1.0), std_error=se,
                      n_mc=n_mc, method="monte_carlo")


def tv_estimate(p: Distribution, q: Distribution, n_mc: int = MC_DEFAULT_N,
                seed=0) -> TvEstimate:
    """TV by :func:`tv_1d` in one dimension, else by :func:`tv_mc`."""
    if p.dim == 1:
        return tv_1d(p, q)
    return tv_mc(p, q, n_mc, seed)


def tv_frobenius_proxy(p: Gaussian, q: Gaussian) -> float:
    """Frobenius proxy ``||Sp^-1 Sq - I||_F`` for zero-mean Gaussians.

    Only defined for centered Gaussians; rejects nonzero means.
    """
    if not isinstance(p, Gaussian) or not isinstance(q, Gaussian):
        raise ValidationError("tv_frobenius_proxy needs Gaussian arguments")
    d = _require_same_dim(p, q)
    if float(np.max(np.abs(p.mean))) > 1e-12 or float(np.max(np.abs(q.mean))) > 1e-12:
        raise ValidationError("tv_frobenius_proxy is defined for zero-mean inputs")
    return float(np.linalg.norm(p.inv_cov @ q.cov - np.eye(d)))


def degenerate_pair_divergences(cov_p: np.ndarray,
                                cov_q: np.ndarray) -> tuple[float, float]:
    """(KL, TV) for a full-rank versus rank-deficient covariance pair.

    When ``cov_p`` is nonsingular and ``cov_q`` is singular, the second
    Gaussian is supported on a proper affine subspace, which carries zero
    mass under the first: KL is infinite and TV equals 1.  Raises unless
    exactly that rank pattern holds.
    """
    cov_p = np.asarray(cov_p, dtype=float)
    cov_q = np.asarray(cov_q, dtype=float)
    ep = np.linalg.eigvalsh(0.5 * (cov_p + cov_p.T))
    eq = np.linalg.eigvalsh(0.5 * (cov_q + cov_q.T))
    floor_p = RANK_REL_TOL * float(np.max(np.abs(ep)))
    floor_q = RANK_REL_TOL * float(np.max(np.abs(eq)))
    full_p = bool(ep.min() > floor_p)
    rank_deficient_q = bool(eq.min() <= floor_q)
    if not (full_p and rank_deficient_q):
        raise ValidationError(
            "expected a nonsingular first covariance and a singular second one")
    return math.inf, 1.0


def pinsker_check(p: Gaussian, q: Gaussian, n_mc: int = MC_DEFAULT_N,
                  seed=0) -> bool:
    """Check ``2 * (TV - 3 * std_error)^2 <= KL + 1e-9`` on a Gaussian pair.

    TV comes from quadrature in one dimension and Monte Carlo otherwise.
    """
    est = tv_estimate(p, q, n_mc, seed)
    kl = kl_gaussians(p, q)
    # clamp: a 3-sigma band reaching below zero carries no evidence
    lower = max(est.value - 3.0 * est.std_error, 0.0)
    return bool(2.0 * lower * lower <= kl + PINSKER_SLACK)
