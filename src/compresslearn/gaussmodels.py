"""Gaussian and Gaussian-mixture models: validation, sampling, densities, JSON.

Covariance handling is eigendecomposition based throughout: the symmetric
square root ``sqrt_cov`` (not a Cholesky factor) is cached on construction
and used for sampling, so a draw is ``mean + sqrt_cov @ z`` with ``z``
standard normal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatchError,
    SingularCovarianceError,
    ValidationError,
)
from .utils import as_generator

# relative symmetry tolerance and relative eigenvalue floor for covariances
COV_SYMMETRY_RTOL = 1e-10
COV_MIN_EIG_REL = 1e-12
# relative Frobenius tolerance for the cached square root
SQRT_CHECK_RTOL = 1e-8
# absolute tolerance on sum(weights) - 1
WEIGHT_SUM_ATOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# why a gaussian_rows row is unusable, in check order: fault code c is c - 1
ROW_FAULTS = (
    (ValidationError, "mean has non-finite entries"),
    (ValidationError, "matrix has non-finite entries"),
    (ValidationError, "matrix is not symmetric within tolerance"),
    (SingularCovarianceError, "covariance is not finite once symmetrized"),
    (SingularCovarianceError,
     "covariance eigenvalue below 1e-12 of the spectral norm"),
    (SingularCovarianceError, "inverse covariance is not finite"),
    (SingularCovarianceError, "square root check failed"),
)


class GaussianRows(NamedTuple):
    """The :func:`gaussian_rows` of a stack: per row, ``fault`` is 0 where
    :class:`Gaussian` accepts it and otherwise ``1 +`` the index in
    ``ROW_FAULTS`` of the first check it fails (its factors mean nothing).
    """

    fault: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    sqrt_cov: np.ndarray
    inv_cov: np.ndarray
    log_det_cov: np.ndarray

    def gaussian(self, i) -> "Gaussian":
        """The :class:`Gaussian` of row ``i`` (index into the leading axes),
        with copies of its arrays, so it keeps no other row alive."""
        return Gaussian.__new__(Gaussian)._fill(self, i)


def gaussian_rows(means, covs) -> GaussianRows:
    """Validate and factor each row of ``means (..., d)`` and ``covs (...,
    d, d)`` as :class:`Gaussian` does one, each check a row mask.  One
    batched ``eigh``, batched products and a row-wise ``log`` sum give a
    row the bits of its own stack of one; a row that fails a check before
    ``eigh`` is factored as the identity."""
    mean = np.array(means, dtype=float)
    cov = np.asarray(covs, dtype=float)
    fault = np.zeros(cov.shape[:-2], dtype=np.int64)
    mats = (-2, -1)

    def flag(code, bad):
        fault[(fault == 0) & bad] = code

    def swap(a):
        return np.swapaxes(a, -1, -2)

    # the checks are written so that a NaN fails them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        flag(1, ~np.isfinite(mean).all(-1))
        flag(2, ~np.isfinite(cov).all(mats))
        flag(3, np.abs(cov - swap(cov)).max(mats, initial=0.0)
             > COV_SYMMETRY_RTOL * np.abs(cov).max(mats, initial=0.0))
        cov = 0.5 * (cov + swap(cov))
        flag(4, ~np.isfinite(cov).all(mats))
        eye = np.eye(cov.shape[-1])
        eigvals, eigvecs = np.linalg.eigh(
            np.where((fault == 0)[..., None, None], cov, eye))
        scale = np.abs(eigvals).max(-1, initial=0.0)
        low = eigvals.min(-1, initial=np.inf)
        flag(4, ~(scale < np.inf))
        flag(5, ~((scale > 0.0) & (low >= COV_MIN_EIG_REL * scale)))
        # every inverse entry is at most 1/low in magnitude
        flag(6, ~(1.0 / low < np.inf))
        sqrt_cov = (eigvecs * np.sqrt(eigvals)[..., None, :]) @ swap(eigvecs)
        err = np.linalg.norm(sqrt_cov @ sqrt_cov - cov, axis=mats)
        flag(7, ~(err <= SQRT_CHECK_RTOL * np.maximum(
            1.0, np.linalg.norm(cov, axis=mats))))
        inv_cov = (eigvecs / eigvals[..., None, :]) @ swap(eigvecs)
        log_det = np.sum(np.log(eigvals), axis=-1)
    return GaussianRows(fault, mean, cov, sqrt_cov, inv_cov, log_det)


class Gaussian:
    """Multivariate normal distribution with cached covariance factors.

    Parameters
    ----------
    mean : array_like
        Mean vector of length ``d``.
    cov : array_like
        Symmetric positive definite covariance, shape ``(d, d)``.
        Symmetry is enforced within a relative tolerance of 1e-10 and the
        input is symmetrized as ``(cov + cov.T) / 2``; any eigenvalue below
        ``1e-12 * ||cov||_2`` is rejected, and so is a covariance whose
        symmetrized form, eigenvalues, square root or inverse is not finite
        (:func:`gaussian_rows` on a stack of one).

    Attributes
    ----------
    sqrt_cov : ndarray
        Symmetric square root of ``cov`` (eigendecomposition based).
    inv_cov : ndarray
        Inverse covariance.
    log_det_cov : float
        Log determinant of ``cov``.
    """

    __slots__ = ("mean", "cov", "sqrt_cov", "inv_cov", "log_det_cov")

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1:
            raise ValidationError("mean must be a vector")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValidationError(
                f"expected a square matrix, got shape {cov.shape}")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatchError(
                f"mean has dim {mean.shape[0]} but cov is {cov.shape}")
        rows = gaussian_rows(mean[None], cov[None])
        if rows.fault[0]:
            exc, reason = ROW_FAULTS[rows.fault[0] - 1]
            raise exc(reason)
        self._fill(rows, 0)

    def _fill(self, rows: GaussianRows, i) -> "Gaussian":
        """Set the slots from copies of row ``i`` of ``rows``; return self."""
        self.log_det_cov = float(rows.log_det_cov[i])
        for name in ("mean", "cov", "sqrt_cov", "inv_cov"):
            setattr(self, name, _freeze(getattr(rows, name)[i].copy()))
        return self

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])

    def __repr__(self) -> str:
        return f"Gaussian(d={self.dim})"


class Mixture:
    """Finite mixture of Gaussians with validated weights.

    Weights must be nonnegative and sum to 1 within 1e-12; all components
    must share one dimension.
    """

    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        components = list(components)
        if weights.ndim != 1 or len(components) != weights.shape[0]:
            raise ValidationError("need one weight per component")
        if weights.shape[0] == 0:
            raise ValidationError("mixture needs at least one component")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_ATOL:
            raise ValidationError("weights must sum to 1 within 1e-12")
        if not all(isinstance(c, Gaussian) for c in components):
            raise ValidationError("components must be Gaussian")
        if len({c.dim for c in components}) != 1:
            raise DimensionMismatchError("components have mixed dimensions")
        self.weights = _freeze(weights)
        self.components = tuple(components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"Mixture(k={self.n_components}, d={self.dim})"


Distribution = Union[Gaussian, Mixture]


@dataclass(frozen=True)
class LabeledSample:
    """A batch of sample points with optional per-point component labels."""

    points: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("points must have shape (n, d)")
        object.__setattr__(self, "points", _freeze(pts))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise ValidationError("labels must have shape (n,)")
            object.__setattr__(self, "labels", _freeze(lab))

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def _affine(z: np.ndarray, g: Gaussian) -> np.ndarray:
    """``g.mean + z @ g.sqrt_cov``, adding the mean into the product."""
    x = z @ g.sqrt_cov
    x += g.mean
    return x


# rows per block of sample's label draws and in-place transforms
_SAMPLE_CHUNK_ROWS = 1 << 16


def _row_blocks(n: int):
    """``[a, b)`` blocks of at most ``_SAMPLE_CHUNK_ROWS`` rows covering
    ``n`` rows, a one-row tail joined to the block before it."""
    a = 0
    while a < n:
        b = min(a + _SAMPLE_CHUNK_ROWS, n)
        if n - b == 1:
            b = n
        yield a, b
        a = b


def sample(dist: Distribution, n: int, seed) -> LabeledSample:
    """Draw ``n`` points from ``dist``.

    Gaussian draws are ``mean + z @ sqrt_cov`` with ``z`` standard normal;
    mixture draws carry the component index of each point in ``labels``.
    ``n`` must be a Python or numpy integer.  A draw that numpy cannot
    allocate raises :class:`ValidationError`, naming ``n`` and ``d``.

    Temporary memory: ``z`` is drawn into the output array and transformed
    in place over blocks of ``_SAMPLE_CHUNK_ROWS`` rows, and a mixture's
    labels are drawn block by block, so beyond the output (points and
    labels) a draw holds a few blocks' worth of bytes.  At n = 10**6 and
    d = 2 it peaks at 1.11 times the output for a Gaussian and 1.06 times
    for a two-component mixture.  A mixture's points and labels are views
    of one buffer, freed together.  A separate labels array can sit under
    glibc's adaptive mmap threshold (up to 32 MiB) while the points sit
    above it; after one such free the next lands on the heap, where a
    freed copy can stay resident, so a learn's peak RSS would vary by one
    labels array from run to run.

    The bits and RNG calls are those of ``rng.choice(k, size=n, p=weights)``
    and then ``mean + z @ sqrt_cov`` in fresh arrays, one matmul per
    component: the labels come from the calls ``choice`` makes, and a
    matmul over any block of two or more rows gives those rows of the
    whole product bit for bit.  Only a one-row matmul (numpy's vector
    path) can differ, so no block has one row unless the whole transform
    does: a one-row tail joins the block before it, and a component's lone
    row in a block is transformed as a two-row block holding it twice.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValidationError("n must be nonnegative")
    rng = as_generator(seed)
    try:
        if isinstance(dist, Gaussian):
            pts = rng.standard_normal((n, dist.dim))
            for a, b in _row_blocks(n):
                pts[a:b] = _affine(pts[a:b], dist)
            return LabeledSample(points=pts)
        if isinstance(dist, Mixture):
            cdf = dist.weights.cumsum()
            cdf /= cdf[-1]
            # points and labels share one allocation (see the docstring)
            buf = np.empty(n * (dist.dim + 1))
            pts = buf[:n * dist.dim].reshape(n, dist.dim)
            labels = buf[n * dist.dim:].view(np.int64)
            for a, b in _row_blocks(n):
                labels[a:b] = cdf.searchsorted(rng.random(b - a),
                                               side="right")
            rng.standard_normal(out=pts)
            multi = np.bincount(labels, minlength=dist.n_components) > 1
            for a, b in _row_blocks(n):
                block, block_labels = pts[a:b], labels[a:b]
                for c, comp in enumerate(dist.components):
                    rows = np.flatnonzero(block_labels == c)
                    if rows.size == 1 and multi[c]:
                        rows = rows.repeat(2)
                    block[rows] = _affine(block[rows], comp)
            return LabeledSample(points=pts, labels=labels)
    # numpy raises these for a draw it cannot allocate, or even size
    except (MemoryError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot allocate a sample of n={n} points "
                              f"in d={dist.dim}: {exc}") from None
    raise ValidationError(f"cannot sample from {type(dist).__name__}")


def _as_batch(dim: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise DimensionMismatchError(
                f"point has dim {x.shape[0]}, distribution has dim {dim}")
        return x[None, :]
    if x.ndim == 2:
        if x.shape[1] != dim:
            raise DimensionMismatchError(
                f"points have dim {x.shape[1]}, distribution has dim {dim}")
        return x
    raise ValidationError("x must be a vector (d,) or a batch (n, d)")


class DensityBatch(NamedTuple):
    """Kernel inputs for ``m`` distributions of one dimension ``dim``.

    ``parts`` holds one ``(rows, args)`` entry for the Gaussians and one
    for the mixtures, each only when present: ``rows`` are their indices
    in the list, and ``args`` the stacked arrays that
    ``_kernels.gauss_logpdf_many_np`` takes after the points.  It holds
    arrays only, so it pickles small and fast.
    """

    dim: int
    m: int
    parts: tuple


def prepare_log_densities(dists: Sequence[Distribution]) -> DensityBatch:
    """Validate ``dists`` once and stack them for
    :func:`evaluate_log_densities`.

    Zero-weight mixture components are dropped, and each mixture is padded
    to the longest with ``-inf``-weight copies of its first component.
    """
    dists = list(dists)
    if not dists:
        raise ValidationError("need at least one distribution")
    gauss = [i for i, dist in enumerate(dists) if isinstance(dist, Gaussian)]
    mix = [i for i, dist in enumerate(dists) if isinstance(dist, Mixture)]
    if len(gauss) + len(mix) < len(dists):
        bad = next(dist for dist in dists
                   if not isinstance(dist, (Gaussian, Mixture)))
        raise ValidationError(f"cannot evaluate {type(bad).__name__}")
    dims = {dist.dim for dist in dists}
    if len(dims) != 1:
        raise DimensionMismatchError("distributions have mixed dimensions")

    def stack(gaussians, *log_w):
        return (np.array([g.mean for g in gaussians]),
                np.array([g.inv_cov for g in gaussians]),
                np.array([g.log_det_cov for g in gaussians]), *log_w)

    parts = []
    if gauss:
        parts.append((np.array(gauss), stack([dists[i] for i in gauss])))
    if mix:
        mixtures = [dists[i] for i in mix]
        kept = [[c for c, w in zip(mx.components, mx.weights) if w > 0.0]
                for mx in mixtures]
        k = max(len(comps) for comps in kept)
        log_w = np.full((len(mix), k), -np.inf)
        padded = []
        for r, (mx, comps) in enumerate(zip(mixtures, kept)):
            log_w[r, :len(comps)] = np.log(mx.weights[mx.weights > 0.0])
            padded += comps + [comps[0]] * (k - len(comps))
        parts.append((np.array(mix), stack(padded, log_w)))
    return DensityBatch(dims.pop(), len(dists), tuple(parts))


def evaluate_log_densities(batch: DensityBatch, x) -> np.ndarray:
    """Log densities of a prepared batch at the rows of ``x``, as
    :func:`log_densities` of the distributions it was prepared from."""
    pts = _as_batch(batch.dim, x)
    if len(batch.parts) == 1:
        return _kernels.gauss_logpdf_many_np(pts, *batch.parts[0][1])
    out = np.empty((batch.m, pts.shape[0]))
    for rows, args in batch.parts:
        out[rows] = _kernels.gauss_logpdf_many_np(pts, *args)
    return out


def log_densities(dists: Sequence[Distribution], x) -> np.ndarray:
    """Log densities of every distribution in ``dists`` at the rows of ``x``.

    Returns an ``(m, n)`` array whose row ``k`` equals
    ``log_density(dists[k], x)`` bit for bit (``x`` may also be one point
    ``(d,)``, giving ``n = 1``).  All Gaussians go to the tiled kernel in
    one call and all mixtures in one more, so the cost is a few numpy calls
    per tile of the output instead of several per distribution.  It is
    :func:`prepare_log_densities` followed by
    :func:`evaluate_log_densities`; a caller that evaluates one list on
    several point sets prepares it once.
    """
    return evaluate_log_densities(prepare_log_densities(dists), x)


def log_density(dist: Distribution, x) -> Union[float, np.ndarray]:
    """Log density of ``dist`` at ``x`` (a vector) or at a batch of rows."""
    out = log_densities([dist], x)[0]
    return float(out[0]) if np.ndim(x) == 1 else out


def density(dist: Distribution, x) -> Union[float, np.ndarray]:
    """Density of ``dist`` at ``x``; exp of :func:`log_density`."""
    return np.exp(log_density(dist, x))


# ---------------------------------------------------------------------------
# JSON serialization


def dist_to_json(dist: Distribution) -> dict:
    """Plain-dict JSON form: row-major nested lists for matrices."""
    if isinstance(dist, Gaussian):
        return {
            "type": "gaussian",
            "mean": [float(v) for v in dist.mean],
            "cov": [[float(v) for v in row] for row in dist.cov],
        }
    if isinstance(dist, Mixture):
        return {
            "type": "mixture",
            "weights": [float(w) for w in dist.weights],
            "components": [dist_to_json(c) for c in dist.components],
        }
    raise ValidationError(f"cannot serialize {type(dist).__name__}")


def _json_floats(obj: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{key!r} must be a number or a rectangular list of numbers"
        ) from None


def dist_from_json(obj: dict) -> Distribution:
    """Parse and validate the JSON form produced by :func:`dist_to_json`."""
    if not isinstance(obj, dict):
        raise ValidationError("distribution JSON must be an object")
    kind = obj.get("type")
    if kind == "gaussian":
        if "mean" not in obj or "cov" not in obj:
            raise ValidationError("gaussian JSON needs 'mean' and 'cov'")
        mean = _json_floats(obj, "mean")
        cov = _json_floats(obj, "cov")
        if cov.ndim != 2:
            raise ValidationError("'cov' must be a row-major nested list")
        return Gaussian(mean, cov)
    if kind == "mixture":
        if "weights" not in obj or "components" not in obj:
            raise ValidationError("mixture JSON needs 'weights' and 'components'")
        if not isinstance(obj["components"], list):
            raise ValidationError("'components' must be a list")
        comps = [dist_from_json(c) for c in obj["components"]]
        if not all(isinstance(c, Gaussian) for c in comps):
            raise ValidationError("mixture components must be gaussians")
        return Mixture(_json_floats(obj, "weights"), comps)
    raise ValidationError(f"unknown distribution type {kind!r}")


def dist_dumps(dist: Distribution) -> str:
    return json.dumps(dist_to_json(dist))


def dist_loads(text: str) -> Distribution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid distribution JSON: {exc}") from exc
    return dist_from_json(obj)
