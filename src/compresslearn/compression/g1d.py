"""Three-reference compression of a one-dimensional Gaussian.

The encoder forwards three raw sample points.  The scaled difference of the
first two carries the scale: with ``g = (g1 - g2) / sqrt(2)`` the ratio
``sigma / g`` is quantized on a symmetric grid over ``[-1/C_LOW, 1/C_LOW]``.
The third point anchors the mean through the standardized offset
``(mu - g3) / sigma`` quantized over ``[-C_HIGH, C_HIGH]``.  Encoding fails
when ``|g|`` falls outside ``(C_LOW * sigma, C_HIGH * sigma)`` or the third
point is farther than ``C_HIGH * sigma`` from the mean; both events together
occur with probability below 0.03 at ``C_LOW = 0.0125`` and ``C_HIGH = 2.6``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import DecodingError, ValidationError
from ..gaussmodels import Gaussian, LabeledSample
from .grids import SymmetricGrid
from .message import SCHEME_G1D, CompressionMessage, PayloadLayout
from .scheme import Codec, EncodeOutcome

C_LOW = 0.0125
C_HIGH = 2.6
_TAU = 3
_M_SAMPLES = 3


@lru_cache(maxsize=256)
def scale_ratio_grid(eps: float) -> SymmetricGrid:
    """Grid for sigma/g: spacing ``eps / (2 * C_HIGH^2)`` out to ``1/C_LOW``."""
    return SymmetricGrid.from_bound(1.0 / C_LOW, eps / (2.0 * C_HIGH * C_HIGH))


@lru_cache(maxsize=256)
def mean_offset_grid(eps: float) -> SymmetricGrid:
    """Grid for the standardized mean offset: spacing ``eps/2`` out to ``C_HIGH``."""
    return SymmetricGrid.from_bound(C_HIGH, eps / 2.0)


def _sigma_mu(target: Gaussian) -> tuple[float, float]:
    if not isinstance(target, Gaussian) or target.dim != 1:
        raise ValidationError("this scheme encodes one-dimensional Gaussians")
    return math.sqrt(float(target.cov[0, 0])), float(target.mean[0])


@lru_cache(maxsize=256)
def g1d_layout(eps: float) -> PayloadLayout:
    """Ratio offset, then mean offset; the mean offset is the low digit."""
    return PayloadLayout.of_grids(
        (scale_ratio_grid(eps), mean_offset_grid(eps)), order=(1, 0))


def _encode_g1d(target: Gaussian, sample: LabeledSample,
                eps: float) -> EncodeOutcome:
    """Encode a 1-D Gaussian from its first three sample points.

    Returns a failed outcome (never raises) when the sample realization
    misses the encoder's acceptance events.
    """
    sigma, mu = _sigma_mu(target)
    if sample.n < _M_SAMPLES or sample.dim != 1:
        raise ValidationError("need at least 3 one-dimensional sample points")
    g1, g2, g3 = (float(v) for v in sample.points[:3, 0])
    g = (g1 - g2) / math.sqrt(2.0)
    if not (C_LOW * sigma < abs(g) < C_HIGH * sigma):
        return EncodeOutcome.failure("scale difference outside (C_LOW, C_HIGH) band")
    if abs(g3 - mu) > C_HIGH * sigma:
        return EncodeOutcome.failure("anchor point too far from the mean")
    bits = g1d_layout(eps).pack(
        [scale_ratio_grid(eps).offsets(sigma / g),
         mean_offset_grid(eps).offsets((mu - g3) / sigma)])
    return EncodeOutcome.success(
        CompressionMessage(SCHEME_G1D, np.arange(3), bits))


def _decode_g1d(message: CompressionMessage, pts: np.ndarray,
                eps: float) -> Gaussian:
    """Deterministically rebuild the Gaussian from three referenced points."""
    if pts.shape[1] != 1:
        raise ValidationError("points must have shape (n, 1)")
    g1, g2, g3 = (float(pts[r, 0]) for r in message.sample_refs)
    lam_off, eta_off = g1d_layout(eps).unpack(message.bits).tolist()
    lam = scale_ratio_grid(eps).values(lam_off)
    eta = mean_offset_grid(eps).values(eta_off)
    sigma_hat = lam * (g1 - g2) / math.sqrt(2.0)
    if sigma_hat <= 0.0:
        raise DecodingError("decoded scale is not positive")
    mu_hat = g3 + sigma_hat * eta
    return Gaussian([mu_hat], [[sigma_hat * sigma_hat]])


def g1d_codec() -> Codec:
    """Codec wrapper: tau = 3 references, O(log(1/eps)) bits, m = 3 samples."""
    return Codec.from_layout("g1d", SCHEME_G1D, _encode_g1d, _decode_g1d,
                             g1d_layout, tau=lambda eps: _TAU,
                             m_samples=lambda eps: _M_SAMPLES,
                             robustness=0.0)
