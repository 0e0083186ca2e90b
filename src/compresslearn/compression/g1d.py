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

from ..errors import ValidationError
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
    if not isinstance(target, Gaussian):
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


def _decode_g1d(refs: np.ndarray, digits: np.ndarray, pts: np.ndarray,
                eps: float):
    """Each row's mean and variance from its three referenced points."""
    g1, g2, g3 = pts[refs, 0].T
    lam = scale_ratio_grid(eps).values(digits[:, 0])
    eta = mean_offset_grid(eps).values(digits[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_hat = lam * (g1 - g2) / math.sqrt(2.0)
        mu_hat = g3 + sigma_hat * eta
        var = sigma_hat * sigma_hat
    return None, mu_hat[:, None], var[:, None, None], sigma_hat > 0.0


def g1d_codec() -> Codec:
    """Codec wrapper: tau = 3 references, O(log(1/eps)) bits, m = 3 samples."""
    return Codec.from_layout("g1d", SCHEME_G1D, _encode_g1d, _decode_g1d,
                             g1d_layout, dim=1, tau=lambda eps: _TAU,
                             m_samples=lambda eps: _M_SAMPLES,
                             robustness=0.0)
