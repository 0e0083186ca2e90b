"""Constant-size contamination-robust compression of a 1-D Gaussian.

Four raw sample points and a single bit suffice.  The encoder partitions
``[mu - 2*sigma, mu + 2*sigma)`` into ``4M`` cells of width ``eps * sigma``
(``M = ceil(1/eps)``), reads the first ``ceil(M_MULT / eps)`` sample points
(``M_MULT = 60``) and looks for occupied cell pairs:

* variance, preferred rule (bit 0): cells ``i`` and ``i + M`` for
  ``i in {M+1..2M}``, one scale apart, so ``|y1 - y2|`` is within
  ``eps * sigma`` of ``sigma``;
* variance, fallback rule (bit 1): cells ``i`` and ``i + 3M`` for
  ``i in {1..M}``, three scales apart, so ``|y1 - y2| / 3`` estimates
  ``sigma`` within ``eps * sigma / 3``;
* mean: cells ``i`` and ``4M - i + 1`` for ``i in {1..2M}``, mirror images
  about the mean, so ``(x1 + x2) / 2`` is within ``eps * sigma / 2`` of
  ``mu``.

Lowest cell index and lowest sample index win every tie, which makes the
encoder deterministic.  The scheme tolerates L1 contamination up to 0.773.
"""

from __future__ import annotations

import math

import numpy as np

from .._kernels import first_occupants
from ..errors import ValidationError
from ..gaussmodels import Gaussian, LabeledSample
from .message import SCHEME_G1D_ROBUST, CompressionMessage, PayloadLayout
from .scheme import Codec, EncodeOutcome, check_eps

M_MULT = 60.0
ROBUSTNESS_L1 = 0.773
_TAU = 4
_LAYOUT = PayloadLayout([2], [1])  # the variance-rule bit


def m_samples_robust(eps: float) -> int:
    check_eps(eps)
    return math.ceil(M_MULT / eps)


def _encode_g1d_robust(target: Gaussian, sample: LabeledSample,
                       eps: float) -> EncodeOutcome:
    """Pick one mean pair and one variance pair of occupied cells."""
    if not isinstance(target, Gaussian):
        raise ValidationError("this scheme encodes one-dimensional Gaussians")
    sigma = math.sqrt(float(target.cov[0, 0]))
    mu = float(target.mean[0])
    big_m = math.ceil(1.0 / eps)
    n_cells = 4 * big_m
    pts = sample.points[:m_samples_robust(eps), 0]
    cell_width = eps * sigma
    left = mu - 2.0 * sigma
    # 0-based cell ids 0..4M-1 inside the window; everything else is -1
    raw = np.floor((pts - left) / cell_width).astype(np.int64)
    raw[(pts < left) | (raw >= n_cells)] = -1
    first = first_occupants(raw, n_cells)  # first sample index per 0-based cell

    def occ(cell_1based: int) -> int:
        return int(first[cell_1based - 1])

    var_pair = None
    for i in range(big_m + 1, 2 * big_m + 1):
        if occ(i) >= 0 and occ(i + big_m) >= 0:
            var_pair = (occ(i), occ(i + big_m), 0)
            break
    if var_pair is None:
        for i in range(1, big_m + 1):
            if occ(i) >= 0 and occ(i + 3 * big_m) >= 0:
                var_pair = (occ(i), occ(i + 3 * big_m), 1)
                break
    if var_pair is None:
        return EncodeOutcome.failure("no occupied variance cell pair")
    mean_pair = None
    for i in range(1, 2 * big_m + 1):
        if occ(i) >= 0 and occ(n_cells - i + 1) >= 0:
            mean_pair = (occ(i), occ(n_cells - i + 1))
            break
    if mean_pair is None:
        return EncodeOutcome.failure("no occupied mean cell pair")
    iy1, iy2, b = var_pair
    refs = np.asarray([mean_pair[0], mean_pair[1], iy1, iy2])
    return EncodeOutcome.success(
        CompressionMessage(SCHEME_G1D_ROBUST, refs, _LAYOUT.pack([b])))


def _decode_g1d_robust(refs: np.ndarray, digits: np.ndarray,
                       pts: np.ndarray, eps: float):
    """Decoder map: mean ``(x1+x2)/2``; variance ``|y1-y2|^2``, divided by 9
    when the fallback bit is set."""
    x1, x2, y1, y2 = pts[refs, 0].T
    spread = np.abs(y1 - y2)
    sd = np.where(digits[:, 0] == 1, spread / 3.0, spread)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (x1 + x2) / 2.0
        var = sd * sd
    return None, mean[:, None], var[:, None, None], np.ones(len(refs), bool)


def g1d_robust_codec() -> Codec:
    """Codec wrapper: 4 references, 1 bit, m = ceil(M_MULT/eps) samples."""
    return Codec.from_layout("g1d_robust", SCHEME_G1D_ROBUST,
                             _encode_g1d_robust, _decode_g1d_robust,
                             lambda eps: _LAYOUT, dim=1, tau=lambda eps: _TAU,
                             m_samples=m_samples_robust,
                             robustness=ROBUSTNESS_L1)
