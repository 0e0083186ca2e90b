"""Sample-compression codecs for Gaussians and Gaussian mixtures.

A codec bundles a scheme profile (reference count, bit budget, sample
budget, contamination tolerance) with an encoder that knows the target
distribution and a deterministic decoder that sees only referenced sample
points plus payload bits.  The codec is each scheme's one entry point:
its ``encode`` and ``decode`` hold every message to the scheme's id,
reference count and payload width.
"""

from __future__ import annotations

from ..errors import ValidationError
from ..gaussmodels import Gaussian, Mixture
from .combinators import compose_mixture, compose_product, weight_grid_points
from .g1d import g1d_codec
from .g1d_robust import g1d_robust_codec
from .gd import gd_codec
from .grids import SymmetricGrid
from .message import (SCHEME_G1D, SCHEME_G1D_ROBUST, SCHEME_GD,
                      SCHEME_MIXTURE, SCHEME_PRODUCT, CompressionMessage,
                      PayloadLayout)
from .scheme import Codec, EncodeOutcome

SCHEME_CHOICES = ("g1d", "g1d_robust", "gd", "axis", "mixture")


def codec_for(scheme: str, target) -> Codec:
    """Build the named codec sized for a concrete target distribution.

    ``axis`` is the per-coordinate product of the 1-D codec (axis-aligned
    Gaussians); ``mixture`` composes over the target's component count
    with a base chosen by dimension.
    """
    if scheme == "g1d":
        if not isinstance(target, Gaussian) or target.dim != 1:
            raise ValidationError("g1d expects a 1-D Gaussian target")
        return g1d_codec()
    if scheme == "g1d_robust":
        if not isinstance(target, Gaussian) or target.dim != 1:
            raise ValidationError("g1d_robust expects a 1-D Gaussian target")
        return g1d_robust_codec()
    if scheme == "gd":
        if not isinstance(target, Gaussian):
            raise ValidationError("gd expects a Gaussian target")
        return gd_codec(target.dim)
    if scheme == "axis":
        if not isinstance(target, Gaussian):
            raise ValidationError("axis expects a Gaussian target")
        return compose_product(g1d_codec(), target.dim)
    if scheme == "mixture":
        if not isinstance(target, Mixture):
            raise ValidationError("mixture expects a mixture target")
        d = target.dim
        base = g1d_codec() if d == 1 else gd_codec(d)
        return compose_mixture(base, target.n_components)
    raise ValidationError(
        f"unknown scheme {scheme!r}; choose from {SCHEME_CHOICES}")


__all__ = [
    "Codec",
    "CompressionMessage",
    "EncodeOutcome",
    "PayloadLayout",
    "SCHEME_CHOICES",
    "SCHEME_G1D",
    "SCHEME_G1D_ROBUST",
    "SCHEME_GD",
    "SCHEME_MIXTURE",
    "SCHEME_PRODUCT",
    "SymmetricGrid",
    "codec_for",
    "compose_mixture",
    "compose_product",
    "g1d_codec",
    "g1d_robust_codec",
    "gd_codec",
    "weight_grid_points",
]
