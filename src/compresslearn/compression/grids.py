"""Symmetric scalar quantization grids used by the encoders.

All encoder grids have the form ``{0, +-step, +-2*step, ..., +-n_half*step}``
so that zero is exactly representable (filler coefficients must decode to
exactly zero) and the worst-case rounding error inside the covered range is
``step / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class SymmetricGrid:
    """Uniform grid ``{k * step : k = -n_half..n_half}``."""

    step: float
    n_half: int

    def __post_init__(self):
        if self.step <= 0.0 or not math.isfinite(self.step):
            raise ValidationError("grid step must be positive and finite")
        if self.n_half < 0:
            raise ValidationError("n_half must be nonnegative")

    @classmethod
    def from_bound(cls, bound: float, step: float) -> "SymmetricGrid":
        """Smallest symmetric grid with the given step covering ``[-bound, bound]``."""
        if bound < 0.0:
            raise ValidationError("bound must be nonnegative")
        return cls(step=step, n_half=math.ceil(bound / step))

    @property
    def n_points(self) -> int:
        return 2 * self.n_half + 1

    @property
    def index_width(self) -> int:
        """Bits needed to store one offset index."""
        return max(1, (self.n_points - 1).bit_length())

    def quantize(self, x: float) -> int:
        """Signed index of the nearest grid point, clipped to the range."""
        k = int(round(x / self.step))
        return max(-self.n_half, min(self.n_half, k))

    def value(self, k: int) -> float:
        if abs(k) > self.n_half:
            raise ValidationError("grid index out of range")
        return k * self.step

    def to_offset(self, k: int) -> int:
        """Nonnegative wire index for a signed grid index."""
        if abs(k) > self.n_half:
            raise ValidationError("grid index out of range")
        return k + self.n_half

    def from_offset(self, u: int) -> int:
        if not (0 <= u < self.n_points):
            raise ValidationError("offset index out of range")
        return u - self.n_half

    def offsets(self, x) -> np.ndarray:
        """Elementwise ``to_offset(quantize(x))``; ``rint`` rounds half to
        even exactly as ``round`` does."""
        k = np.clip(np.rint(np.asarray(x, dtype=float) / self.step),
                    -self.n_half, self.n_half)
        return k.astype(np.int64) + self.n_half

    def values(self, offsets) -> np.ndarray:
        """Elementwise ``value(from_offset(u))`` for in-range offsets."""
        return (np.asarray(offsets) - self.n_half) * self.step
