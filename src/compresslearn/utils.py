"""Small shared helpers: RNG coercion."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def as_generator(seed) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Parameters
    ----------
    seed : int or numpy.random.Generator
        An integer seed, or an existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValidationError("seed must be an int or a numpy Generator")
    return np.random.default_rng(int(seed))

