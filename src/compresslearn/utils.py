"""Small shared helpers: RNG coercion and the usable CPU count."""

from __future__ import annotations

import os

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


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
