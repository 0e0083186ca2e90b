"""Shared test utilities."""

import dataclasses
import multiprocessing
import os

import numpy as np

from compresslearn import LabeledSample, harness
from compresslearn.compression import CompressionMessage


def encode_with_retries(codec, target, samp, eps):
    """Encode over disjoint batches until one accepts; remap refs globally.

    Returns the remapped message or None when every batch fails.
    """
    m_b = codec.m_samples(eps)
    for b in range(samp.n // m_b):
        sl = slice(b * m_b, (b + 1) * m_b)
        labels = None if samp.labels is None else samp.labels[sl]
        out = codec.encode(target, LabeledSample(samp.points[sl], labels), eps)
        if out.ok:
            return CompressionMessage(
                out.message.scheme_id,
                out.message.sample_refs + b * m_b,
                out.message.bits)
    return None


def spd_with_condition(d: int, cond: float, rng) -> np.ndarray:
    """Random SPD matrix with exactly the requested condition number."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if d == 1:
        return np.array([[1.0]])
    eigs = np.exp(np.linspace(0.0, np.log(cond), d))
    return (q * eigs) @ q.T


def pack_bits_oracle(digits, widths) -> np.ndarray:
    """Reference payload packing: each digit LSB-first, one bit at a time."""
    bits = []
    for value, width in zip(digits, widths):
        for i in range(width):
            bits.append((int(value) >> i) & 1)
    return np.asarray(bits, dtype=np.uint8)


def unpack_bits_oracle(bits, widths) -> list:
    """Reference payload unpacking, the inverse of :func:`pack_bits_oracle`."""
    digits = []
    pos = 0
    for width in widths:
        digits.append(sum(int(bits[pos + i]) << i for i in range(width)))
        pos += width
    return digits


def grid_index_oracle(grid, x):
    """Reference quantizer: the signed index ``k`` of the grid point
    ``k * grid.step`` nearest ``x`` (half to even), clipped to the grid."""
    k = int(round(x / grid.step))
    return max(-grid.n_half, min(grid.n_half, k))


def exit_in_child(tasks):
    """Stands in for ``harness._run_trials``: a pool worker that dies."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    raise AssertionError("a trial ran in the test process")


def trials_with_pid(tasks):
    """Stands in for ``harness._run_trials``: runs the block, with the pid
    of the process that ran it in each row's ``wall_ms``."""
    return [dataclasses.replace(row, wall_ms=os.getpid())
            for row in map(harness._run_one, tasks)]
