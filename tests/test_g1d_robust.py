"""Contamination-tolerant 1-D scheme: cell pairing, decoding, robustness."""

import math

import numpy as np
import pytest

from compresslearn import (DecodingError, Gaussian, LabeledSample,
                           ValidationError, sample, tv_1d)
from compresslearn.compression import (SCHEME_G1D_ROBUST, CompressionMessage,
                                       g1d_robust_codec)
from compresslearn.compression.g1d_robust import (ROBUSTNESS_L1,
                                                  m_samples_robust)


def test_spec_accounting():
    codec = g1d_robust_codec()
    assert codec.tau(0.2) == 4
    assert codec.layout(0.2).n_bits == 1
    assert codec.m_samples(0.2) == math.ceil(60.0 / 0.2)
    assert codec.robustness == ROBUSTNESS_L1 == 0.773


def test_message_shape_is_four_refs_one_bit():
    rng = np.random.default_rng(31)
    target = Gaussian([1.0], [[4.0]])
    eps = 0.2
    samp = sample(target, m_samples_robust(eps), rng)
    out = g1d_robust_codec().encode(target, samp, eps)
    assert out.ok
    assert out.message.n_refs == 4
    assert out.message.n_bits == 1


def decode_points(x1, x2, y1, y2, b):
    """Decode the message that references the four given points in order."""
    msg = CompressionMessage(SCHEME_G1D_ROBUST, np.arange(4),
                             np.array([b], dtype=np.uint8))
    return g1d_robust_codec().decode(msg, np.array([[x1], [x2], [y1], [y2]]),
                                     0.2)


def test_decode_formulas():
    # bit 0: sd = |y1 - y2|; bit 1: sd = |y1 - y2| / 3; mean = (x1 + x2) / 2
    g = decode_points(1.0, 3.0, 0.0, 1.5, 0)
    assert float(g.mean[0]) == pytest.approx(2.0)
    assert math.sqrt(float(g.cov[0, 0])) == pytest.approx(1.5)
    g3 = decode_points(1.0, 3.0, 0.0, 1.5, 1)
    assert math.sqrt(float(g3.cov[0, 0])) == pytest.approx(0.5)


def test_decode_rejects_zero_spread():
    with pytest.raises(DecodingError):
        decode_points(1.0, 3.0, 2.0, 2.0, 0)


def test_roundtrip_without_contamination():
    rng = np.random.default_rng(32)
    eps = 0.2
    codec = g1d_robust_codec()
    target = Gaussian([-2.0], [[0.25]])
    hits = 0
    trials = 60
    for _ in range(trials):
        samp = sample(target, codec.m_samples(eps), rng)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        decoded = codec.decode(out.message, samp.points, eps)
        if tv_1d(target, decoded).value <= eps:
            hits += 1
    assert hits / trials >= 2.0 / 3.0


def test_roundtrip_under_contamination():
    # adversarial q: mix 25% junk into the sampling distribution
    rng = np.random.default_rng(33)
    eps = 0.25
    codec = g1d_robust_codec()
    target = Gaussian([0.0], [[1.0]])
    m = codec.m_samples(eps)
    hits = 0
    trials = 60
    for _ in range(trials):
        pts = rng.standard_normal((m, 1))
        junk = rng.random(m) < 0.25
        pts[junk] = rng.uniform(-30.0, 30.0, size=(int(junk.sum()), 1))
        samp = LabeledSample(pts)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        decoded = codec.decode(out.message, samp.points, eps)
        if tv_1d(target, decoded).value <= 0.3:
            hits += 1
    assert hits / trials >= 2.0 / 3.0


def test_encoder_references_lowest_indexed_occupants():
    # duplicate points in paired cells: refs must pick the first occurrence
    rng = np.random.default_rng(34)
    eps = 0.5
    target = Gaussian([0.0], [[1.0]])
    m = m_samples_robust(eps)
    samp = sample(target, m, rng)
    out = g1d_robust_codec().encode(target, samp, eps)
    assert out.ok
    pts = samp.points[:, 0]
    for ref in out.message.sample_refs:
        cell_of_ref = math.floor((pts[ref] + 2.0) / (eps * 1.0))
        same_cell = np.floor((pts + 2.0) / (eps * 1.0)) == cell_of_ref
        assert ref == int(np.nonzero(same_cell)[0][0])


def test_encode_requires_enough_points():
    target = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValidationError):
        g1d_robust_codec().encode(target, LabeledSample(np.zeros((5, 1))), 0.2)


def test_decode_message_validates_counts():
    rng = np.random.default_rng(35)
    target = Gaussian([0.0], [[1.0]])
    eps = 0.25
    samp = sample(target, m_samples_robust(eps), rng)
    out = g1d_robust_codec().encode(target, samp, eps)
    assert out.ok
    short = samp.points[:int(out.message.sample_refs.max())]
    with pytest.raises(DecodingError):
        g1d_robust_codec().decode(out.message, short, eps)


def cell_points(cells, eps=0.5):
    """``m_samples_robust(eps)`` points for target N(0, 1): one at the
    centre of each given 1-based cell, in order, then points far outside
    the window (cell ``k`` is ``[-2 + (k-1) eps, -2 + k eps)``)."""
    pts = np.full((m_samples_robust(eps), 1), 100.0)
    pts[:len(cells), 0] = [-2.0 + (k - 0.5) * eps for k in cells]
    return LabeledSample(pts)


def test_encoder_falls_back_to_cells_three_scales_apart():
    # eps 0.5: M = 2, 8 cells; no preferred pair (3, 5) or (4, 6) is
    # occupied, the fallback pair (1, 7) is, and so is the mean pair (2, 7)
    eps = 0.5
    target = Gaussian([0.0], [[1.0]])
    samp = cell_points([7, 2, 1], eps)
    out = g1d_robust_codec().encode(target, samp, eps)
    assert out.ok
    assert out.message.sample_refs.tolist() == [1, 0, 2, 0]
    assert out.message.bits.tolist() == [1]
    decoded = g1d_robust_codec().decode(out.message, samp.points, eps)
    # cell centres -1.75 and 1.25 are three scales apart
    assert float(decoded.mean[0]) == 0.0
    assert float(decoded.cov[0, 0]) == 1.0


@pytest.mark.parametrize("cells, reason", [
    ([1, 2], "no occupied variance cell pair"),
    ([3, 5], "no occupied mean cell pair"),
], ids=["variance", "mean"])
def test_encoder_names_the_cell_pair_it_cannot_find(cells, reason):
    out = g1d_robust_codec().encode(Gaussian([0.0], [[1.0]]),
                                    cell_points(cells), 0.5)
    assert not out.ok
    assert out.reason == reason
