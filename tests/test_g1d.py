"""Three-reference 1-D Gaussian scheme: acceptance band, grids, roundtrip."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from compresslearn import (DecodingError, Gaussian, LabeledSample,
                           ValidationError, sample, tv_1d)
from compresslearn.compression import CompressionMessage, g1d_codec
from compresslearn.compression.g1d import (C_HIGH, C_LOW, mean_offset_grid,
                                           scale_ratio_grid)
from helpers import grid_index_oracle

# Pr[c < |N(0,1)| < C] at the default constants, frozen from
# 2 * (Phi(2.6) - Phi(0.0125)); the anchor event Pr[|N(0,1)| <= 2.6]
# multiplies in independently, giving joint success about 0.9716.
SCALE_EVENT_PROB = 0.9807043266644866
ANCHOR_EVENT_PROB = 0.9906776239525625


def test_event_probabilities_match_frozen_values():
    scale = 2.0 * (float(ndtr(C_HIGH)) - float(ndtr(C_LOW)))
    anchor = 2.0 * float(ndtr(C_HIGH)) - 1.0
    assert scale == pytest.approx(SCALE_EVENT_PROB, abs=1e-12)
    assert anchor == pytest.approx(ANCHOR_EVENT_PROB, abs=1e-12)
    assert scale * anchor > 2.0 / 3.0


def test_spec_accounting():
    codec = g1d_codec()
    assert codec.spec.tau(0.2) == 3
    assert codec.spec.m_samples(0.2) == 3
    assert codec.spec.robustness == 0.0
    assert codec.spec.t_bits(0.2) == (scale_ratio_grid(0.2).index_width
                                      + mean_offset_grid(0.2).index_width)
    # bits grow as eps shrinks
    assert codec.spec.t_bits(0.05) > codec.spec.t_bits(0.4)


def test_grid_bounds():
    eps = 0.2
    rg = scale_ratio_grid(eps)
    og = mean_offset_grid(eps)
    assert rg.step == pytest.approx(eps / (2.0 * C_HIGH ** 2))
    assert rg.n_half * rg.step >= 1.0 / C_LOW
    assert og.step == pytest.approx(eps / 2.0)
    assert og.n_half * og.step >= C_HIGH


def test_roundtrip_accuracy_across_scales():
    rng = np.random.default_rng(21)
    eps = 0.2
    codec = g1d_codec()
    ok = 0
    trials = 200
    for _ in range(trials):
        sigma = 10.0 ** rng.uniform(-3, 3)
        mu = rng.standard_normal() * 10.0 * sigma
        target = Gaussian([mu], [[sigma * sigma]])
        samp = sample(target, 3, rng)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        decoded = codec.decode(out.message, samp.points, eps)
        if tv_1d(target, decoded).value <= eps:
            ok += 1
    assert ok / trials >= 0.85


def test_encode_failure_reasons():
    target = Gaussian([0.0], [[1.0]])
    near = LabeledSample(np.array([[0.0], [1e-6], [0.0]]))
    out = near and g1d_codec().encode(target, near, 0.2)
    assert not out.ok and "band" in out.reason
    far_anchor = LabeledSample(np.array([[0.0], [1.0], [50.0]]))
    out2 = g1d_codec().encode(target, far_anchor, 0.2)
    assert not out2.ok and "anchor" in out2.reason


def test_decode_is_deterministic_and_matches_quantizer():
    target = Gaussian([2.0], [[4.0]])
    pts = np.array([[3.0], [1.0], [2.5]])
    out = g1d_codec().encode(target, LabeledSample(pts), 0.2)
    assert out.ok
    a = g1d_codec().decode(out.message, pts, 0.2)
    b = g1d_codec().decode(out.message, pts, 0.2)
    assert float(a.mean[0]) == float(b.mean[0])
    assert float(a.cov[0, 0]) == float(b.cov[0, 0])
    # reconstruction uses only referenced points and the payload
    g = (pts[0, 0] - pts[1, 0]) / math.sqrt(2.0)
    rg = scale_ratio_grid(0.2)
    og = mean_offset_grid(0.2)
    lam = grid_index_oracle(rg, 2.0 / g) * rg.step
    eta = grid_index_oracle(og, (2.0 - pts[2, 0]) / 2.0) * og.step
    assert float(a.cov[0, 0]) == pytest.approx((lam * g) ** 2, rel=1e-12)
    assert float(a.mean[0]) == pytest.approx(pts[2, 0] + lam * g * eta,
                                             rel=1e-12)


def test_decode_rejects_nonpositive_scale():
    pts = np.array([[1.0], [3.0], [2.0]])  # g < 0 with a positive payload
    target = Gaussian([2.0], [[4.0]])
    out = g1d_codec().encode(
        target, LabeledSample(np.array([[3.0], [1.0], [2.0]])), 0.2)
    assert out.ok
    with pytest.raises(DecodingError):
        g1d_codec().decode(out.message, pts, 0.2)


def test_decode_validates_message_shape():
    target = Gaussian([0.0], [[1.0]])
    pts = np.array([[1.0], [-1.0], [0.0]])
    out = g1d_codec().encode(target, LabeledSample(pts), 0.2)
    bad_bits = CompressionMessage(out.message.scheme_id,
                                  out.message.sample_refs,
                                  out.message.bits[:-1])
    with pytest.raises(DecodingError):
        g1d_codec().decode(bad_bits, pts, 0.2)
    with pytest.raises(DecodingError):
        g1d_codec().decode(out.message, pts[:2], 0.2)


def test_payload_enumeration_covers_encoded_message():
    codec = g1d_codec()
    eps = 0.5
    target = Gaussian([0.0], [[1.0]])
    pts = np.array([[0.9], [-0.6], [0.2]])
    out = codec.encode(target, LabeledSample(pts), eps)
    assert out.ok
    layout = codec.layout(eps)
    total = layout.count
    assert total == (scale_ratio_grid(eps).n_points
                     * mean_offset_grid(eps).n_points)
    match = any(np.array_equal(layout.by_index(i), out.message.bits)
                for i in range(total))
    assert match
    with pytest.raises(ValidationError):
        layout.by_index(total)
