"""Full-covariance d-dimensional scheme: error chains, failures, payloads."""

import math

import numpy as np
import pytest

from compresslearn import DecodingError, Gaussian, LabeledSample, sample
from compresslearn.compression import CompressionMessage, gd_codec
from compresslearn.compression.gd import (C_HULL, M_MULT, anchor_grid,
                                          coefficient_grid, decode_gd_detailed,
                                          n_pairs)

from helpers import encode_with_retries, spd_with_condition


def test_spec_accounting():
    d = 3
    codec = gd_codec(d)
    m = n_pairs(d)
    assert m == math.ceil(40.0 * d * (1.0 + math.log(d)))
    assert codec.spec.m_samples(0.2) == 2 * m
    assert codec.spec.tau(0.2) == 2 * m + 1
    assert codec.spec.robustness == pytest.approx(2.0 / 3.0)
    cg = coefficient_grid(0.2, d)
    ag = anchor_grid(0.2, d)
    assert codec.spec.t_bits(0.2) == d * m * cg.index_width + d * ag.index_width


def test_grid_steps_scale_with_problem_size():
    d = 3
    eps = 0.2
    cg = coefficient_grid(eps, d)
    m = n_pairs(d)
    assert cg.step <= eps / (96.0 * 20.0 * m * d ** 3) + 1e-18
    ag = anchor_grid(eps, d)
    assert ag.step == pytest.approx(2.0 * eps / (3.0 * d * math.sqrt(d)))
    assert ag.n_half * ag.step >= 4.0 * math.sqrt(d)


def test_roundtrip_whitened_error_chains():
    d = 2
    eps = 0.3
    codec = gd_codec(d)
    rng = np.random.default_rng(41)
    successes = 0
    trials = 25
    for _ in range(trials):
        cov = spd_with_condition(d, 10.0 ** rng.uniform(0, 3), rng)
        target = Gaussian(rng.standard_normal(d) * 3.0, cov)
        samp = sample(target, codec.spec.m_samples(eps), rng)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        successes += 1
        detail = decode_gd_detailed(out.message, samp.points, eps)
        inv_sqrt = target.inv_sqrt_cov
        true_vecs = (target.sqrt_cov @ target.eigvecs).T  # rows Psi w_j
        order_free = detail.scaled_vectors
        for j in range(d):
            err = np.linalg.norm(inv_sqrt @ (order_free[j] - true_vecs[j]))
            assert err <= eps / (24.0 * d * d)
        mean_err = np.linalg.norm(
            inv_sqrt @ (detail.gaussian.mean - target.mean))
        assert mean_err <= eps / 2.0
    assert successes / trials >= 2.0 / 3.0


def test_encode_fails_when_all_differences_filtered():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    pts = np.tile([[1e9, 0.0], [-1e9, 0.0]],
                  (codec.spec.m_samples(0.3) // 2, 1))
    out = codec.encode(target, LabeledSample(pts), 0.3)
    assert not out.ok and "filtered" in out.reason


def test_encode_fails_when_hull_misses_an_eigendirection():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    rng = np.random.default_rng(42)
    m = codec.spec.m_samples(0.3)
    pts = np.zeros((m, d))
    pts[:, 0] = rng.standard_normal(m)  # all mass on the first axis
    out = codec.encode(target, LabeledSample(pts), 0.3)
    assert not out.ok and "hull" in out.reason


def test_encode_fails_when_both_anchors_are_outliers():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    rng = np.random.default_rng(43)
    pts = rng.standard_normal((codec.spec.m_samples(0.3), d))
    pts[0] = [1e3, 1e3]
    pts[1] = [-1e3, 1e3]
    out = codec.encode(target, LabeledSample(pts), 0.3)
    assert not out.ok and "anchor" in out.reason


def test_decoded_covariance_is_spd_and_close():
    d = 3
    eps = 0.25
    codec = gd_codec(d)
    rng = np.random.default_rng(44)
    target = Gaussian(np.zeros(d), spd_with_condition(d, 100.0, rng))
    samp = sample(target, 4 * codec.spec.m_samples(eps), rng)
    msg = encode_with_retries(codec, target, samp, eps)
    assert msg is not None
    decoded = codec.decode(msg, samp.points, eps)
    eigs = np.linalg.eigvalsh(decoded.cov)
    assert eigs.min() > 0.0
    rel = np.linalg.norm(decoded.cov - target.cov) / np.linalg.norm(target.cov)
    assert rel < 0.5


def test_decode_validates_message_shape():
    d = 2
    eps = 0.3
    codec = gd_codec(d)
    rng = np.random.default_rng(45)
    target = Gaussian(np.zeros(d), np.eye(d))
    samp = sample(target, codec.spec.m_samples(eps), rng)
    out = codec.encode(target, samp, eps)
    assert out.ok
    with pytest.raises(DecodingError):
        codec.decode(CompressionMessage(out.message.scheme_id,
                                        out.message.sample_refs[:-2],
                                        out.message.bits),
                     samp.points, eps)
    with pytest.raises(DecodingError):
        codec.decode(CompressionMessage(out.message.scheme_id,
                                        out.message.sample_refs,
                                        out.message.bits[:-1]),
                     samp.points, eps)


def test_decode_rejects_out_of_range_coefficient_offset():
    d = 2
    eps = 0.3
    codec = gd_codec(d)
    rng = np.random.default_rng(47)
    target = Gaussian(np.zeros(d), np.eye(d))
    samp = sample(target, 4 * codec.spec.m_samples(eps), rng)
    msg = encode_with_retries(codec, target, samp, eps)
    assert msg is not None
    cg = coefficient_grid(eps, d)
    width = cg.index_width
    assert cg.n_points < 1 << width
    bits = msg.bits.copy()
    bits[:width] = [(cg.n_points >> i) & 1 for i in range(width)]
    with pytest.raises(DecodingError, match="malformed payload"):
        codec.decode(CompressionMessage(msg.scheme_id, msg.sample_refs, bits),
                     samp.points, eps)


def test_payload_index_enumeration():
    d = 2
    codec = gd_codec(d)
    eps = 0.9
    layout = codec.layout(eps)
    total = layout.count
    assert total > 0
    first = layout.by_index(0)
    last = layout.by_index(total - 1)
    assert len(first) == len(last) == codec.spec.t_bits(eps)
    with pytest.raises(Exception):
        layout.by_index(total)


def test_random_payload_has_right_width():
    d = 2
    codec = gd_codec(d)
    rng = np.random.default_rng(46)
    bits = codec.random_payload(0.4, rng)
    assert len(bits) == codec.spec.t_bits(0.4)


def test_scheme_constants():
    assert C_HULL == 20.0
    assert M_MULT == 40.0
