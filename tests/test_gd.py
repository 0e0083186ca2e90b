"""Full-covariance d-dimensional scheme: error chains, failures, payloads."""

import math
import sys

import numpy as np
import pytest

from compresslearn import DecodingError, Gaussian, LabeledSample, sample
from compresslearn.compression import (SCHEME_GD, CompressionMessage,
                                       gd_codec)
from compresslearn.compression.gd import (C_HULL, M_MULT, _gd_params,
                                          anchor_grid, coefficient_grid,
                                          n_pairs)
from compresslearn.gaussmodels import gaussian_rows

from helpers import encode_with_retries, spd_with_condition


def test_spec_accounting():
    d = 3
    codec = gd_codec(d)
    m = n_pairs(d)
    assert m == math.ceil(40.0 * d * (1.0 + math.log(d)))
    assert codec.m_samples(0.2) == 2 * m
    assert codec.tau(0.2) == 2 * m + 1
    assert codec.robustness == pytest.approx(2.0 / 3.0)
    cg = coefficient_grid(0.2, d)
    ag = anchor_grid(0.2, d)
    assert codec.layout(0.2).n_bits \
        == d * m * cg.index_width + d * ag.index_width


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
        samp = sample(target, codec.m_samples(eps), rng)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        successes += 1
        est = codec.decode(out.message, samp.points, eps)
        pts, digits = codec.gate(out.message, samp.points, eps)
        vecs = _gd_params(out.message.sample_refs[None], digits[None], pts,
                          eps)[2][0]
        eigvals, eigvecs = np.linalg.eigh(target.cov)
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        true_vecs = (target.sqrt_cov @ eigvecs).T  # rows Psi w_j
        for j in range(d):
            err = np.linalg.norm(inv_sqrt @ (vecs[j] - true_vecs[j]))
            assert err <= eps / (24.0 * d * d)
        mean_err = np.linalg.norm(inv_sqrt @ (est.mean - target.mean))
        assert mean_err <= eps / 2.0
    assert successes / trials >= 2.0 / 3.0


def test_encode_fails_when_all_differences_filtered():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    pts = np.tile([[1e9, 0.0], [-1e9, 0.0]],
                  (codec.m_samples(0.3) // 2, 1))
    out = codec.encode(target, LabeledSample(pts), 0.3)
    assert not out.ok and "filtered" in out.reason


def test_encode_fails_when_hull_misses_an_eigendirection():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    rng = np.random.default_rng(42)
    m = codec.m_samples(0.3)
    pts = np.zeros((m, d))
    pts[:, 0] = rng.standard_normal(m)  # all mass on the first axis
    out = codec.encode(target, LabeledSample(pts), 0.3)
    assert not out.ok and "hull" in out.reason


def test_encode_fails_when_both_anchors_are_outliers():
    d = 2
    codec = gd_codec(d)
    target = Gaussian(np.zeros(d), np.eye(d))
    rng = np.random.default_rng(43)
    pts = rng.standard_normal((codec.m_samples(0.3), d))
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
    samp = sample(target, 4 * codec.m_samples(eps), rng)
    msg = encode_with_retries(codec, target, samp, eps)
    assert msg is not None
    decoded = codec.decode(msg, samp.points, eps)
    eigs = np.linalg.eigvalsh(decoded.cov)
    assert eigs.min() > 0.0
    rel = np.linalg.norm(decoded.cov - target.cov) / np.linalg.norm(target.cov)
    assert rel < 0.5


def test_decode_drops_a_rank_one_covariance():
    """Collinear differences give a rank-one ``V^T V``, which ``Gaussian``
    rejects: the message decodes to no distribution."""
    d = 2
    eps = 0.5
    codec = gd_codec(d)
    m = n_pairs(d)
    t = np.arange(2 * m + 1, dtype=float)
    pts = np.column_stack([t, 2.0 * t])
    refs = np.arange(2 * m + 1)
    digits = np.concatenate([
        coefficient_grid(eps, d).offsets(np.full(d * m, 0.01)),
        anchor_grid(eps, d).offsets(np.zeros(d))])
    _, cov, _ = _gd_params(refs[None], digits[None], pts, eps)
    assert np.linalg.matrix_rank(cov[0]) == 1
    msg = CompressionMessage(SCHEME_GD, refs, codec.layout(eps).pack(digits))
    with pytest.raises(DecodingError, match="decodes to no distribution"):
        codec.decode(msg, pts, eps)
    assert codec.decode_batch(refs[None], digits[None], pts, eps) == [None]


def test_decode_batch_factors_each_row_once(monkeypatch):
    """One ``gaussian_rows`` call per batch, counted through every module
    name bound to it."""
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return gaussian_rows(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "compresslearn":
            for attr, value in list(vars(module).items()):
                if value is gaussian_rows:
                    monkeypatch.setattr(module, attr, counted)
    eps = 0.5
    codec = gd_codec(2)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(codec.m_samples(eps), 2))
    refs = rng.integers(len(pts), size=(100, codec.tau(eps)))
    digits = np.stack([codec.layout(eps).random_digits(rng)
                       for _ in range(100)])
    out = codec.decode_batch(refs, digits, pts, eps)
    assert len(out) == 100
    assert calls == [100]


def test_decode_validates_message_shape():
    d = 2
    eps = 0.3
    codec = gd_codec(d)
    rng = np.random.default_rng(45)
    target = Gaussian(np.zeros(d), np.eye(d))
    samp = sample(target, codec.m_samples(eps), rng)
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
    samp = sample(target, 4 * codec.m_samples(eps), rng)
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
    first = layout.pack(layout.index_digits(0))
    last = layout.pack(layout.index_digits(total - 1))
    assert len(first) == len(last) == codec.layout(eps).n_bits
    with pytest.raises(Exception):
        layout.pack(layout.index_digits(total))


def test_scheme_constants():
    assert C_HULL == 20.0
    assert M_MULT == 40.0
