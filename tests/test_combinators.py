"""Product and mixture combinators: size accounting, roundtrip, filler slots."""

import math

import numpy as np
import pytest

from compresslearn import (DecodingError, Gaussian, LabeledSample, Mixture,
                           ValidationError, sample, tv_1d, tv_mc)
from compresslearn.compression import (CompressionMessage, SCHEME_MIXTURE,
                                       SCHEME_PRODUCT, compose_mixture,
                                       compose_product, g1d_codec, gd_codec,
                                       weight_grid_points)


def test_product_size_accounting_exact():
    d = 3
    base = g1d_codec()
    prod = compose_product(base, d)
    eps = 0.3
    sub = eps / d
    assert prod.tau(eps) == d * base.tau(sub)
    assert prod.layout(eps).n_bits == d * base.layout(sub).n_bits
    assert prod.m_samples(eps) \
        == math.ceil(math.log(3 * d) / math.log(3.0)) * base.m_samples(sub)
    assert prod.robustness == base.robustness


def test_product_roundtrip_diagonal_gaussian():
    d = 3
    prod = compose_product(g1d_codec(), d)
    rng = np.random.default_rng(51)
    eps = 0.3
    target = Gaussian([0.0, 2.0, -1.0], np.diag([1.0, 0.04, 9.0]))
    hits = 0
    trials = 40
    for _ in range(trials):
        samp = sample(target, prod.m_samples(eps), rng)
        out = prod.encode(target, samp, eps)
        if not out.ok:
            continue
        decoded = prod.decode(out.message, samp.points, eps)
        assert np.count_nonzero(decoded.cov - np.diag(np.diag(decoded.cov))) == 0
        if tv_mc(target, decoded, 4000, rng).value <= eps:
            hits += 1
    assert hits / trials >= 2.0 / 3.0


def test_product_rejects_correlated_covariance():
    prod = compose_product(g1d_codec(), 2)
    target = Gaussian([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    samp = sample(target, prod.m_samples(0.3), 1)
    with pytest.raises(ValidationError):
        prod.encode(target, samp, 0.3)


def test_product_message_layout_remaps_refs():
    d = 2
    prod = compose_product(g1d_codec(), d)
    eps = 0.4
    target = Gaussian([0.0, 5.0], np.diag([1.0, 1.0]))
    rng = np.random.default_rng(52)
    samp = sample(target, prod.m_samples(eps), rng)
    out = prod.encode(target, samp, eps)
    assert out.ok
    assert out.message.scheme_id == SCHEME_PRODUCT
    assert out.message.n_refs == prod.tau(eps)
    assert out.message.n_bits == prod.layout(eps).n_bits
    assert out.message.sample_refs.max() < samp.n


def test_mixture_size_accounting_exact():
    k = 2
    base = g1d_codec()
    mix = compose_mixture(base, k)
    eps = 0.3
    sub = eps / 3.0
    n_w = weight_grid_points(eps, k)
    w_bits = max(1, (n_w - 1).bit_length())
    assert n_w == math.ceil(3 * k / eps)
    assert mix.tau(eps) == k * base.tau(sub)
    assert mix.layout(eps).n_bits == k * w_bits + k * base.layout(sub).n_bits
    assert mix.m_samples(eps) \
        == math.ceil(48.0 * k * math.log(6.0 * k) / eps) \
        * base.m_samples(sub)
    assert mix.robustness == 0.0


def test_mixture_roundtrip_two_component_1d():
    k = 2
    mix_codec = compose_mixture(g1d_codec(), k)
    eps = 0.3
    target = Mixture([0.3, 0.7], [Gaussian([0.0], [[1.0]]),
                                  Gaussian([6.0], [[4.0]])])
    rng = np.random.default_rng(53)
    hits = 0
    trials = 30
    for _ in range(trials):
        samp = sample(target, mix_codec.m_samples(eps), rng)
        out = mix_codec.encode(target, samp, eps)
        if not out.ok:
            continue
        decoded = mix_codec.decode(out.message, samp.points, eps)
        if tv_1d(target, decoded).value <= eps:
            hits += 1
    assert hits / trials >= 2.0 / 3.0


def test_mixture_pads_missing_components_with_filler():
    # a 1-component target encoded under a k=2 codec: the second slot is
    # filler and must decode to the standard placeholder
    k = 2
    mix_codec = compose_mixture(g1d_codec(), k)
    eps = 0.3
    target = Mixture([1.0, 0.0], [Gaussian([2.0], [[1.0]]),
                                  Gaussian([0.0], [[1.0]])])
    rng = np.random.default_rng(54)
    samp = sample(target, mix_codec.m_samples(eps), rng)
    out = mix_codec.encode(target, samp, eps)
    assert out.ok
    decoded = mix_codec.decode(out.message, samp.points, eps)
    assert decoded.n_components == k
    # weight of the filler slot snaps to zero on the weight grid
    assert decoded.weights[1] == pytest.approx(0.0, abs=1e-12)
    comp = decoded.components[1]
    np.testing.assert_allclose(comp.mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(comp.cov, np.eye(1), atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, math.nan])
def test_mixture_m_samples_rejects_an_eps_outside_its_range(eps):
    with pytest.raises(ValidationError, match="eps must lie in"):
        compose_mixture(g1d_codec(), 2).m_samples(eps)


def test_mixture_encode_requires_labels():
    mix_codec = compose_mixture(g1d_codec(), 2)
    target = Mixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                                  Gaussian([5.0], [[1.0]])])
    pts = np.zeros((mix_codec.m_samples(0.3), 1))
    with pytest.raises(ValidationError):
        mix_codec.encode(target, LabeledSample(pts), 0.3)


def test_mixture_junk_payload_decodes_to_placeholder():
    k = 2
    mix_codec = compose_mixture(g1d_codec(), k)
    eps = 0.3
    rng = np.random.default_rng(55)
    pts = rng.standard_normal((mix_codec.m_samples(eps), 1))
    refs = np.zeros(mix_codec.tau(eps), dtype=np.int64)
    bits = np.zeros(mix_codec.layout(eps).n_bits, dtype=np.uint8)
    msg = CompressionMessage(SCHEME_MIXTURE, refs, bits)
    decoded = mix_codec.decode(msg, pts, eps)
    # all-zero payload is invalid for every base slot: uniform placeholder
    assert decoded.n_components == k
    np.testing.assert_allclose(decoded.weights, np.full(k, 0.5), atol=1e-12)
    for comp in decoded.components:
        np.testing.assert_allclose(comp.cov, np.eye(1), atol=1e-12)


def test_mixture_payload_count_multiradix():
    k = 2
    base = g1d_codec()
    mix_codec = compose_mixture(base, k)
    eps = 0.5
    n_w = weight_grid_points(eps, k)
    assert mix_codec.layout(eps).count \
        == (n_w ** k) * (base.layout(eps / 3.0).count ** k)


def test_gd_based_mixture_smoke():
    k = 2
    d = 2
    mix_codec = compose_mixture(gd_codec(d), k)
    eps = 0.4
    target = Mixture([0.5, 0.5],
                     [Gaussian(np.zeros(d), np.eye(d)),
                      Gaussian(np.full(d, 8.0), 2.0 * np.eye(d))])
    rng = np.random.default_rng(56)
    samp = sample(target, mix_codec.m_samples(eps), rng)
    out = mix_codec.encode(target, samp, eps)
    assert out.ok
    decoded = mix_codec.decode(out.message, samp.points, eps)
    assert tv_mc(target, decoded, 4000, rng).value <= eps


def test_mixture_rejects_off_grid_weight():
    # eps 0.2, k 2: 30 weight points in a 5-bit field, so 30 and 31 are
    # not on the grid (31 used to decode silently to weights [1, 0])
    k = 2
    eps = 0.2
    mix_codec = compose_mixture(g1d_codec(), k)
    n_w = weight_grid_points(eps, k)
    assert n_w == 30
    rng = np.random.default_rng(56)
    pts = rng.standard_normal((10, 1))
    refs = np.arange(mix_codec.tau(eps)) % 10
    layout = mix_codec.layout(eps)
    good = layout.pack(layout.index_digits(layout.count // 2))
    for digit in (29, 30, 31):
        bits = good.copy()
        bits[:5] = [(digit >> i) & 1 for i in range(5)]
        msg = CompressionMessage(SCHEME_MIXTURE, refs, bits)
        if digit < n_w:
            assert mix_codec.decode(msg, pts, eps).n_components == k
        else:
            with pytest.raises(DecodingError, match="malformed payload"):
                mix_codec.decode(msg, pts, eps)


@pytest.mark.parametrize("case, reason", [
    ("no points", "component 1 exhausted its sample batches: "
                  "too few labeled points"),
    ("every batch fails", "component 0 exhausted its sample batches: "
                          "scale difference outside (C_LOW, C_HIGH) band"),
], ids=["no points", "every batch fails"])
def test_mixture_encode_fails_when_a_component_exhausts_its_batches(
        case, reason):
    mix_codec = compose_mixture(g1d_codec(), 2)
    eps = 0.3
    target = Mixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                                  Gaussian([5.0], [[1.0]])])
    n = mix_codec.m_samples(eps)
    if case == "no points":
        # component 0 encodes from its own draws; component 1 has no points
        samp = LabeledSample(sample(target.components[0], n, 56).points,
                             np.zeros(n, dtype=np.int64))
    else:
        # every point sits at 0.0: each g1d batch has a zero scale difference
        samp = LabeledSample(np.zeros((n, 1)), np.arange(n) % 2)
    out = mix_codec.encode(target, samp, eps)
    assert not out.ok
    assert out.reason == reason
