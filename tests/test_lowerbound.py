"""Hard family construction, codebooks, and Fano arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslearn import (Codebook, FanoInputs, Gaussian, ValidationError,
                           fano_error_bound, fano_sample_lower, kl_gaussians,
                           kl_pair, kl_upper_bound, lowerbound, make_codebook,
                           make_lb_family, make_mixture_lb_family,
                           mixture_mean_separation, random_orthonormal,
                           tv_pair_lower, tv_separation, verify_codebook)
from compresslearn.lowerbound import (cross_bound, cross_gram_sq,
                                      family_lambda, violating_pairs)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(0, 1000))
def test_random_orthonormal_columns(d, seed):
    cols = max(1, d // 2)
    u = random_orthonormal(d, cols, seed)
    assert u.shape == (d, cols)
    np.testing.assert_allclose(u.T @ u, np.eye(cols), atol=1e-10)


def test_random_orthonormal_is_deterministic():
    a = random_orthonormal(6, 3, 5)
    b = random_orthonormal(6, 3, 5)
    np.testing.assert_array_equal(a, b)


def test_family_lambda_raises_beyond_quarter():
    assert family_lambda(16, 0.2) == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        family_lambda(4, 0.9)


def test_family_construction_invariants():
    fam = make_lb_family(18, 9, 0.25, 6, 0)
    assert fam.size == 6
    bound = cross_bound(18, 9)
    assert violating_pairs(fam.us, bound) == []
    for a in range(fam.size):
        # spectrum: d - d/r ones and d/r copies of 1 + lambda
        eigs = np.sort(np.linalg.eigvalsh(fam.sigmas[a]))
        np.testing.assert_allclose(eigs[:16], 1.0, atol=1e-9)
        np.testing.assert_allclose(eigs[16:], 1.0 + fam.lam, atol=1e-9)
        # explicit inverse identity
        inv = fam.sigma_inv(a)
        np.testing.assert_allclose(inv @ fam.sigmas[a], np.eye(18),
                                   atol=1e-9)


def test_family_validates_divisibility_and_r():
    with pytest.raises(ValidationError):
        make_lb_family(16, 9, 0.25, 4, 0)  # 16 % 9 != 0
    with pytest.raises(ValidationError):
        make_lb_family(16, 8, 0.25, 4, 0)  # r < 9


@pytest.mark.parametrize("d", [0, -9])
def test_family_rejects_nonpositive_dimension(d):
    with pytest.raises(ValidationError, match="positive multiple of r"):
        make_lb_family(d, 9, 0.2, 4, 0)


def test_kl_pair_matches_closed_form_kl():
    fam = make_lb_family(18, 9, 0.25, 5, 1)
    for a in range(fam.size):
        for b in range(fam.size):
            direct = kl_gaussians(fam.gaussian(a), fam.gaussian(b))
            assert kl_pair(fam, a, b) == pytest.approx(direct, abs=1e-9)
    assert kl_pair(fam, 0, 0) == 0.0


def test_kl_pairs_below_upper_bound():
    fam = make_lb_family(18, 9, 0.2, 6, 2)
    cap = kl_upper_bound(fam)
    for a in range(fam.size):
        for b in range(a + 1, fam.size):
            assert kl_pair(fam, a, b) <= cap + 1e-12


def test_tv_pair_lower_respects_separation_floor():
    fam = make_lb_family(18, 9, 0.25, 6, 3)
    floor = tv_separation(fam)
    assert floor == pytest.approx(fam.lam * math.sqrt(2.0) / 2.0)
    for a in range(fam.size):
        for b in range(a + 1, fam.size):
            assert tv_pair_lower(fam, a, b) >= floor
    assert tv_pair_lower(fam, 0, 0) == 0.0


def test_codebook_greedy_properties():
    book = make_codebook(4, 8, 0)
    assert book.t_alphabet == 4 and book.k == 8
    assert book.size >= 16
    assert book.min_distance == 2
    assert verify_codebook(book)


def test_codebook_rejects_small_alphabet():
    with pytest.raises(ValidationError):
        make_codebook(3, 8, 0)


def test_verify_codebook_detects_close_words():
    words = np.array([[0, 0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 1]])  # distance 1 < 2
    book = Codebook(4, 8, words)
    assert not verify_codebook(book)


def test_mixture_mean_separation_formula():
    d, k, eps = 9, 3, 0.5
    t = 2.0 * math.log(k / eps)
    expected = math.sqrt(8.0 * (d + 2.0 * math.sqrt(d * t) + 2.0 * t))
    assert mixture_mean_separation(d, k, eps) == pytest.approx(expected)


def test_mixture_family_pairwise_mean_distance():
    d, k = 9, 3
    eps = 0.5
    mixes = make_mixture_lb_family(d, 9, k, eps, 0, n_covs=4, max_mixtures=8)
    assert 2 <= len(mixes) <= 8
    delta = mixture_mean_separation(d, k, eps)
    for mix in mixes:
        assert mix.n_components == k
        means = np.stack([c.mean for c in mix.components])
        for i in range(k):
            for j in range(i + 1, k):
                assert np.linalg.norm(means[i] - means[j]) \
                    == pytest.approx(delta, rel=1e-12)


def test_mixture_family_single_component_path():
    mixes = make_mixture_lb_family(9, 9, 1, 0.5, 0, n_covs=3)
    assert len(mixes) == 3
    for mix in mixes:
        assert mix.n_components == 1


def test_fano_error_bound_values():
    # alpha * (ln M - n kappa + ln 2) / (2 ln M), clamped at zero
    inp = FanoInputs(m_family=32, kappa=0.01, alpha=1.0, n=0)
    expected = (math.log(32) + math.log(2)) / (2 * math.log(32))
    assert fano_error_bound(inp) == pytest.approx(expected)
    huge_n = FanoInputs(m_family=32, kappa=0.01, alpha=1.0, n=10 ** 6)
    assert fano_error_bound(huge_n) == 0.0


def test_fano_sample_lower_scaling():
    # halving eps roughly quadruples the bound through kappa ~ eps^2
    lo = fano_sample_lower(32, 0.04, 0.25)
    hi = fano_sample_lower(32, 0.01, 0.125)
    assert hi > 2.0 * lo
    with pytest.raises(ValidationError):
        fano_sample_lower(1, 0.01, 0.25)
    with pytest.raises(ValidationError):
        fano_sample_lower(32, 0.01, 0.75)


def test_cross_gram_sq_matches_numpy():
    rng = np.random.default_rng(9)
    u = random_orthonormal(12, 3, rng)
    v = random_orthonormal(12, 3, rng)
    assert cross_gram_sq(u, v) == pytest.approx(
        np.linalg.norm(u.T @ v, ord="fro") ** 2, rel=1e-12)


def repeating_orthonormal(monkeypatch, repeats):
    """Make ``lowerbound.random_orthonormal`` return one fixed subspace for
    its first ``repeats`` calls, then draw as before; return the list of
    subspaces it returns."""
    draw = lowerbound.random_orthonormal
    fixed = draw(18, 2, 99)
    returned = []

    def repeating(d, cols, rng):
        u = fixed if len(returned) < repeats else draw(d, cols, rng)
        returned.append(u)
        return u

    monkeypatch.setattr(lowerbound, "random_orthonormal", repeating)
    return returned


def test_family_redraws_both_members_of_a_violating_pair(monkeypatch):
    # members 0 and 1 share a subspace: |U_0^T U_1|_F^2 = 2 > d / (2r) = 1
    returned = repeating_orthonormal(monkeypatch, 2)
    fam = make_lb_family(18, 9, 0.25, 3, 5)
    assert len(returned) == 5
    assert fam.us[0] is returned[3] and fam.us[1] is returned[4]
    assert fam.us[2] is returned[2]
    assert violating_pairs(fam.us, cross_bound(18, 9)) == []


def test_family_that_never_separates_raises(monkeypatch):
    repeating_orthonormal(monkeypatch, math.inf)
    with pytest.raises(ValidationError, match="3 pairs still violate the "
                       "alignment bound after 100 rounds"):
        make_lb_family(18, 9, 0.25, 3, 5)
