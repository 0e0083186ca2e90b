"""Numpy kernels against per-row, per-sample and per-entry references."""

import math

import numpy as np
import pytest

from compresslearn import _kernels


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def test_backend_name_is_numpy():
    assert _kernels.backend_name() == "numpy"


def _hamming_at_least_loop(words, cand, dmin):
    for row in words:
        if sum(int(w != c) for w, c in zip(row, cand)) < dmin:
            return False
    return True


def test_hamming_at_least_matches_row_loop(rng):
    words = rng.integers(0, 4, size=(30, 8), dtype=np.int64)
    for _ in range(50):
        cand = rng.integers(0, 4, size=8, dtype=np.int64)
        for dmin in range(0, 10):
            assert (_kernels.hamming_at_least(words, cand, dmin)
                    == _hamming_at_least_loop(words, cand, dmin))


def test_hamming_at_least_empty_words():
    words = np.zeros((0, 8), dtype=np.int64)
    cand = np.zeros(8, dtype=np.int64)
    assert _kernels.hamming_at_least(words, cand, 3)


def test_first_occupants_lowest_index_wins():
    cells = np.array([2, 0, 2, 1, 0], dtype=np.int64)
    out = _kernels.first_occupants(cells, 4)
    # cell 2 first at position 0, cell 0 first at position 1, cell 3 empty
    np.testing.assert_array_equal(out, [1, 3, 0, -1])


def test_first_occupants_matches_sample_loop(rng):
    # cells below 0 and at or above n_cells belong to no cell
    cells = rng.integers(-5, 40, size=500, dtype=np.int64)
    want = np.full(32, -1, dtype=np.int64)
    for i, c in enumerate(cells):
        if 0 <= c < 32 and want[c] < 0:
            want[c] = i
    got = _kernels.first_occupants(cells, 32)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    # a strided int32 view is converted to contiguous int64 first
    wide = np.stack((cells, cells)).astype(np.int32).T
    np.testing.assert_array_equal(_kernels.first_occupants(wide[:, 0], 32),
                                  want)


def test_pairwise_greater_fraction_ties_count_for_neither():
    values = np.array([[1.0, 5.0], [1.0, 2.0]])
    out = _kernels.pairwise_greater_fraction(values)
    # column 0 ties, column 1 favors row 0: fractions are per-column wins
    np.testing.assert_allclose(out, [[0.0, 0.5], [0.0, 0.0]])


def test_pairwise_greater_fraction_fills_strict_upper_triangle(rng):
    values = rng.integers(0, 3, size=(7, 30)).astype(float)  # many ties
    out = _kernels.pairwise_greater_fraction(values)
    for i in range(7):
        for j in range(7):
            want = (values[i] > values[j]).mean() if i < j else 0.0
            assert out[i, j] == want


TILE = _kernels.LOGPDF_TILE_CELLS


def _einsum_logpdf(points, mean, inv_cov, log_det):
    """The per-Gaussian einsum form the batched kernel replaced."""
    y = points - mean
    quad = np.einsum("ij,jk,ik->i", y, inv_cov, y)
    d = points.shape[1]
    return -0.5 * (d * math.log(2.0 * math.pi) + log_det + quad)


def _random_gaussians(rng, m, d):
    a = rng.standard_normal((m, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(d)
    eigvals, eigvecs = np.linalg.eigh(covs)
    inv_covs = (eigvecs / eigvals[:, None, :]) @ eigvecs.transpose(0, 2, 1)
    return (2.0 * rng.standard_normal((m, d)), inv_covs,
            np.log(eigvals).sum(axis=1))


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("n", [3, 7, TILE - 1, TILE, TILE + 1, 2 * TILE + 5])
def test_gauss_logpdf_many_matches_einsum_bitwise(d, n):
    # pins numpy 2.4's einsum("ij,jk,ik->i") order, which sums the
    # quadratic form sequentially with j outer and k inner; for n in
    # {1, 2} einsum takes another order, so it is not compared there
    rng = np.random.default_rng(1000 * d + n)
    m = 5
    means, inv_covs, log_dets = _random_gaussians(rng, m, d)
    pts = 3.0 * rng.standard_normal((n, d))
    got = _kernels.gauss_logpdf_many_np(pts, means, inv_covs, log_dets)
    assert got.shape == (m, n)
    for r in range(m):
        want = _einsum_logpdf(pts, means[r], inv_covs[r], log_dets[r])
        assert np.array_equal(got[r], want)
        one = _kernels.gauss_logpdf_many_np(pts, means[r:r + 1],
                                            inv_covs[r:r + 1],
                                            log_dets[r:r + 1])[0]
        assert np.array_equal(one, want)


@pytest.mark.parametrize("n", [1, 2, 3, 7, TILE + 1])
def test_gauss_logpdf_many_mixture_rows_match_single_mixtures(n):
    rng = np.random.default_rng(n)
    m, k, d = 4, 3, 2
    means, inv_covs, log_dets = _random_gaussians(rng, m * k, d)
    log_w = np.log(rng.dirichlet(np.ones(k), size=m))
    log_w[1, 2] = -np.inf  # a mixture padded to k components
    pts = rng.standard_normal((n, d))
    got = _kernels.gauss_logpdf_many_np(pts, means, inv_covs, log_dets,
                                        log_w)
    assert got.shape == (m, n)
    for r in range(m):
        sl = slice(r * k, (r + 1) * k)
        one = _kernels.gauss_logpdf_many_np(pts, means[sl], inv_covs[sl],
                                            log_dets[sl], log_w[r:r + 1])[0]
        assert np.array_equal(got[r], one)
    # the padded slot adds exactly nothing
    short = _kernels.gauss_logpdf_many_np(pts, means[3:5], inv_covs[3:5],
                                          log_dets[3:5], log_w[1:2, :2])[0]
    assert np.array_equal(got[1], short)


def test_gauss_logpdf_many_empty_batch():
    rng = np.random.default_rng(3)
    means, inv_covs, log_dets = _random_gaussians(rng, 4, 2)
    out = _kernels.gauss_logpdf_many_np(np.empty((0, 2)), means, inv_covs,
                                        log_dets)
    assert out.shape == (4, 0)
