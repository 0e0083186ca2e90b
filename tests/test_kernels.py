"""Kernel twins must agree bit-for-bit in behavior across backends."""

import os
import subprocess
import sys

import numpy as np
import pytest

from compresslearn import _kernels


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def test_backend_reports_numba_when_available():
    expected = "numba" if _kernels.USE_NUMBA else "numpy"
    assert _kernels.backend_name() == expected


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, COMPRESSLEARN_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from compresslearn import backend_name; print(backend_name())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "numpy"


def test_gauss_logpdf_twins_agree(rng):
    d = 4
    pts = rng.standard_normal((50, d))
    mean = rng.standard_normal(d)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    inv_cov = np.linalg.inv(cov)
    log_det = float(np.linalg.slogdet(cov)[1])
    ref = _kernels.gauss_logpdf_np(pts, mean, inv_cov, log_det)
    got = _kernels.gauss_logpdf(pts, mean, inv_cov, log_det)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_mixture_logpdf_twins_agree(rng):
    d, k = 3, 4
    pts = rng.standard_normal((60, d))
    means = rng.standard_normal((k, d))
    inv_covs = np.stack([np.eye(d) * (1.0 + i) for i in range(k)])
    log_dets = np.array([-d * np.log(1.0 + i) for i in range(k)])
    log_weights = np.log(np.full(k, 1.0 / k))
    ref = _kernels.mixture_logpdf_np(pts, means, inv_covs, log_dets, log_weights)
    got = _kernels.mixture_logpdf(pts, means, inv_covs, log_dets, log_weights)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_hamming_at_least_twins_agree(rng):
    words = rng.integers(0, 4, size=(30, 8), dtype=np.int64)
    for _ in range(50):
        cand = rng.integers(0, 4, size=8, dtype=np.int64)
        assert (_kernels.hamming_at_least(words, cand, 2)
                == _kernels.hamming_at_least_np(words, cand, 2))


def test_hamming_at_least_empty_words():
    words = np.zeros((0, 8), dtype=np.int64)
    cand = np.zeros(8, dtype=np.int64)
    assert _kernels.hamming_at_least(words, cand, 3)


def test_first_occupants_lowest_index_wins():
    cells = np.array([2, 0, 2, 1, 0], dtype=np.int64)
    out = _kernels.first_occupants(cells, 4)
    # cell 2 first at position 0, cell 0 first at position 1, cell 3 empty
    np.testing.assert_array_equal(out, [1, 3, 0, -1])
    np.testing.assert_array_equal(out, _kernels.first_occupants_np(cells, 4))


def test_first_occupants_twins_agree(rng):
    cells = rng.integers(0, 32, size=500, dtype=np.int64)
    np.testing.assert_array_equal(
        _kernels.first_occupants(cells, 32),
        _kernels.first_occupants_np(cells, 32))


def test_pairwise_greater_fraction_ties_count_for_neither():
    values = np.array([[1.0, 5.0], [1.0, 2.0]])
    out = _kernels.pairwise_greater_fraction(values)
    # column 0 ties, column 1 favors row 0: fractions are per-column wins
    np.testing.assert_allclose(out, [[0.0, 0.5], [0.0, 0.0]])


def test_pairwise_greater_fraction_twins_agree(rng):
    values = rng.standard_normal((6, 40))
    values[0] = values[1]  # force ties on a full row
    np.testing.assert_allclose(
        _kernels.pairwise_greater_fraction(values),
        _kernels.pairwise_greater_fraction_np(values),
        rtol=0, atol=1e-15)


def test_pairwise_greater_fraction_fills_strict_upper_triangle(rng):
    values = rng.integers(0, 3, size=(7, 30)).astype(float)  # many ties
    out = _kernels.pairwise_greater_fraction(values)
    for i in range(7):
        for j in range(7):
            want = (values[i] > values[j]).mean() if i < j else 0.0
            assert out[i, j] == want
