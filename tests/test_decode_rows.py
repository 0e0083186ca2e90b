"""Array decoding: one ``gaussian_rows`` call validates and factors a stack
of Gaussians, and one ``decode_rows`` call decodes a batch of messages.
Each row's result is bit for bit what it is alone."""

import numpy as np
import pytest

from compresslearn import (SCHEME_CHOICES, DecodingError, Gaussian, Mixture,
                           ValidationError, codec_for, dist_to_json, sample)
from compresslearn.compression import CompressionMessage
from compresslearn.gaussmodels import ROW_FAULTS, gaussian_rows

FACTORS = ("sqrt_cov", "inv_cov", "log_det_cov")


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_stacked_factors_equal_per_matrix_factors(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((2000, d, d))
    covs = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(d)
    rows = gaussian_rows(rng.standard_normal((2000, d)), covs)
    assert not rows.fault.any()
    for i in range(len(covs)):
        cov = 0.5 * (covs[i] + covs[i].T)
        w, v = np.linalg.eigh(cov)
        want = {"sqrt_cov": (v * np.sqrt(w)) @ v.T,
                "inv_cov": (v / w) @ v.T,
                "log_det_cov": np.sum(np.log(w))}
        for name in FACTORS:
            np.testing.assert_array_equal(getattr(rows, name)[i], want[name])


@pytest.mark.parametrize("covs", [
    [[[1e-310]], [[1e-300]], [[1e308]], [[1.0]], [[np.inf]], [[-1.0]]],
    [1e308 * np.eye(2), 1e300 * np.eye(2), [[1.0, 2.0], [0.0, 1.0]],
     [[1.0, 1.0], [1.0, 1.0]], np.eye(2)],
], ids=["d1", "d2"])
def test_rows_accept_and_reject_what_gaussian_does(covs):
    covs = np.asarray(covs, dtype=float)
    d = covs.shape[-1]
    rows = gaussian_rows(np.zeros((len(covs), d)), covs)
    for i, cov in enumerate(covs):
        if rows.fault[i]:
            exc, reason = ROW_FAULTS[rows.fault[i] - 1]
            with pytest.raises(exc, match=reason) as info:
                Gaussian(np.zeros(d), cov)
            assert type(info.value) is exc
        else:
            alone = Gaussian(np.zeros(d), cov)
            for name in FACTORS:
                np.testing.assert_array_equal(getattr(rows, name)[i],
                                              getattr(alone, name))
    assert list(rows.fault == 0) == ([False, True, False, True, False, False]
                                     if d == 1
                                     else [False, True, False, False, True])


def test_a_row_with_a_non_finite_mean_is_rejected_alone():
    rows = gaussian_rows([[np.nan], [0.0]], [[[1.0]], [[1.0]]])
    assert ROW_FAULTS[rows.fault[0] - 1] == (
        ValidationError, "mean has non-finite entries")
    assert rows.fault[1] == 0


EPS = 0.5
N_MESSAGES = 60
# name: (scheme, target); every SCHEME_CHOICES scheme, and a mixture of gd
CASES = {
    "g1d": ("g1d", Gaussian([1.5], [[4.0]])),
    "g1d_robust": ("g1d_robust", Gaussian([-0.5], [[2.0]])),
    "gd": ("gd", Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])),
    "axis": ("axis", Gaussian([0.5, -1.0], [[2.0, 0.0], [0.0, 0.7]])),
    "mixture": ("mixture", Mixture([0.4, 0.6], [Gaussian([-2.0], [[1.0]]),
                                                Gaussian([3.0], [[2.0]])])),
    "mixture_gd": ("mixture", Mixture([0.5, 0.5], [
        Gaussian([0.0, 0.0], np.eye(2)),
        Gaussian([3.0, 1.0], [[1.0, 0.3], [0.3, 0.5]])])),
}


def test_every_scheme_has_a_case():
    assert {scheme for scheme, _ in CASES.values()} == set(SCHEME_CHOICES)


def random_rows(codec, n_points, rng):
    """``N_MESSAGES`` uniform messages as reference and digit rows; the last
    five reference one point only, so every sample difference is zero."""
    refs = rng.integers(n_points, size=(N_MESSAGES, codec.tau(EPS)))
    refs[-5:] = 0
    layout = codec.layout(EPS)
    digits = np.array([layout.random_digits(rng) for _ in refs])
    return refs, digits


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_batch_decodes_as_its_messages_do_one_by_one(name):
    scheme, target = CASES[name]
    codec = codec_for(scheme, target)
    points = sample(target, 40, 5).points
    refs, digits = random_rows(codec, len(points), np.random.default_rng(9))
    batch = codec.decode_batch(refs, digits, points, EPS)
    assert len(batch) == N_MESSAGES
    layout = codec.layout(EPS)
    for row, payload, got in zip(refs, digits, batch):
        msg = CompressionMessage(codec.scheme_id, row, layout.pack(payload))
        if got is None:
            with pytest.raises(DecodingError):
                codec.decode(msg, points, EPS)
        else:
            assert dist_to_json(got) == dist_to_json(
                codec.decode(msg, points, EPS))
    dropped = [got is None for got in batch]
    if isinstance(target, Mixture):
        # a component that does not decode is the standard Gaussian
        placeholders = sum(not c.mean.any()
                           and np.array_equal(c.cov, np.eye(target.dim))
                           for mix in batch for c in mix.components)
        assert not any(dropped) and placeholders >= 10
    else:
        # the single-point rows decode to a zero covariance
        assert all(dropped[-5:])
    if name == "g1d":
        # a sampled g1d scale ratio has a random sign
        assert 10 <= sum(dropped[:-5]) <= 45
