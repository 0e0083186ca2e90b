"""Distribution containers, sampling, densities, JSON serialization."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from compresslearn import (DimensionMismatchError, Gaussian, LabeledSample,
                           Mixture, SingularCovarianceError, ValidationError,
                           density, dist_dumps, dist_from_json, dist_loads,
                           dist_to_json, log_densities, log_density,
                           sample)
from compresslearn import _kernels
from compresslearn.gaussmodels import (evaluate_log_densities,
                                       prepare_log_densities)

# scipy.stats.norm.logpdf(0.0, 0, 1), frozen
STD_NORMAL_LOGPDF_AT_0 = -0.9189385332046727
# log(0.5 * pdf(2; 0, 1) + 0.5 * pdf(2; 4, 1)) = log(exp(-2) / sqrt(2 pi)),
# frozen: both components sit exactly two standard deviations from x = 2
MIX_LOGPDF_FIXTURE = -2.9189385332046727


def test_standard_normal_logpdf_matches_frozen_value():
    g = Gaussian([0.0], [[1.0]])
    assert log_density(g, [[0.0]])[0] == pytest.approx(
        STD_NORMAL_LOGPDF_AT_0, abs=1e-14)


def test_symmetric_mixture_logpdf_matches_frozen_value():
    mix = Mixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                               Gaussian([4.0], [[1.0]])])
    assert log_density(mix, [[2.0]])[0] == pytest.approx(
        MIX_LOGPDF_FIXTURE, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_gauss_logpdf_matches_scipy(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    mean = rng.standard_normal(d)
    g = Gaussian(mean, cov)
    pts = rng.standard_normal((20, d))
    ref = stats.multivariate_normal(mean, cov).logpdf(pts)
    np.testing.assert_allclose(log_density(g, pts), ref, rtol=1e-10)


def test_mixture_logpdf_matches_direct_sum():
    rng = np.random.default_rng(5)
    comps = [Gaussian(rng.standard_normal(2), np.eye(2) * s)
             for s in (0.5, 1.0, 2.0)]
    w = np.array([0.2, 0.3, 0.5])
    mix = Mixture(w, comps)
    pts = rng.standard_normal((30, 2))
    direct = np.log(sum(wi * density(c, pts) for wi, c in zip(w, comps)))
    np.testing.assert_allclose(log_density(mix, pts), direct, rtol=1e-10)


def test_gaussian_rejects_singular_covariance():
    with pytest.raises(SingularCovarianceError):
        Gaussian([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("mean, cov", [
    ([0.0, 0.0], 1e308 * np.eye(2)),
    ([0.0], [[1e308]]),
    ([0.0], [[1e-310]]),
], ids=["overflows when symmetrized 2-D", "overflows when symmetrized 1-D",
        "inverse overflows"])
def test_gaussian_rejects_covariances_it_cannot_evaluate(mean, cov):
    with pytest.raises(SingularCovarianceError, match="not finite"):
        Gaussian(mean, cov)


def test_gaussian_keeps_huge_and_tiny_covariances_it_can_evaluate():
    big = Gaussian([0.0, 0.0], 1e300 * np.eye(2))
    tiny = Gaussian([0.0], [[1e-300]])
    for g in (big, tiny):
        assert np.all(np.isfinite(g.sqrt_cov))
        assert np.all(np.isfinite(g.inv_cov))
        assert math.isfinite(float(log_density(g, g.mean[None, :])[0]))


def test_gaussian_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        Gaussian([0.0, 0.0], [[1.0]])


def test_gaussian_matrix_caches_are_consistent():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3))
    g = Gaussian(rng.standard_normal(3), a @ a.T + 3 * np.eye(3))
    np.testing.assert_allclose(g.sqrt_cov @ g.sqrt_cov, g.cov, atol=1e-10)
    np.testing.assert_allclose(g.inv_cov @ g.cov, np.eye(3), atol=1e-10)
    assert g.log_det_cov == pytest.approx(
        float(np.linalg.slogdet(g.cov)[1]), abs=1e-10)


def test_mixture_weights_must_sum_to_one():
    g = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValidationError):
        Mixture([0.6, 0.6], [g, g])


def test_mixture_allows_zero_weights():
    g = Gaussian([0.0], [[1.0]])
    mix = Mixture([1.0, 0.0], [g, Gaussian([3.0], [[1.0]])])
    assert mix.n_components == 2
    assert log_density(mix, [[0.0]])[0] == pytest.approx(
        STD_NORMAL_LOGPDF_AT_0, abs=1e-12)


def test_mixture_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatchError):
        Mixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                             Gaussian([0.0, 0.0], np.eye(2))])
    with pytest.raises(ValidationError, match="components must be Gaussian"):
        Mixture([1.0], ["x"])


def test_sample_moments_and_labels():
    mix = Mixture([0.25, 0.75], [Gaussian([-5.0], [[1.0]]),
                                 Gaussian([5.0], [[1.0]])])
    samp = sample(mix, 20000, 42)
    assert samp.n == 20000 and samp.dim == 1
    assert samp.labels is not None
    frac = float(np.mean(samp.labels == 1))
    assert frac == pytest.approx(0.75, abs=0.02)
    # labels match sides: component 1 lives near +5
    assert float(samp.points[samp.labels == 1].mean()) == pytest.approx(
        5.0, abs=0.1)


@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (2, np.uint8),
                                      (256, np.uint8), (257, np.uint16)])
def test_sample_stores_labels_in_the_narrowest_unsigned_dtype(k, dtype):
    mix = Mixture(np.full(k, 1.0 / k),
                  [Gaussian([float(c)], [[1.0]]) for c in range(k)])
    n = 1001
    samp = sample(mix, n, 5)
    assert samp.labels.dtype == dtype
    assert samp.labels.nbytes == n * np.dtype(dtype).itemsize
    # one allocation, so a freed sample frees both
    assert samp.labels.base is samp.points.base
    assert samp.points.base.nbytes == samp.points.nbytes + samp.labels.nbytes
    assert samp.labels.max() < k


def test_sample_gaussian_covariance_close():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    samp = sample(Gaussian([1.0, -1.0], cov), 40000, 3)
    assert samp.labels is None
    np.testing.assert_allclose(np.cov(samp.points.T), cov, atol=0.08)


def test_sample_determinism():
    g = Gaussian([0.0], [[1.0]])
    a = sample(g, 10, 7).points
    b = sample(g, 10, 7).points
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "4", None, np.float64(3.0)],
                         ids=["fraction", "integral float", "bool", "string",
                              "none", "numpy float"])
def test_sample_rejects_non_integer_n(n):
    g = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValidationError, match="n must be an integer"):
        sample(g, n, 0)


def test_sample_accepts_python_and_numpy_integers():
    g = Gaussian([0.0], [[1.0]])
    expected = sample(g, 5, 7).points
    for n in (np.int64(5), np.int32(5), np.uint8(5)):
        np.testing.assert_array_equal(sample(g, n, 7).points, expected)
    for seed in (np.int64(7), np.int32(7), np.uint8(7)):
        np.testing.assert_array_equal(sample(g, 5, seed).points, expected)


@pytest.mark.parametrize("seed", [2.7, "3", "abc"])
def test_sample_rejects_a_seed_that_is_not_an_integer(seed):
    g = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValidationError, match="seed must be a non-negative"):
        sample(g, 5, seed)


@pytest.mark.parametrize("dist", [
    Gaussian([0.0], [[1.0]]),
    Mixture([0.5, 0.5], [Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])])],
    ids=["gaussian", "mixture"])
def test_sample_too_large_to_size_raises_validation_error(dist):
    # numpy cannot even size the draw, so nothing is allocated
    with pytest.raises(ValidationError, match=r"n=10{27} points in d=1"):
        sample(dist, 10 ** 27, 0)


def _sample_peak_ratio(dist, n: int) -> float:
    """tracemalloc peak of ``sample`` over the bytes it returns."""
    sample(dist, 10, 0)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        samp = sample(dist, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = samp.points.nbytes
    if samp.labels is not None:
        out += samp.labels.nbytes
    return peak / out


@pytest.mark.parametrize("dist", [
    Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]]),
    Mixture([0.5, 0.5], [Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
                         Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])],
    ids=["gaussian", "mixture"])
def test_sample_temporary_memory(dist):
    # the draws are transformed in place over fixed row blocks, and a
    # mixture's labels are counted per block (a whole-array bincount of
    # uint8 labels makes an 8n-byte intp temporary), so a draw holds
    # O(block) bytes beyond its output (1.07x and 1.09x; 2.05x and 1.71x
    # when a Gaussian held its draws next to the output and a mixture
    # gathered a whole component's rows)
    assert _sample_peak_ratio(dist, 10 ** 6) <= 1.25


# learn_2d's mixture draw: a separate labels array (3.9 MB of uint8) would
# sit under glibc's 32 MiB adaptive mmap threshold, its points above it
REPEATED_MIXTURE_DRAWS = textwrap.dedent("""
    import json
    import compresslearn as cl

    def rss_kib():
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])

    mix = cl.Mixture([0.5, 0.5], [
        cl.Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        cl.Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])
    cl.sample(mix, 10, 0)
    base, grown = rss_kib(), []
    for seed in range(4):
        samp = cl.sample(mix, 3_911_422, seed)
        del samp
        grown.append(rss_kib() - base)
    print(json.dumps(grown))
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmRSS from /proc")
def test_repeated_mixture_draws_return_their_memory():
    """A freed mixture sample leaves no labels array resident: a separate
    labels array landed on the heap from the second draw on and stayed,
    so the same learn peaked 30 MB higher in some runs than in others."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", REPEATED_MIXTURE_DRAWS],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    grown = json.loads(out.stdout.splitlines()[-1])
    assert max(grown) < 8 * 1024, grown


def test_labeled_sample_validation():
    with pytest.raises(ValidationError):
        LabeledSample(np.zeros((4, 1)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValidationError):
        LabeledSample(np.zeros(4))


@pytest.mark.parametrize("labels", [
    [0.7, 1.9], np.array([0.0, 1.0]), np.array([True, False]),
    [True, False], ["0", "1"]], ids=["float list", "float array",
                                     "bool array", "bool list", "strings"])
def test_labeled_sample_rejects_labels_that_are_not_integers(labels):
    # a cast would truncate: [0.7, 1.9] would read as [0, 1]
    with pytest.raises(ValidationError, match="labels must be integers"):
        LabeledSample(np.zeros((2, 1)), labels=labels)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
def test_labeled_sample_keeps_integer_labels_without_a_copy(dtype):
    labels = np.array([0, 1, 1], dtype=dtype)
    samp = LabeledSample(np.zeros((3, 1)), labels=labels)
    assert samp.labels is labels
    assert samp.labels.dtype == dtype
    assert not samp.labels.flags.writeable


@pytest.mark.parametrize("labels", [[0, 2, 1], []], ids=["ints", "empty"])
def test_labeled_sample_accepts_a_list_of_ints(labels):
    samp = LabeledSample(np.zeros((len(labels), 1)), labels=labels)
    assert samp.labels.dtype == np.int64
    assert samp.labels.tolist() == labels


@pytest.mark.parametrize("dist", [
    Gaussian([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]]),
    Mixture([0.4, 0.6], [Gaussian([0.0], [[1.0]]),
                         Gaussian([3.0], [[0.5]])]),
])
def test_json_roundtrip(dist):
    doc = dist_to_json(dist)
    back = dist_from_json(doc)
    assert type(back) is type(dist)
    pts = np.linspace(-2, 2, 7).reshape(-1, 1)
    if dist.dim == 2:
        pts = np.column_stack([pts[:, 0], pts[:, 0]])
    np.testing.assert_allclose(log_density(back, pts), log_density(dist, pts),
                               rtol=1e-12)
    again = dist_loads(dist_dumps(dist))
    np.testing.assert_allclose(log_density(again, pts), log_density(dist, pts),
                               rtol=1e-12)


def test_dist_from_json_rejects_unknown_type():
    with pytest.raises(ValidationError):
        dist_from_json({"type": "cauchy", "loc": 0.0})


ONE_COMPONENT = [{"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}]


@pytest.mark.parametrize("obj", [
    {"type": "gaussian", "mean": "x", "cov": [[1.0]]},
    {"type": "gaussian", "mean": [0.0, [1.0]], "cov": np.eye(2).tolist()},
    {"type": "gaussian", "mean": {"a": 1}, "cov": [[1.0]]},
    {"type": "gaussian", "mean": [0.0], "cov": [[1.0], [1.0, 2.0]]},
    {"type": "mixture", "weights": ["a"], "components": ONE_COMPONENT},
    {"type": "mixture", "weights": [1.0], "components": 5},
], ids=["string mean", "ragged mean", "object mean", "ragged cov",
        "string weight", "scalar components"])
def test_dist_from_json_rejects_malformed_numbers(obj):
    with pytest.raises(ValidationError):
        dist_from_json(obj)


def test_log_density_handles_tiny_scales():
    g = Gaussian([0.0], [[1e-6]])
    x = np.array([[0.0]])
    expected = -0.5 * math.log(2.0 * math.pi * 1e-6)
    assert log_density(g, x)[0] == pytest.approx(expected, rel=1e-12)


def _random_gaussian(rng, d):
    a = rng.standard_normal((d, d))
    return Gaussian(2.0 * rng.standard_normal(d), a @ a.T + 0.3 * np.eye(d))


LOGPDF_SIZES = [3, 7, _kernels.LOGPDF_TILE_CELLS - 1,
                _kernels.LOGPDF_TILE_CELLS, _kernels.LOGPDF_TILE_CELLS + 1,
                2 * _kernels.LOGPDF_TILE_CELLS + 5]


def _assert_rows_match(cands, pts):
    rows = log_densities(cands, pts)
    assert rows.shape == (len(cands), pts.shape[0])
    for k, cand in enumerate(cands):
        assert np.array_equal(rows[k], log_density(cand, pts))


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("n", LOGPDF_SIZES)
def test_log_densities_rows_equal_log_density_gaussians(d, n):
    rng = np.random.default_rng(10 * d + n)
    cands = [_random_gaussian(rng, d) for _ in range(4)]
    _assert_rows_match(cands, 3.0 * rng.standard_normal((n, d)))


@pytest.mark.parametrize("n", LOGPDF_SIZES)
def test_log_densities_rows_equal_log_density_mixtures(n):
    rng = np.random.default_rng(n)
    comps = [_random_gaussian(rng, 2) for _ in range(9)]
    cands = [
        Mixture([0.2, 0.3, 0.5], comps[0:3]),
        Mixture([0.0, 0.6, 0.4], comps[3:6]),  # zero-weight component
        Mixture([1.0, 0.0], comps[6:8]),
        Mixture([0.25, 0.75], [comps[8], comps[0]]),
    ]
    _assert_rows_match(cands, 3.0 * rng.standard_normal((n, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, _kernels.LOGPDF_TILE_CELLS + 1])
def test_log_densities_rows_equal_log_density_mixed_list(n):
    rng = np.random.default_rng(n)
    g = [_random_gaussian(rng, 2) for _ in range(5)]
    cands = [g[0], Mixture([0.5, 0.5], g[1:3]), g[3],
             Mixture([0.0, 1.0, 0.0], g[2:5]), g[4]]
    _assert_rows_match(cands, 3.0 * rng.standard_normal((n, 2)))


def _prepared_list(rng, kind):
    """45 2-D distributions: Gaussians, mixtures of 1, 2 and 3 components
    (some with a zero weight, so the batch pads them with ``-inf``), or
    both interleaved.  45 is no multiple of the kernel's row block on 1000
    points (32 Gaussians, 10 three-component mixtures)."""
    out = []
    for i in range(45):
        if kind == "gaussians" or kind == "mixed" and i % 2:
            out.append(_random_gaussian(rng, 2))
            continue
        k = 1 + i % 3
        weights = rng.random(k) + 0.1
        if k > 1 and i % 4 == 0:
            weights[-1] = 0.0
        out.append(Mixture(weights / weights.sum(),
                           [_random_gaussian(rng, 2) for _ in range(k)]))
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("kind", ["gaussians", "mixtures", "mixed"])
@pytest.mark.parametrize("n", [1000, _kernels.LOGPDF_TILE_CELLS + 37])
def test_prepared_batches_equal_log_density_bitwise(kind, n):
    # n past the tile size leaves a partial tile of points; on 1000 points
    # the last row block is partial
    rng = np.random.default_rng(n + len(kind))
    cands = _prepared_list(rng, kind)
    pts = 3.0 * rng.standard_normal((n, 2))
    want = np.stack([log_density(c, pts) for c in cands])
    rows = evaluate_log_densities(prepare_log_densities(cands), pts)
    assert np.array_equal(_bits(rows), _bits(want))
    # a batch of a tail of the list, as a grid_1d unit gets
    tail = evaluate_log_densities(prepare_log_densities(cands[17:]), pts)
    assert np.array_equal(_bits(tail), _bits(want[17:]))


def test_log_densities_keeps_the_old_mixture_formula():
    # rows equal log_w + component log densities combined by log-sum-exp,
    # with zero-weight components dropped
    rng = np.random.default_rng(8)
    comps = [_random_gaussian(rng, 2) for _ in range(3)]
    mix = Mixture([0.3, 0.0, 0.7], comps)
    pts = rng.standard_normal((50, 2))
    comp = np.stack([np.log(w) + log_density(c, pts)
                     for w, c in zip(mix.weights, comps) if w > 0.0])
    top = comp.max(axis=0)
    want = top + np.log(np.sum(np.exp(comp - top), axis=0))
    assert np.array_equal(log_densities([mix], pts)[0], want)


def test_log_densities_empty_and_single_point():
    rng = np.random.default_rng(9)
    cands = [_random_gaussian(rng, 3) for _ in range(4)]
    cands.append(Mixture([0.5, 0.5], cands[:2]))
    empty = np.empty((0, 3))
    assert log_densities(cands, empty).shape == (5, 0)
    for cand in cands:
        out = log_density(cand, empty)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        x = rng.standard_normal(3)
        one = log_density(cand, x)
        assert isinstance(one, float)
        assert one == log_density(cand, x[None, :])[0]
    assert log_densities(cands, x).shape == (5, 1)


def test_log_densities_rejects_bad_input():
    g1 = Gaussian([0.0], [[1.0]])
    g2 = Gaussian([0.0, 0.0], np.eye(2))
    with pytest.raises(ValidationError):
        log_densities([], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        log_densities([g1, g2], [[0.0]])
    with pytest.raises(DimensionMismatchError):
        log_densities([g2], [[0.0]])
    with pytest.raises(ValidationError):
        log_densities([g1, "not a distribution"], [[0.0]])
