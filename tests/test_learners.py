"""Selection tournament, the compression reduction, and direct learners."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from compresslearn import (Gaussian, LabeledSample, Mixture,
                           ValidationError, compression_sample_size,
                           efficient_sample_size, holdout_size,
                           learn_from_compression, learn_gaussian_efficient,
                           log_density, sample, select_candidate, tv_1d)
from compresslearn.compression import (CompressionMessage, Codec, SCHEME_G1D,
                                       PayloadLayout, compose_mixture,
                                       g1d_codec, gd_codec)
from compresslearn.learners import (TOURNAMENT_PAIR_BYTES, _boost_rounds,
                                    _check_tournament_memory,
                                    _closed_form_1d, _mem_available)

from helpers import encode_with_retries


def toy_codec() -> Codec:
    """One reference, one bit: mean from the point, sd 1.0 or 2.0."""

    def decode_rows(refs, digits, points, eps):
        sd = np.where(digits[:, 0] == 1, 2.0, 1.0)
        return (None, points[refs[:, 0]], (sd * sd)[:, None, None],
                np.ones(len(refs), dtype=bool))

    def encode(target, samp, eps):
        raise NotImplementedError("enumeration-only test codec")

    return Codec.from_layout("toy", SCHEME_G1D, encode, decode_rows,
                             lambda eps: PayloadLayout([2], [1]), dim=1,
                             tau=lambda eps: 1, m_samples=lambda eps: 1,
                             robustness=0.0)


def test_holdout_size_formula():
    assert holdout_size(20, 0.1, 0.2) \
        == math.ceil(math.log(3 * 400 / 0.2) / (2 * 0.01))
    assert holdout_size(20, 0.1, 0.2) == 435
    with pytest.raises(ValidationError):
        holdout_size(0, 0.1, 0.2)


def test_holdout_size_squares_numpy_integers_exactly():
    """A numpy integer count squares as a Python int, not in wrapping
    int64, here and through ``compression_sample_size``."""
    assert holdout_size(np.int64(10 ** 10), 0.0125, 0.05) \
        == holdout_size(10 ** 10, 0.0125, 0.05) == 160468
    codec = g1d_codec()
    assert compression_sample_size(codec, 0.2, 0.1, np.int64(5 * 10 ** 9)) \
        == compression_sample_size(codec, 0.2, 0.1, 5 * 10 ** 9) == 156041


def test_boost_rounds():
    assert _boost_rounds(0.2) == math.ceil(math.log(10.0) / math.log(3.0))
    assert _boost_rounds(2.0 / 3.0) == 1


def test_select_candidate_rejects_empty_and_mixed_dimensions():
    g = Gaussian([0.0], [[1.0]])
    holdout = sample(g, 10, 60)
    assert select_candidate((g, g), holdout, 0.1).index == 0
    with pytest.raises(ValidationError, match="nonempty"):
        select_candidate((), holdout, 0.1)
    with pytest.raises(ValidationError, match="one dimension"):
        select_candidate((g, Gaussian([0.0, 0.0], np.eye(2))), holdout, 0.1)


def test_select_candidate_rejects_non_finite_holdout():
    """A NaN holdout point would make the closed-form counts disagree
    with the stored comparison (p_hat 0.2, 0.8, 0.8 against 0.2, 0.6,
    0.6 here), so selection refuses it."""
    cands = [Gaussian([0.0], [[1.0]]), Gaussian([0.5], [[2.0]]),
             Gaussian([-1.0], [[0.5]])]
    for bad in (np.nan, np.inf):
        holdout = LabeledSample(np.array([[0.1], [1.0], [-2.0], [bad],
                                          [3.0]]))
        with pytest.raises(ValidationError, match="finite"):
            select_candidate(cands, holdout, 0.1)


def test_select_candidate_closed_form_picks_planted_best():
    target = Gaussian([0.0], [[1.0]])
    cands = [Gaussian([3.0], [[1.0]]), Gaussian([0.05], [[1.05]]),
             Gaussian([-4.0], [[0.3]])]
    rng = np.random.default_rng(61)
    holdout = sample(target, 2000, rng)
    res = select_candidate(cands, holdout, 0.1, seed=1)
    assert res.strategy == "closed_form_1d"
    assert res.index == 1
    assert res.n_holdout == 2000


def test_select_candidate_grid_strategy_with_mixture():
    target = Mixture([0.5, 0.5], [Gaussian([-3.0], [[1.0]]),
                                  Gaussian([3.0], [[1.0]])])
    cands = [target, Gaussian([0.0], [[9.0]]), Gaussian([-3.0], [[1.0]])]
    rng = np.random.default_rng(62)
    holdout = sample(target, 3000, rng)
    res = select_candidate(cands, holdout, 0.1, seed=2)
    assert res.strategy == "grid_1d"
    assert res.index == 0


def test_select_candidate_mc_pools_multidim():
    target = Gaussian([0.0, 0.0], np.eye(2))
    cands = [Gaussian([2.0, 2.0], np.eye(2)),
             Gaussian([0.1, 0.0], np.eye(2)),
             Gaussian([0.0, 0.0], 4.0 * np.eye(2))]
    rng = np.random.default_rng(63)
    holdout = sample(target, 4000, rng)
    res = select_candidate(cands, holdout, 0.1, seed=3)
    assert res.strategy == "mc_pools"
    assert res.index == 1


def test_select_candidate_is_permutation_covariant():
    target = Gaussian([0.0, 0.0], np.eye(2))
    cands = [Gaussian([1.5, 0.0], np.eye(2)),
             Gaussian([0.2, -0.1], np.eye(2)),
             Gaussian([0.0, 0.0], 3.0 * np.eye(2)),
             Gaussian([-2.0, 1.0], 0.5 * np.eye(2))]
    rng = np.random.default_rng(64)
    holdout = sample(target, 3000, rng)
    perm = [2, 0, 3, 1]
    res_a = select_candidate(cands, holdout, 0.1, seed=9)
    res_b = select_candidate([cands[i] for i in perm], holdout, 0.1, seed=9)
    # same winner identity regardless of candidate order
    assert perm[res_b.index] == res_a.index


def test_select_candidate_tournament_wins_shape():
    target = Gaussian([0.0], [[1.0]])
    cands = [Gaussian([float(i)], [[1.0]]) for i in range(4)]
    holdout = sample(target, 1500, 65)
    res = select_candidate(cands, holdout, 0.1, seed=4)
    assert res.index == 0
    assert len(res.scheffe_wins) == 4
    assert max(res.scheffe_wins) == res.scheffe_wins[0]


def _all_pairs_fractions(cands, points):
    """Reference: strict comparison of the stored holdout log densities."""
    ld = np.stack([log_density(c, points) for c in cands])
    i_idx, j_idx = np.triu_indices(len(cands), 1)
    return np.array([(ld[i] > ld[j]).mean() for i, j in zip(i_idx, j_idx)])


def _reference_region(gi, gj):
    """Scalar region intervals of ``{f_i > f_j}`` for 1-D Gaussians, as
    offsets from the returned ``base``: ``(intervals, base)``."""
    mi, si2 = float(gi.mean[0]), float(gi.cov[0, 0])
    mj, sj2 = float(gj.mean[0]), float(gj.cov[0, 0])
    inf = math.inf
    a = 0.5 / sj2 - 0.5 / si2
    b = mi / si2 - mj / sj2
    log_ratio = float(np.log(sj2 / si2))
    c = mj * mj / (2.0 * sj2) - mi * mi / (2.0 * si2) + 0.5 * log_ratio
    if a == 0.0:
        if b == 0.0:
            return ([(-inf, inf)] if c > 0.0 else []), 0.0
        root = -c / b
        return ([(root, inf)] if b > 0.0 else [(-inf, root)]), 0.0
    # the closed-form discriminant, and roots offset from the narrower mean
    d = mi - mj
    disc = (d * d + (sj2 - si2) * log_ratio) / si2 / sj2
    base = mi if si2 < sj2 else mj
    if disc <= 0.0:
        return ([(-inf, inf)] if a > 0.0 else []), base
    sq = math.sqrt(disc)
    b_off = d / max(si2, sj2)
    r1, r2 = sorted(((-b_off - sq) / (2.0 * a), (-b_off + sq) / (2.0 * a)))
    if a > 0.0:
        return [(-inf, r1), (r2, inf)], base
    return [(r1, r2)], base


def _reference_mass(g, intervals, base):
    mu = float(g.mean[0]) - base
    sd = math.sqrt(float(g.cov[0, 0]))
    total = 0.0
    for lo, hi in intervals:
        total += float(ndtr((hi - mu) / sd)) - float(ndtr((lo - mu) / sd))
    return min(1.0, max(0.0, total))


def _reference_select(cands, points):
    """The per-pair closed-form tournament over all-pairs fractions.

    Returns the winner, the win vector and both region masses per pair.
    """
    emp = _all_pairs_fractions(cands, points)
    wins = np.zeros(len(cands), dtype=np.int64)
    masses = []
    for k, (i, j) in enumerate(zip(*np.triu_indices(len(cands), 1))):
        region = _reference_region(cands[i], cands[j])
        p_i = _reference_mass(cands[i], *region)
        p_j = _reference_mass(cands[j], *region)
        masses.append((p_i, p_j))
        if abs(p_i - emp[k]) <= abs(p_j - emp[k]):
            wins[i] += 1
        else:
            wins[j] += 1
    return int(np.argmax(wins)), wins, np.array(masses).T


def _root_points(cands):
    """Every computed region endpoint of every pair, with its neighbours."""
    out = []
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            intervals, base = _reference_region(cands[i], cands[j])
            for lo, hi in intervals:
                for r in (lo + base, hi + base):
                    if math.isfinite(r):
                        out += [r, np.nextafter(r, -math.inf),
                                np.nextafter(r, math.inf)]
    return np.array(out)


def _adversarial_sets():
    rng = np.random.default_rng(72)
    noise = rng.normal(0.3, 2.0, 300)
    v = 1.7
    up = np.nextafter(v, math.inf)
    sets = {
        "identical": [Gaussian([0.3], [[v]])] * 3
        + [Gaussian([-1.0], [[0.4]]), Gaussian([0.3], [[v]])],
        "equal variances": [Gaussian([m], [[v]])
                            for m in (-1.0, 0.0, 0.3, 1.0, 2.5)],
        "equal means": [Gaussian([0.3], [[s]])
                        for s in (0.5, 1.0, v, 4.0, 9.0)],
        "far root": [Gaussian([0.3], [[v]]),
                     Gaussian([0.3 + 1e-3], [[v * (1.0 + 1e-12)]]),
                     Gaussian([-0.2], [[v * (1.0 - 3e-12)]]),
                     Gaussian([0.3], [[v * (1.0 + 1e-12)]])],
        "tangent": [Gaussian([0.3], [[v]]), Gaussian([0.3], [[up]]),
                    Gaussian([np.nextafter(0.3, 1.0)], [[v]]),
                    Gaussian([np.nextafter(0.3, 1.0)], [[up]]),
                    Gaussian([0.3], [[np.nextafter(up, math.inf)]])],
    }
    # same mean, variances some 100 ulps apart: the stored comparison is
    # rounding noise around the means, and the roots are inaccurate
    ulp_pairs = [(5.157795100673128, 0.09713064544942822, 0.09713064544943001),
                 (-4.197809853535682, 0.011757967823916847,
                  0.011757967823921463)]
    sets["ulp variances"] = [Gaussian([m], [[s]]) for m, s1, s2 in ulp_pairs
                             for s in (s1, s2)]
    noise = np.concatenate([noise] + [rng.normal(m, math.sqrt(s1), 300)
                                      for m, s1, _ in ulp_pairs])
    sets["mixed"] = [Gaussian([m], [[s]]) for m, s in
                     zip(rng.normal(0.0, 1.5, 12),
                         rng.choice([0.5, 1.0, 2.25], 12))]
    # integers are exact midpoints of the equal-variance pairs
    return {name: (cands, np.concatenate((noise, np.arange(-3.0, 4.0),
                                          _root_points(cands)))[:, None])
            for name, cands in sets.items()}


@pytest.mark.parametrize("name", ["identical", "equal variances",
                                  "equal means", "far root", "tangent",
                                  "ulp variances", "mixed"])
def test_closed_form_fractions_match_all_pairs_exactly(name):
    cands, points = _adversarial_sets()[name]
    i_idx, j_idx = np.triu_indices(len(cands), 1)
    p_hat, _, _ = _closed_form_1d(cands, points, i_idx, j_idx)
    np.testing.assert_array_equal(p_hat, _all_pairs_fractions(cands, points))


@pytest.mark.parametrize("v", [1e-2, 1e-6, 1e-20, 1e-100, 1e-160])
@pytest.mark.parametrize("narrow_first", [True, False])
def test_closed_form_masses_for_extreme_variance_ratios(v, narrow_first):
    # {f_i > f_j} is an interval of N(1, v) around 1 and, for the other
    # order, its complement.  From 1e-20 down, b*b - 4ac cancels to noise
    # (and overflows at 1e-160), the interval spans 7 or more sds, and
    # p_i is about 1 and p_j about 0
    cands = [Gaussian([1.0], [[v]]), Gaussian([0.0], [[1.0]])]
    if not narrow_first:
        cands.reverse()
    rng = np.random.default_rng(75)
    points = np.concatenate((rng.normal(0.0, 1.0, 200), [1.0],
                             np.nextafter(1.0, [0.0, 2.0])))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_hat, p_i, p_j = _closed_form_1d(cands, points, np.array([0]),
                                          np.array([1]))
    region = _reference_region(*cands)
    np.testing.assert_array_equal(
        (p_i[0], p_j[0]), [_reference_mass(g, *region) for g in cands])
    if v <= 1e-20:
        assert p_i[0] > 1.0 - 1e-9
        assert p_j[0] < 1e-9
    else:
        assert p_i[0] > 0.85 and p_j[0] < 0.15
    np.testing.assert_array_equal(p_hat, _all_pairs_fractions(cands, points))


@pytest.mark.parametrize("seed", [73, 74])
def test_closed_form_selection_matches_per_pair_reference(seed):
    rng = np.random.default_rng(seed)
    target = Gaussian([1.5], [[4.0]])
    # half on a shared grid of means and scales, as decoded codec
    # candidates are, and half off it
    on_grid = rng.random(200) < 0.5
    means = rng.normal(1.5, 2.0, 200)
    means = np.where(on_grid, np.round(means, 1), means)
    scales = np.where(on_grid, rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], 200),
                      10.0 ** rng.uniform(-0.3, 0.5, 200))
    cands = [Gaussian([m], [[s * s]]) for m, s in zip(means, scales)]
    holdout = sample(target, 1500, rng)
    res = select_candidate(cands, holdout, 0.1, seed=5)
    index, wins, masses = _reference_select(cands, holdout.points)
    assert res.strategy == "closed_form_1d"
    assert res.index == index
    np.testing.assert_array_equal(res.scheffe_wins, wins)
    _, p_i, p_j = _closed_form_1d(cands, holdout.points,
                                  *np.triu_indices(len(cands), 1))
    np.testing.assert_array_equal(np.stack((p_i, p_j)), masses)


# a child's own peak RSS in KiB: VmHWM belongs to the address space the
# child runs in, while its ru_maxrss starts at the RSS of the test process
# that forked it, which exec keeps
CHILD_PEAK = textwrap.dedent("""
    import resource
    def peak_kib():
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
""")

README_EXAMPLE = textwrap.dedent("""
    import json, resource
    # a regression fails fast with MemoryError instead of swapping the host
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    import numpy as np
    import compresslearn as cl

    target = cl.Gaussian([1.5], [[4.0]])
    codec = cl.codec_for("g1d", target)
    eps, delta, budget = 0.2, 0.1, 2000

    rng = np.random.default_rng(7)
    n = cl.compression_sample_size(codec, eps, delta, budget)
    samp = cl.sample(target, n, rng)
    result = cl.learn_from_compression(codec, samp, eps, delta, budget, rng)
    print(json.dumps({
        "tv": cl.tv_1d(target, result.estimate).value,
        "strategy": result.selection.strategy,
        "peak_kib": peak_kib()}))
""")

MIXTURE_2D_EXAMPLE = textwrap.dedent("""
    import json, resource
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    import numpy as np
    import compresslearn as cl

    target = cl.Mixture([0.5, 0.5], [
        cl.Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        cl.Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])
    codec = cl.codec_for("mixture", target)
    eps, delta, budget = 0.3, 0.1, 60

    rng = np.random.default_rng(7)
    n = cl.compression_sample_size(codec, eps, delta, budget)
    samp = cl.sample(target, n, rng)
    result = cl.learn_from_compression(codec, samp, eps, delta, budget, rng)
    print(json.dumps({
        "n": n, "candidates": result.candidate_count,
        "peak_kib": peak_kib()}))
""")


def _run_child(code: str) -> dict:
    """Run ``code`` after ``CHILD_PEAK`` in a fresh interpreter on this
    checkout's ``src``; return the JSON record it prints last."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", CHILD_PEAK + code],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_readme_example_runs_within_memory():
    rec = _run_child(README_EXAMPLE)
    assert rec["strategy"] == "closed_form_1d"
    assert rec["tv"] <= 0.1
    assert rec["peak_kib"] < 1024 * 1024


def test_mixture_2d_readme_flow_peaks_near_its_sample():
    """The README flow on a 2-D mixture draws 3.9M points (94 MB with
    labels); the whole learn stays under 170 MB (209 MB when ``sample``
    held a second copy of a component's rows)."""
    rec = _run_child(MIXTURE_2D_EXAMPLE)
    assert rec["n"] > 3_000_000
    assert rec["candidates"] > 0
    assert rec["peak_kib"] < 170 * 1024


def test_tournament_memory_guard_passes_m_300_on_the_real_probe():
    avail = _mem_available()
    assert avail is None or avail > 0
    for strategy in TOURNAMENT_PAIR_BYTES:
        _check_tournament_memory(300, strategy)
    cands = [Gaussian([mu], [[1.0]]) for mu in np.linspace(-1.0, 1.0, 300)]
    res = select_candidate(cands, sample(Gaussian([0.0], [[1.0]]), 500, 3),
                           0.2)
    assert res.scheffe_wins.shape == (300,)


def test_tournament_memory_guard_names_m_and_both_sizes(monkeypatch):
    monkeypatch.setattr("compresslearn.learners._mem_available",
                        lambda: 1 << 20)
    # 4950 pairs at 400 bytes plus an 80 KB prob_own
    with pytest.raises(ValidationError,
                       match=r"over m=100 candidates needs about 2 MiB, "
                             r"more than the 1 MiB available"):
        _check_tournament_memory(100, "mc_pools")
    _check_tournament_memory(50, "mc_pools")
    monkeypatch.setattr("compresslearn.learners._mem_available", lambda: None)
    _check_tournament_memory(10 ** 6, "grid_1d")


def test_learn_from_compression_exhaustive_space():
    codec = toy_codec()
    target = Gaussian([2.0], [[1.0]])
    eps, delta = 0.2, 0.2
    budget = 50
    n = compression_sample_size(codec, eps, delta, budget)
    samp = sample(target, n, 66)
    res = learn_from_compression(codec, samp, eps, delta, budget, 7)
    n_enc = _boost_rounds(delta)  # m_samples == 1 per round
    assert res.candidate_space == n_enc * 2
    assert not res.budget_capped
    assert res.candidate_count == n_enc * 2
    assert abs(float(res.estimate.mean[0]) - 2.0) < 1.5


def test_learn_from_compression_budget_caps_sampling():
    codec = toy_codec()
    target = Gaussian([0.0], [[1.0]])
    eps, delta = 0.2, 0.2
    budget = 4
    n = compression_sample_size(codec, eps, delta, budget)
    samp = sample(target, n, 67)
    res = learn_from_compression(codec, samp, eps, delta, budget, 8)
    assert res.budget_capped
    assert res.candidate_count <= budget


def test_learn_from_compression_extras_count_against_budget():
    codec = toy_codec()
    target = Gaussian([0.0], [[1.0]])
    eps, delta = 0.2, 0.2
    extra = CompressionMessage(SCHEME_G1D, np.array([0]),
                               np.array([0], dtype=np.uint8))
    n = compression_sample_size(codec, eps, delta, 1)
    samp = sample(target, n, 68)
    res = learn_from_compression(codec, samp, eps, delta, 1, 9,
                                 extra_messages=(extra,))
    assert res.candidate_count == 1
    assert float(res.estimate.mean[0]) == float(samp.points[0, 0])
    with pytest.raises(ValidationError):
        learn_from_compression(codec, samp, eps, delta, 0, 9,
                               extra_messages=(extra,))


def test_learn_drops_a_candidate_whose_variance_overflows():
    """A sampled g1d message whose ``sigma_hat * sigma_hat`` overflows is
    one more message that does not decode, not the end of the learn."""
    samp = sample(Gaussian([0.0], [[1e307]]), 200000, 1)
    res = learn_from_compression(g1d_codec(), samp, 0.3, 0.3, 20, 2)
    assert 1 <= res.candidate_count < 20
    assert np.all(np.isfinite(res.estimate.cov))


def test_learn_fails_when_no_message_decodes():
    # every point is 0.0, so each g1d message decodes to a zero scale
    codec = g1d_codec()
    eps, delta, budget = 0.3, 0.3, 20
    n = compression_sample_size(codec, eps, delta, budget)
    with pytest.raises(ValidationError, match="no candidate message decoded "
                       "to a distribution"):
        learn_from_compression(codec, LabeledSample(np.zeros((n, 1))), eps,
                               delta, budget, 3)


@pytest.mark.parametrize("eps, delta, budget", [
    (0.3, 0.0, 10), (0.0, 0.3, 10), (1.5, 0.3, 10), (0.3, 1.0, 10),
    (0.3, 0.3, 0)])
def test_sample_size_and_learner_share_one_argument_check(eps, delta, budget):
    codec = toy_codec()
    with pytest.raises(ValidationError) as sized:
        compression_sample_size(codec, eps, delta, budget)
    samp = sample(Gaussian([0.0], [[1.0]]), 10, 71)
    with pytest.raises(ValidationError) as learned:
        learn_from_compression(codec, samp, eps, delta, budget, 12)
    assert str(sized.value) == str(learned.value)


def test_learn_from_compression_checks_sample_before_messages():
    def no_payloads(*args):
        raise AssertionError("messages generated before the sample check")

    codec = dataclasses.replace(g1d_codec(), random_payload=no_payloads,
                                layout=no_payloads)
    eps, delta, budget = 0.2, 0.2, 10
    n_enc = codec.m_samples(eps / 6.0) * _boost_rounds(delta)
    samp = sample(Gaussian([0.0], [[1.0]]), n_enc - 1, 70)
    with pytest.raises(ValidationError, match="encoding points"):
        learn_from_compression(codec, samp, eps, delta, budget, 11)


@pytest.mark.parametrize("codec, target", [
    (g1d_codec(), Gaussian([1.0], [[0.25]])),
    (compose_mixture(gd_codec(1), 2),
     Mixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]),
                          Gaussian([6.0], [[1.0]])])),
], ids=["g1d", "mixture"])
def test_learn_from_compression_with_real_scheme(codec, target):
    eps, delta, budget = 0.2, 0.2, 48
    n = compression_sample_size(codec, eps, delta, budget)
    samp = sample(target, n, 69)
    oracle = encode_with_retries(codec, target, samp, eps / 6.0)
    assert oracle is not None
    res = learn_from_compression(codec, samp, eps, delta, budget, 10,
                                 extra_messages=(oracle,))
    assert res.selection.n_holdout == holdout_size(res.candidate_count,
                                                   eps / 16.0, delta / 2.0)
    assert tv_1d(target, res.estimate).value <= eps


def test_efficient_sample_size_formula():
    d, eps, delta, c = 5, 0.25, 0.1, 8.0
    expected = 2 * math.ceil(c * (d * d + d * math.log(1.0 / delta))
                             / eps ** 2)
    assert efficient_sample_size(d, eps, delta) == expected


def test_learn_gaussian_efficient_exact_arithmetic():
    pts = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    est = learn_gaussian_efficient(LabeledSample(pts))
    assert float(est.mean[0]) == 0.0
    assert float(est.cov[0, 0]) == 2.0


def test_learn_gaussian_efficient_validation():
    with pytest.raises(ValidationError):
        learn_gaussian_efficient(LabeledSample(np.zeros((5, 2))))  # odd n
    with pytest.raises(ValidationError):
        learn_gaussian_efficient(LabeledSample(np.zeros((4, 2))))  # n < 2(d+1)


def test_learn_gaussian_efficient_accuracy():
    rng = np.random.default_rng(70)
    d = 2
    target = Gaussian([1.0, -2.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
    n = efficient_sample_size(d, 0.2, 0.1)
    est = learn_gaussian_efficient(sample(target, n, rng))
    np.testing.assert_allclose(est.mean, target.mean, atol=0.3)
    np.testing.assert_allclose(est.cov, target.cov, atol=0.5)
