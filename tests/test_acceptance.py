"""Full-scale acceptance checks for the library's statistical guarantees.

Each test exercises one end-to-end contract at its stated scale: divergence
identities on random pairs, analytic pair fixtures, scheme round-trip rates,
robustness under contamination, hull coverage, whitened error chains,
combinator size accounting, tournament selection, moment-learner risk,
lower-bound family invariants, codebook verification, and harness
determinism.  Tests print the measured statistic next to its floor so a
failure shows the margin immediately.
"""

import json
import math
import time

import numpy as np

import compresslearn as cl
from compresslearn.cli import compresslearn_main
from compresslearn.compression import (compose_mixture, compose_product,
                                       g1d_codec, g1d_robust_codec, gd_codec,
                                       weight_grid_points)
from compresslearn.compression.gd import _gd_params
from compresslearn.lowerbound import cross_bound, violating_pairs

from helpers import spd_with_condition


def _kl_eigen_route(p: cl.Gaussian, q: cl.Gaussian) -> float:
    """KL via whitening with q's eigendecomposition (no shared code path)."""
    vals, vecs = np.linalg.eigh(q.cov)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    a = inv_sqrt @ p.cov @ inv_sqrt
    w = np.linalg.eigvalsh(a)
    dm = inv_sqrt @ (p.mean - q.mean)
    return 0.5 * (float(w.sum()) - p.dim + float(dm @ dm)
                  - float(np.log(w).sum()))


def _kl_solve_route(p: cl.Gaussian, q: cl.Gaussian) -> float:
    """KL via linear solves and slogdet."""
    m = np.linalg.solve(q.cov, p.cov)
    dm = p.mean - q.mean
    quad = float(dm @ np.linalg.solve(q.cov, dm))
    ld_p = np.linalg.slogdet(p.cov)[1]
    ld_q = np.linalg.slogdet(q.cov)[1]
    return 0.5 * (float(np.trace(m)) - p.dim + quad + ld_q - ld_p)


def _random_gaussian(d: int, rng: np.random.Generator) -> cl.Gaussian:
    cond = 10.0 ** rng.uniform(0.0, 2.0)
    cov = spd_with_condition(d, cond, rng)
    mean = rng.normal(0.0, 2.0, size=d)
    return cl.Gaussian(mean, cov)


def test_divergence_identities_on_500_random_pairs():
    """Two independent KL routes, Pinsker, and the TV upper bound, d <= 5."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    n_pairs = 500
    worst_route_gap = 0.0
    worst_identity_gap = 0.0
    for i in range(n_pairs):
        d = 1 + i % 5
        p = _random_gaussian(d, rng)
        q = _random_gaussian(d, rng)
        kl = cl.kl_gaussians(p, q)
        k_eig = _kl_eigen_route(p, q)
        k_sol = _kl_solve_route(p, q)
        worst_route_gap = max(worst_route_gap, abs(k_eig - k_sol),
                              abs(kl - k_eig), abs(kl - k_sol))
        assert abs(k_eig - k_sol) <= 1e-9
        assert abs(kl - k_eig) <= 1e-9

        if d == 1:
            est = cl.tv_1d(p, q)
        else:
            est = cl.tv_mc(p, q, n_mc=20000, seed=i)
        tv_lo = max(est.value - 3.0 * est.std_error, 0.0)
        assert 2.0 * tv_lo * tv_lo <= kl + 1e-9
        assert cl.pinsker_check(p, q, n_mc=20000, seed=i)

        dm = p.mean - q.mean
        ld = cl.logdet_divergence(p.cov, q.cov)
        quad = float(dm @ np.linalg.solve(q.cov, dm))
        identity_gap = abs(kl - 0.5 * (ld + quad))
        worst_identity_gap = max(worst_identity_gap, identity_gap)
        assert identity_gap <= 1e-9
        assert tv_lo * tv_lo <= 0.25 * (ld + quad) + 1e-9
    elapsed = time.monotonic() - start
    print(f"pairs={n_pairs} worst_route_gap={worst_route_gap:.3e} "
          f"worst_identity_gap={worst_identity_gap:.3e} "
          f"elapsed={elapsed:.1f}s (cap 120s)")
    assert elapsed < 120.0


def test_singular_and_correlated_pair_fixtures():
    """Analytic fixtures: singular pair gives (inf, 1); correlated pair
    gives KL = -log(1 - eps^2)/2 and TV at most eps."""
    eps = 0.3
    cov_p = np.array([[1.0, -(1.0 - eps)], [-(1.0 - eps), 1.0]])
    cov_q = np.array([[1.0, -1.0], [-1.0, 1.0]])
    kl, tv = cl.degenerate_pair_divergences(cov_p, cov_q)
    assert math.isinf(kl)
    assert tv == 1.0

    p = cl.Gaussian([0.0, 0.0], [[1.0, eps], [eps, 1.0]])
    q = cl.Gaussian([0.0, 0.0], np.eye(2))
    kl2 = cl.kl_gaussians(p, q)
    want = -math.log(1.0 - eps * eps) / 2.0
    assert abs(kl2 - want) <= 1e-12
    est = cl.tv_mc(p, q, n_mc=200000, seed=1)
    print(f"singular=(inf,1) correlated_kl={kl2!r} want={want!r} "
          f"tv={est.value:.4f} cap={eps}+3se")
    assert est.value <= eps + 3.0 * est.std_error


def test_scalar_scheme_success_rate_across_scales():
    """Single-Gaussian 1-D round trip: encode-and-recover rate at least
    0.90 at eps in {0.1, 0.2} over scales sigma in [1e-3, 1e3]."""
    start = time.monotonic()
    codec = g1d_codec()
    trials = 2000
    rates = {}
    for eps in (0.1, 0.2):
        rng = np.random.default_rng(3)
        m = codec.m_samples(eps)
        hits = 0
        for _ in range(trials):
            sigma = 10.0 ** rng.uniform(-3.0, 3.0)
            mu = rng.normal(0.0, 2.0 * sigma)
            target = cl.Gaussian([mu], [[sigma * sigma]])
            samp = cl.sample(target, m, rng)
            out = codec.encode(target, samp, eps)
            if out.ok:
                dec = codec.decode(out.message, samp.points, eps)
                if cl.tv_1d(target, dec).value <= eps:
                    hits += 1
        rates[eps] = hits / trials
    elapsed = time.monotonic() - start
    print(f"rates={rates} floor=0.90 trials={trials} "
          f"elapsed={elapsed:.1f}s (cap 180s)")
    for eps, rate in rates.items():
        assert rate >= 0.90, (eps, rate)
    assert elapsed < 180.0


def test_robust_scalar_scheme_under_contamination():
    """Robust 1-D scheme at eps = 0.2 under 0.3 total-variation
    contamination (point mass and far Gaussian): joint encode-success and
    TV-accuracy rate at least 2/3; message is 4 refs plus 1 bit."""
    eps = 0.2
    codec = g1d_robust_codec()
    m = codec.m_samples(eps)
    rng = np.random.default_rng(4)
    trials = 2000
    hits = 0
    for i in range(trials):
        sigma = 10.0 ** rng.uniform(-1.0, 1.0)
        mu = rng.normal(0.0, 3.0 * sigma)
        target = cl.Gaussian([mu], [[sigma * sigma]])
        pts = mu + sigma * rng.standard_normal((m, 1))
        junk = rng.random(m) < 0.3
        n_junk = int(junk.sum())
        if i % 2 == 0:
            pts[junk] = mu + 50.0 * sigma
        else:
            pts[junk] = (mu + 30.0 * sigma
                         + 5.0 * sigma * rng.standard_normal((n_junk, 1)))
        samp = cl.LabeledSample(pts)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        assert len(out.message.sample_refs) == 4
        assert len(out.message.bits) == 1
        dec = codec.decode(out.message, samp.points, eps)
        if cl.tv_1d(target, dec).value <= eps:
            hits += 1
    rate = hits / trials
    print(f"rate={rate} floor={2 / 3:.4f} trials={trials}")
    assert rate >= 2.0 / 3.0


def test_filtered_hull_contains_small_ball():
    """With a third of the points replaced by far junk and a 4*sqrt(d)
    norm filter, the hull of the survivors contains the 1/20 ball in at
    least 5/6 - 0.05 of 200 draws at d = 5."""
    start = time.monotonic()
    d = 5
    m = math.ceil(40.0 * d * (1.0 + math.log(d)))
    assert m == 522
    rng = np.random.default_rng(5)
    draws = 200
    hits = 0
    for _ in range(draws):
        pts = rng.standard_normal((m, d))
        junk = rng.random(m) < 1.0 / 3.0
        n_junk = int(junk.sum())
        pts[junk] = 20.0 + 30.0 * rng.standard_normal((n_junk, d))
        kept = pts[np.linalg.norm(pts, axis=1) <= 4.0 * math.sqrt(d)]
        ok, _ = cl.hull_contains_ball(kept, 1.0 / 20.0)
        hits += bool(ok)
    rate = hits / draws
    elapsed = time.monotonic() - start
    print(f"rate={rate} floor={5 / 6 - 0.05:.4f} draws={draws} "
          f"elapsed={elapsed:.1f}s (cap 300s)")
    assert rate >= 5.0 / 6.0 - 0.05
    assert elapsed < 300.0


def test_full_covariance_scheme_error_chain():
    """d = 3 scheme at eps = 0.2 over condition numbers up to 1e4: on
    every encoder success the whitened eigenvector errors stay below
    eps/(24 d^2), the whitened mean error below eps/2, and MC TV below
    eps + 3se; overall success rate at least 2/3."""
    d = 3
    eps = 0.2
    codec = gd_codec(d)
    rng = np.random.default_rng(6)
    trials = 300
    successes = 0
    worst_vec = 0.0
    worst_mean = 0.0
    vec_cap = eps / (24.0 * d * d)
    for i in range(trials):
        cond = 10.0 ** rng.uniform(0.0, 4.0)
        cov = spd_with_condition(d, cond, rng)
        mu = rng.normal(0.0, 2.0, size=d)
        target = cl.Gaussian(mu, cov)
        samp = cl.sample(target, codec.m_samples(eps), rng)
        out = codec.encode(target, samp, eps)
        if not out.ok:
            continue
        successes += 1
        est_g = codec.decode(out.message, samp.points, eps)
        pts, digits = codec.gate(out.message, samp.points, eps)
        scaled = _gd_params(out.message.sample_refs[None], digits[None], pts,
                            eps)[2][0]
        vals, vecs = np.linalg.eigh(cov)
        sqrt_cov = (vecs * np.sqrt(vals)) @ vecs.T
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        true_vecs = (sqrt_cov @ vecs).T
        for j in range(d):
            err = float(np.linalg.norm(
                inv_sqrt @ (scaled[j] - true_vecs[j])))
            worst_vec = max(worst_vec, err)
            assert err <= vec_cap, (i, j, err)
        mean_err = float(np.linalg.norm(
            inv_sqrt @ (np.asarray(est_g.mean) - mu)))
        worst_mean = max(worst_mean, mean_err)
        assert mean_err <= eps / 2.0, (i, mean_err)
        est = cl.tv_mc(target, est_g, n_mc=20000, seed=1000 + i)
        assert est.value <= eps + 3.0 * est.std_error, (i, est.value)
    rate = successes / trials
    print(f"success={rate} floor={2 / 3:.4f} worst_vec={worst_vec:.3e} "
          f"(cap {vec_cap:.3e}) worst_mean={worst_mean:.3e} (cap {eps / 2})")
    assert rate >= 2.0 / 3.0


def test_axis_and_mixture_combinator_roundtrips():
    """Axis-aligned product (d = 3) and two-component 1-D mixture codecs
    hit TV <= 0.3 in at least 2/3 of 1000 trials each, and their size
    accounting matches the composition formulas exactly."""
    eps = 0.3
    trials = 1000
    base = g1d_codec()

    d = 3
    prod = compose_product(base, d)
    sub = eps / d
    assert prod.tau(eps) == d * base.tau(sub)
    assert prod.layout(eps).n_bits == d * base.layout(sub).n_bits
    assert prod.m_samples(eps) \
        == math.ceil(math.log(3 * d) / math.log(3.0)) * base.m_samples(sub)
    assert prod.robustness == base.robustness

    rng = np.random.default_rng(7)
    prod_hits = 0
    for i in range(trials):
        sig = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
        mu = rng.normal(0.0, 2.0, size=d)
        target = cl.Gaussian(mu, np.diag(sig * sig))
        samp = cl.sample(target, prod.m_samples(eps), rng)
        out = prod.encode(target, samp, eps)
        if out.ok:
            dec = prod.decode(out.message, samp.points, eps)
            if cl.tv_mc(target, dec, n_mc=20000, seed=2000 + i).value <= eps:
                prod_hits += 1

    k = 2
    mix = compose_mixture(base, k)
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

    mix_hits = 0
    for _ in range(trials):
        mus = rng.normal(0.0, 4.0, size=k)
        sig = 10.0 ** rng.uniform(-0.5, 0.5, size=k)
        w = rng.dirichlet(np.ones(k))
        target = cl.Mixture(w, [cl.Gaussian([mus[j]], [[sig[j] * sig[j]]])
                                for j in range(k)])
        samp = cl.sample(target, mix.m_samples(eps), rng)
        out = mix.encode(target, samp, eps)
        if out.ok:
            dec = mix.decode(out.message, samp.points, eps)
            if cl.tv_1d(target, dec).value <= eps:
                mix_hits += 1
    print(f"product_rate={prod_hits / trials} mixture_rate={mix_hits / trials} "
          f"floor={2 / 3:.4f} trials={trials}")
    assert prod_hits / trials >= 2.0 / 3.0
    assert mix_hits / trials >= 2.0 / 3.0


def test_tournament_selection_guarantee():
    """Planted-candidate tournaments (M = 20, 1-D, eps = 0.1, delta = 0.2):
    the chosen candidate's L1 error is within 3*min + 4*eps of the best in
    at least 1 - delta of 500 trials, with the holdout sized by formula."""
    m_cands, eps, delta = 20, 0.1, 0.2
    n_hold = cl.holdout_size(m_cands, eps, delta)
    assert n_hold == 435
    rng = np.random.default_rng(8)
    trials = 500
    hits = 0
    for _ in range(trials):
        mu = rng.normal(0.0, 2.0)
        sigma = 10.0 ** rng.uniform(-0.5, 0.5)
        target = cl.Gaussian([mu], [[sigma * sigma]])
        cands = []
        l1s = np.empty(m_cands)
        for j in range(m_cands):
            cm = mu + sigma * rng.normal(0.0, 1.5)
            cs = sigma * 10.0 ** rng.uniform(-0.6, 0.6)
            cands.append(cl.Gaussian([cm], [[cs * cs]]))
            l1s[j] = 2.0 * cl.tv_1d(target, cands[-1]).value
        hold = cl.sample(target, n_hold, rng)
        res = cl.select_candidate(cands, hold, eps)
        assert res.n_holdout == n_hold
        if l1s[res.index] <= 3.0 * l1s.min() + 4.0 * eps:
            hits += 1
    rate = hits / trials
    print(f"rate={rate} floor={1 - delta} holdout={n_hold} trials={trials}")
    assert rate >= 1.0 - delta


def test_moment_learner_accuracy_and_rate():
    """Moment-based Gaussian learner: TV <= 0.25 in at least 90% of 200
    trials at d = 5 with the formula sample size, and the d = 3 log-log
    risk slope over n in {2^9 .. 2^15} sits in [-0.7, -0.3]."""
    d, eps, delta = 5, 0.25, 0.1
    n = cl.efficient_sample_size(d, eps, delta)
    assert n == 9348
    rng = np.random.default_rng(9)
    trials = 200
    hits = 0
    for i in range(trials):
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        mu = rng.normal(0.0, 2.0, size=d)
        target = cl.Gaussian(mu, cov)
        samp = cl.sample(target, n, rng)
        est = cl.learn_gaussian_efficient(samp)
        if cl.tv_mc(target, est, n_mc=20000, seed=3000 + i).value <= eps:
            hits += 1
    rate = hits / trials

    d = 3
    grid = [2 ** j for j in range(9, 16)]
    rng = np.random.default_rng(10)
    risks = []
    for n_j in grid:
        tvs = []
        for i in range(30):
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.5 * np.eye(d)
            mu = rng.normal(0.0, 1.0, size=d)
            target = cl.Gaussian(mu, cov)
            samp = cl.sample(target, n_j, rng)
            est = cl.learn_gaussian_efficient(samp)
            tvs.append(cl.tv_mc(target, est, n_mc=8000, seed=i).value)
        risks.append(float(np.mean(tvs)))
    slope = float(np.polyfit(np.log(grid), np.log(risks), 1)[0])
    print(f"rate={rate} floor=0.90 slope={slope:.3f} window=[-0.7,-0.3]")
    assert rate >= 0.90
    assert -0.7 <= slope <= -0.3


def test_covariance_family_pairwise_invariants():
    """Bumped-subspace covariance family at d = 18, r = 9, 32 members:
    cross-gram, KL, and Frobenius separation bounds hold on every pair,
    and each member's inverse and spectrum are exact to 1e-9."""
    start = time.monotonic()
    d, r, m_family, eps = 18, 9, 32, 0.25
    fam = cl.make_lb_family(d, r, eps, m_family, 0)
    assert fam.size == m_family
    lam = fam.lam
    assert violating_pairs(fam.us, cross_bound(d, r)) == []

    kl_cap = lam * lam * d / (2.0 * (1.0 + lam) * r)
    tv_floor = lam * math.sqrt(d / r) / 2.0
    cols = d // r
    want_spectrum = np.concatenate([np.ones(d - cols),
                                    np.full(cols, 1.0 + lam)])
    worst_gap = 0.0
    for a in range(m_family):
        inv = fam.sigma_inv(a)
        assert np.abs(inv @ fam.sigmas[a] - np.eye(d)).max() <= 1e-9
        spectrum = np.sort(np.linalg.eigvalsh(fam.sigmas[a]))
        assert np.abs(spectrum - want_spectrum).max() <= 1e-9
        for b in range(m_family):
            if a == b:
                continue
            kl = cl.kl_pair(fam, a, b)
            gap = abs(kl - cl.kl_gaussians(fam.gaussian(a), fam.gaussian(b)))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-9
            assert kl <= kl_cap
            assert cl.tv_pair_lower(fam, a, b) >= tv_floor
    elapsed = time.monotonic() - start
    print(f"members={m_family} worst_kl_gap={worst_gap:.3e} "
          f"kl_cap={kl_cap:.3e} tv_floor={tv_floor:.3e} "
          f"elapsed={elapsed:.1f}s (cap 120s)")
    assert elapsed < 120.0


def test_codebook_and_mixture_family_separation():
    """Quaternary length-8 codebook reaches 16+ words at verified min
    distance 2; mixture-family components keep all but eps^2/k^2 of their
    mass inside the half-separation ball (MC with 3se slack)."""
    book = cl.make_codebook(4, 8, 0)
    assert book.size >= 16
    assert book.min_distance >= 2
    assert cl.verify_codebook(book)

    d, k, eps = 9, 3, 0.5
    mixes = cl.make_mixture_lb_family(d, d, k, eps, 0)
    delta = cl.mixture_mean_separation(d, k, eps)
    mix = mixes[0]
    means = np.stack([np.asarray(c.mean) for c in mix.components])
    for i in range(k):
        for j in range(i + 1, k):
            assert abs(np.linalg.norm(means[i] - means[j]) - delta) <= 1e-9
    n_mc = 50000
    worst = 0.0
    for i, comp in enumerate(mix.components):
        pts = cl.sample(comp, n_mc, 100 + i).points
        far = np.linalg.norm(pts - means[i], axis=1) >= delta / 2.0
        tail = float(far.mean())
        se = float(far.std(ddof=1)) / math.sqrt(n_mc) if n_mc > 1 else 0.0
        worst = max(worst, tail)
        assert tail <= (eps / k) ** 2 + 3.0 * se, (i, tail)
    print(f"book_size={book.size} dmin={book.min_distance} "
          f"worst_tail={worst} cap={(eps / k) ** 2}")


def _run_cli(config: dict, out_dir, workers: int) -> dict:
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir),
                               "--workers", str(workers)])
    assert code == 0
    return {name: (out_dir / name).read_bytes()
            for name in ("rows.csv", "summary.csv", "run-manifest.json")}


def test_harness_runs_are_byte_identical(tmp_path, capsys):
    """Every experiment CLI run with a fixed config and seed reproduces
    byte-identical outputs across two executions and workers {1, 4}."""
    gauss_1d = cl.dist_to_json(cl.Gaussian([0.0], [[1.0]]))
    gauss_2d = cl.dist_to_json(cl.Gaussian([0.0, 1.0],
                                           [[2.0, 0.3], [0.3, 1.0]]))
    configs = [
        {"experiment": "scheme_roundtrip", "grid_kind": "eps",
         "grid": [0.3, 0.5], "trials": 5, "seed": 11,
         "scheme": "g1d", "target": gauss_1d},
        {"experiment": "learn_curve", "grid_kind": "n",
         "grid": [64, 128], "trials": 4, "seed": 12, "target": gauss_2d},
        {"experiment": "lowerbound_audit", "grid_kind": "eps",
         "grid": [0.2], "trials": 3, "seed": 13},
        {"experiment": "hull_probe", "grid_kind": "n",
         "grid": [150.0, 200.0], "trials": 3, "seed": 14},
    ]
    for idx, config in enumerate(configs):
        outs = []
        for run, workers in enumerate((1, 1, 4)):
            d = tmp_path / f"{config['experiment']}_{idx}_{run}"
            d.mkdir()
            outs.append(_run_cli(config, d, workers))
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], (config["experiment"],
                                                    name, "rerun")
            assert outs[0][name] == outs[2][name], (config["experiment"],
                                                    name, "workers")
    capsys.readouterr()
    print(f"experiments={len(configs)} runs_each=3 all byte-identical")
