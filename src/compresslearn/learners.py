"""Learning algorithms built on the compression codecs.

``select_candidate`` runs a Scheffe tournament over a finite candidate
list.  Its ``O(m^2 n)`` strategies split their work into units that the
program's worker pool (``utils._run_units``) runs in parallel, with
results bit for bit those of one serial loop.  ``learn_from_compression``
turns any codec into a learner by enumerating (or sampling) candidate
messages, decoding them as one array batch against a held sample prefix,
and selecting on a fresh holdout; it is the one reduction, for single
Gaussians and, through ``compose_mixture``, for k-mixtures.
``learn_gaussian_efficient`` is the polynomial-time single-Gaussian
estimator.  ``scipy.special`` loads on the first closed-form 1-D
tournament, not on import.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# pairwise_greater_fraction is not called here; the name stays bound for
# callers that patch this module's kernel names
from ._kernels import (pairwise_greater_counts,
                       pairwise_greater_fraction)  # noqa: F401
from .compression import CompressionMessage, Codec
from .errors import DecodingError, ValidationError
from .gaussmodels import (Distribution, Gaussian, LabeledSample, Mixture,
                          evaluate_log_densities, log_density,
                          prepare_log_densities, sample)
from .utils import (POOL_BLOCKS_PER_WORKER, _blocks, _run_units,
                    _worker_pool, as_generator, check_integer)

SCHEFFE_MC_POOL = 5000      # MC draws per candidate for d > 1 region masses
SCHEFFE_GRID_POINTS = 8193  # shared quadrature grid for 1-D mixtures
SCHEFFE_GRID_SIGMAS = 10.0
# relative width, against the size of the log-density terms, of the bands
# around 1-D region roots where holdout points are compared on stored values
REGION_BAND_TOL = 2.0 ** -36
EFFICIENT_SAMPLE_CONST = 8.0
# enumeration runs at eps/6 and selection at eps/16: with a candidate within
# eps/6 in TV, the selection bound (3*opt + 2*eps_sel in TV; see
# holdout_size) puts the winner within 5*eps/8 <= eps in TV
ENUM_ACCURACY_DIV = 6.0
SELECT_ACCURACY_DIV = 16.0
# peak resident bytes per pair of the pair list, main process and two pool
# workers together, measured at m = 2000 (closed_form_1d, in-process),
# m = 1800 (grid_1d) and m = 1400 (mc_pools, beside its 8 m^2 prob_own)
TOURNAMENT_PAIR_BYTES = {"closed_form_1d": 330, "grid_1d": 640,
                         "mc_pools": 400}


def holdout_size(n_candidates: int, eps: float, delta: float) -> int:
    """Points needed to select among ``n_candidates`` at accuracy ``eps``.

    The tournament's union bound over candidate pairs needs
    ``ceil(ln(3 M^2 / delta) / (2 eps^2))`` holdout points for the
    3*opt + 4*eps guarantee to hold with probability ``1 - delta/3``.
    The bound is in L1 distance (``3*opt + 2*eps`` in TV).  It covers
    only the holdout's empirical masses, not the Monte Carlo error of the
    ``mc_pools`` model masses (see :func:`select_candidate`).  Its
    constant 3 is proven for the minimum-distance rule; for the most-wins
    rule of :func:`select_candidate` it is a rate, which
    ``test_tournament_selection_guarantee`` checks.
    """
    from operator import index  # squares a numpy integer without wrapping
    check_integer(n_candidates, "n_candidates")
    if n_candidates < 1:
        raise ValidationError("need at least one candidate")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps and delta must lie in (0, 1)")
    try:
        return math.ceil(math.log(3.0 * index(n_candidates) ** 2 / delta)
                         / (2.0 * eps ** 2))
    except OverflowError:
        raise ValidationError(
            f"too many candidates to size a holdout for: {n_candidates}"
        ) from None


@dataclass(frozen=True)
class SelectionResult:
    """Tournament outcome: winning index, per-candidate wins, holdout size."""

    index: int
    scheffe_wins: np.ndarray
    n_holdout: int
    strategy: str


def _pair_coefficients(mu: np.ndarray, var: np.ndarray, I: np.ndarray,
                       J: np.ndarray):
    """``(a, b, c)`` with ``log f_i(x) - log f_j(x) = a x^2 + b x + c``,
    and the sizes of their terms as the log densities compute them.

    One entry per pair ``(I[k], J[k])`` of 1-D Gaussians with means ``mu``
    and variances ``var``.
    """
    mi, si2 = mu[I], var[I]
    mj, sj2 = mu[J], var[J]
    a = 0.5 / sj2 - 0.5 / si2
    b = mi / si2 - mj / sj2
    c = mj * mj / (2.0 * sj2) - mi * mi / (2.0 * si2) \
        + 0.5 * np.log(sj2 / si2)
    sizes = (0.5 / si2 + 0.5 / sj2, np.abs(mi) / si2 + np.abs(mj) / sj2,
             mi * mi / (2.0 * si2) + mj * mj / (2.0 * sj2)
             + 0.5 * (np.abs(np.log(si2)) + np.abs(np.log(sj2))) + 2.0)
    return (a, b, c), sizes


def _pair_regions(coef, mu, var, I, J):
    """``(r1, r2, s_out, slope, base)``: the region ``{a x^2 + b x + c >
    0}`` of the pair coefficients ``coef``.

    It lies outside ``[base + r1, base + r2]`` where ``s_out`` is +1,
    inside where -1.  A quadratic's roots are offsets from ``base``, the
    mean of the narrower candidate, which a root can equal to every bit:
    ``(-b' -+ sqrt(disc)) / (2a)``, with ``b' = (mu_i - mu_j) /
    max(var_i, var_j)`` the ``b`` of the quadratic in ``x - base`` and
    ``disc`` its discriminant in the closed form for two Gaussians,
    ``((mu_i - mu_j)^2 + (var_j - var_i) log(var_j / var_i)) / (var_i
    var_j)``, whose terms are nonnegative.  A line (``a = 0``) has
    ``base`` 0, its root ``-c/b`` and an open end at ``-inf`` or ``inf``.
    Without a sign change ``r1 = r2 = inf``.  ``slope[k]`` is ``|P'|`` at
    ``(r1, r2)[k]``, 0 at a non-root.
    """
    inf = math.inf
    a, b, c = coef
    mi, mj = mu[I], mu[J]
    si2, sj2 = var[I], var[J]
    base = np.where(a != 0.0, np.where(si2 < sj2, mi, mj), 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = mi - mj
        disc = (d * d + (sj2 - si2) * np.log(sj2 / si2)) / si2 / sj2
        b_off = d / np.maximum(si2, sj2)
        quad = (a != 0.0) & (disc > 0.0)
        sq = np.sqrt(np.where(quad, disc, 0.0))
        ra = (-b_off - sq) / (2.0 * a)
        rb = (-b_off + sq) / (2.0 * a)
        root = -c / b
    rising = (a == 0.0) & (b > 0.0)
    falling = (a == 0.0) & (b < 0.0)
    r1 = np.select([quad, rising, falling], [np.minimum(ra, rb), root, -inf],
                   inf)
    r2 = np.select([quad, falling], [np.maximum(ra, rb), root], inf)
    everywhere = np.where(a == 0.0, (b == 0.0) & (c > 0.0),
                          (disc <= 0.0) & (a > 0.0))
    s_out = np.where(everywhere | quad & (a > 0.0), 1.0, -1.0)
    slope = np.array([np.select([quad, rising], [sq, b], 0.0),
                      np.select([quad, falling], [sq, -b], 0.0)])
    return r1, r2, s_out, slope, base


def _region_masses(mu, var, I, J, region):
    """Masses candidates ``I`` and ``J`` give to ``{f_i > f_j}``, per pair.

    The region of :func:`_pair_regions` is ``(-inf, r1)`` and ``(r2, inf)``
    outside the roots, or ``(r1, r2)`` inside them, all offsets from
    ``base``.  With ``u`` and ``v`` the normal CDF at ``r1`` and ``r2``,
    the masses are ``(u - 0) + (1 - v)`` and ``(v - u) + 0``: the sums of
    two interval differences, where ``ndtr(-inf)`` is exactly 0 and
    ``ndtr(inf)`` exactly 1 (an unused ``(inf, inf)`` interval inside).
    """
    # scipy.special loads on first use, not when the package is imported
    from scipy.special import ndtr

    r1, r2, s_out, _, base = region
    out = s_out > 0.0

    def mass(k):
        # exactly mu[k] where base is 0
        m_k = mu[k] - base
        sd = np.sqrt(var[k])
        u = ndtr((r1 - m_k) / sd)
        v = ndtr((r2 - m_k) / sd)
        total = np.where(out, (u - 0.0) + (1.0 - v), (v - u) + 0.0)
        return np.minimum(1.0, np.maximum(0.0, total))

    return mass(I), mass(J)


def _closed_form_counts(I, J, coef, sizes, region, cands, points):
    """Holdout points where ``log f_i > log f_j``, per pair of 1-D Gaussians.

    Equal, tie for tie, to counting ``ld[i] > ld[j]`` over the stored
    holdout log densities ``ld[k] = log_density(cands[k], points)``, in
    ``O((m^2 + n) log n)`` instead of ``O(m^2 n)``.  With ``P`` the
    quadratic ``coef`` of :func:`_pair_coefficients`, a stored difference
    ``ld[i] - ld[j]`` lies within ``slack`` of ``P(x)`` on the data range
    (rounding in the log densities and the coefficients is far below
    ``REGION_BAND_TOL`` times the ``sizes`` of their terms).  So:

    * each root of ``region`` (:func:`_pair_regions`) gets a band wide
      enough that ``|P| > slack`` just outside it, were the root exact;
    * the signs of ``P`` are checked at the band edges, which proves each
      band holds a root and that ``|P| > slack``, hence the stored
      comparison agrees with the sign of ``P``, everywhere outside the
      bands.  The proof does not rely on how accurate a root is: a band
      that misses its root fails a check;
    * points outside the bands are counted with ``searchsorted`` on a
      sorted copy ``xs`` of the holdout, looking each edge array up in
      sorted key order, and points inside are compared on log-density
      rows evaluated at ``xs``: a point's log density does not depend on
      its position, and a range of ``xs`` holds the same points whatever
      order the holdout came in (``-0.0`` and ``0.0`` compare equal);
    * the one fallback: a pair whose check fails (tangent, near-identical
      candidates, overflow) or that has no root (identical candidates, a
      discriminant that is not finite) gets one band over the whole line,
      so every point is compared on those rows.
    """
    n = points.shape[0]
    xs = np.sort(points[:, 0])
    tol = REGION_BAND_TOL
    a, b, c = coef
    r1, r2, s_out, slope, base = region
    r1, r2 = r1 + base, r2 + base

    def size(t):
        t = np.abs(t)
        return (sizes[0] * t + sizes[1]) * t + sizes[2]

    def holds(t, sign):
        """``P(t)`` has ``sign`` with a margin beyond rounding and slack."""
        p_t = (a * t + b) * t + c
        return (np.sign(p_t) == sign) & (np.abs(p_t) > slack + tol * size(t))

    slack = tol * size(max(abs(xs[0]), abs(xs[-1])))
    # a pair without a root falls back
    ok = slope.any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edges = []
        for r, d, sides in ((r1, slope[0], (s_out, -s_out)),
                            (r2, slope[1], (-s_out, s_out))):
            w = 4.0 * (slack + tol * size(r)) / d + tol * np.abs(r)
            lo_e, hi_e = r - w, r + w
            # a root that is not finite has no finite w and falls back
            ok &= (d == 0.0) | (np.isfinite(w) & holds(lo_e, sides[0])
                                & holds(hi_e, sides[1]))
            edges += [np.where(d > 0.0, lo_e, r), np.where(d > 0.0, hi_e, r)]
        ok &= edges[1] < edges[2]
    e1, e2, e3, e4 = (np.where(ok, e, full) for e, full in
                      zip(edges, (-math.inf, math.inf, math.inf, math.inf)))
    p1, p2, p3, p4 = (_sorted_lookup(xs, e, side) for e, side in
                      ((e1, "left"), (e2, "right"), (e3, "left"),
                       (e4, "right")))
    counts = np.where(s_out > 0.0, p1 + (n - p4), p3 - p2)
    banded = np.flatnonzero((p2 > p1) | (p4 > p3))
    needed = np.unique(np.concatenate((I[banded], J[banded])))
    # one n-float row per call, not one (len(needed), n) block: on learn_1d
    # that block made the allocator keep about 13 MB more heap resident
    ld = {int(k): log_density(cands[k], xs[:, None]) for k in needed}
    for k in banded:
        for lo, hi in ((p1[k], p2[k]), (p3[k], p4[k])):
            counts[k] += np.count_nonzero(ld[I[k]][lo:hi] > ld[J[k]][lo:hi])
    return counts


def _sorted_lookup(xs: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(xs, keys, side)``, searched in sorted key order,
    which numpy walks faster; the result does not depend on that order."""
    order = np.argsort(keys)
    out = np.empty(keys.shape, dtype=np.intp)
    out[order] = np.searchsorted(xs, keys[order], side)
    return out


def _closed_form_1d(cands, points: np.ndarray, I: np.ndarray,
                    J: np.ndarray):
    """``(p_hat, p_i, p_j)`` per pair ``(I[k], J[k])`` of 1-D Gaussians.

    ``p_hat`` is the fraction of ``points`` in ``{f_i > f_j}``, and ``p_i``
    and ``p_j`` are the masses candidates i and j give that region.
    """
    mu = np.array([float(g.mean[0]) for g in cands])
    var = np.array([float(g.cov[0, 0]) for g in cands])
    coef, sizes = _pair_coefficients(mu, var, I, J)
    region = _pair_regions(coef, mu, var, I, J)
    p_i, p_j = _region_masses(mu, var, I, J, region)
    counts = _closed_form_counts(I, J, coef, sizes, region, cands, points)
    return counts / points.shape[0], p_i, p_j


def _shared_grid(cands: Sequence[Distribution]) -> np.ndarray:
    lo = math.inf
    hi = -math.inf
    for c in cands:
        comps = c.components if isinstance(c, Mixture) else (c,)
        for g in comps:
            sd = math.sqrt(float(g.cov[0, 0]))
            lo = min(lo, float(g.mean[0]) - SCHEFFE_GRID_SIGMAS * sd)
            hi = max(hi, float(g.mean[0]) + SCHEFFE_GRID_SIGMAS * sd)
    return np.linspace(lo, hi, SCHEFFE_GRID_POINTS)


def _fingerprint(dist: Distribution) -> bytes:
    """Content hash so MC pools are invariant under candidate reordering."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(dist, Gaussian):
        h.update(b"G")
        h.update(np.int64(dist.dim).tobytes())
        h.update(dist.mean.tobytes())
        h.update(dist.cov.tobytes())
    else:
        h.update(b"M")
        h.update(np.int64(dist.n_components).tobytes())
        h.update(dist.weights.tobytes())
        for comp in dist.components:
            h.update(_fingerprint(comp))
    return h.digest()


def _pool_seed(dist: Distribution, salt: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(_fingerprint(dist))
    h.update(int(salt).to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# Tournament work units for the worker pool (``utils._run_units``)


def _holdout_counts(batch, points: np.ndarray, I: np.ndarray,
                    J: np.ndarray) -> np.ndarray:
    """Points where ``log f_i > log f_j``, per pair ``(I[k], J[k])`` of the
    prepared ``batch``.  A column block's counts add up exactly."""
    return pairwise_greater_counts(evaluate_log_densities(batch, points),
                                   I, J)


def _grid_masses(batch, grid: np.ndarray, I: np.ndarray, J: np.ndarray):
    """Rows ``(p_i, p_j)`` on ``grid`` per pair ``(I[k], J[k])`` of the
    prepared ``batch``.

    Trapezoid masses: each is one sum over the masked grid, so a pair's
    mass does not depend on how the pairs are split into blocks.
    """
    dx = grid[1] - grid[0]
    weights = np.full(grid.shape, dx)
    weights[0] = weights[-1] = 0.5 * dx
    ld = evaluate_log_densities(batch, grid[:, None])
    dens_w = np.exp(ld) * weights
    masses = []
    for i, j in zip(I.tolist(), J.tolist()):
        mask = ld[i] > ld[j]
        masses.append((min(1.0, float(dens_w[i][mask].sum())),
                       min(1.0, float(dens_w[j][mask].sum()))))
    return np.array(masses).T


def _pool_fractions(batch, own, start: int, salt: int,
                    n_draws: int) -> np.ndarray:
    """Rows ``start:start + len(own)`` of ``prob_own``, where ``own`` are
    those rows' candidates and ``batch`` holds all ``m`` prepared:
    ``prob_own[i, j]`` is the share of candidate i's own MC pool where
    ``f_i > f_j``."""
    out = np.empty((len(own), batch.m))
    for r, cand in enumerate(own):
        pool = sample(cand, n_draws, _pool_seed(cand, salt)).points
        ld = evaluate_log_densities(batch, pool)
        out[r] = np.count_nonzero(ld[start + r][None, :] > ld,
                                  axis=1) / n_draws
    return out


def _split_tournament(cands, points: np.ndarray, I: np.ndarray,
                      J: np.ndarray, strategy: str, seed):
    """``(p_hat, p_i, p_j)`` per pair ``(I[k], J[k])``, in the pair list's
    order (see :func:`select_candidate`).  ``closed_form_1d`` runs
    in-process.  ``grid_1d`` and ``mc_pools`` split into units with the
    same result wherever they run: blocks of holdout columns (integer
    counts, divided by ``len(points)`` once), of the ``grid_1d`` pair list
    and of MC pool rows.  The units carry the candidates as prepared
    arrays (:func:`prepare_log_densities`), except that a pool block
    carries its own candidates to draw their pools.  They run on the
    program's ``fork`` worker pool (``utils._run_units``), one worker per
    usable CPU, or in-process, one after the other, on a single CPU,
    without ``fork`` and inside a child process such as a harness trial.
    """
    if not len(I):
        return np.zeros((3, 0))
    if strategy == "closed_form_1d":
        return _closed_form_1d(cands, points, I, J)
    workers = _worker_pool()[1]
    batch = prepare_log_densities(cands)
    # holdout column blocks first: they are the largest units
    cols = _blocks(len(points), workers)
    units = [(_holdout_counts, batch, points[a:b], I, J) for a, b in cols]
    if strategy == "grid_1d":
        # blocks of the pair list, balanced by pair count
        grid = _shared_grid(cands)
        for a, b in _blocks(len(I), workers):
            # every pair has I < J, so the block's lowest candidate is an
            # I; row r of its batch is candidate lo + r, and a row's bits
            # do not depend on the batch
            lo = int(I[a:b].min())
            units.append((_grid_masses, prepare_log_densities(cands[lo:]),
                          grid, I[a:b] - lo, J[a:b] - lo))
    else:
        salt = int(as_generator(seed).integers(1 << 62))
        rows = _blocks(len(cands), POOL_BLOCKS_PER_WORKER * workers)
        units += [(_pool_fractions, batch, cands[a:b], a, salt,
                   SCHEFFE_MC_POOL) for a, b in rows]
    done = _run_units(units)
    p_hat = sum(done[:len(cols)]) / len(points)
    done = done[len(cols):]
    if strategy == "grid_1d":
        return (p_hat, *np.concatenate(done, axis=1))
    prob_own = np.concatenate(done)
    # complement of {f_j > f_i} under f_j; ties between distinct densities
    # have measure zero
    return p_hat, prob_own[I, J], 1.0 - prob_own[J, I]


def _mem_available():
    """``MemAvailable`` from ``/proc/meminfo`` in bytes, or ``None`` where
    it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_tournament_memory(m: int, strategy: str) -> None:
    """Raise :class:`ValidationError` when a tournament over ``m``
    candidates would need more memory than the host has available."""
    need = TOURNAMENT_PAIR_BYTES[strategy] * (m * (m - 1) // 2)
    if strategy == "mc_pools":
        need += 8 * m * m  # prob_own
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ValidationError(
            f"a tournament over m={m} candidates needs about "
            f"{need / 2**20:.0f} MiB, more than the {avail / 2**20:.0f} MiB "
            f"available; lower the budget")


def select_candidate(cands, holdout: LabeledSample, eps: float,
                     seed=0) -> SelectionResult:
    """Pick the candidate whose density best matches the holdout sample.

    Each pair ``(i, j) = (I[k], J[k])`` of the one pair list ``I, J =
    np.triu_indices(m, 1)`` has the comparison region ``{x : f_i(x) >
    f_j(x)}``, and every strategy computes its masses for that list, in
    its order.  The pair's winner is the candidate whose own probability
    of the region is closer to the region's empirical mass, the fraction
    of holdout points where candidate i's log density strictly exceeds
    candidate j's (ties go to the lower index), and the result is the
    candidate with the most wins.  ``eps`` is the selection accuracy the
    holdout was sized for (advisory here; see :func:`holdout_size`).  A
    holdout point that is not finite raises :class:`ValidationError`, and
    so does a tournament whose pair list would not fit the host's
    ``MemAvailable`` (estimated from ``TOURNAMENT_PAIR_BYTES``).

    * ``closed_form_1d`` (1-D Gaussians, in-process): closed-form region
      masses, and holdout counts from each region's endpoints with
      ``searchsorted`` on a sorted copy of the holdout, which equal the
      all-pairs comparison exactly, in ``O((m^2 + n) log n)`` time (see
      :func:`_closed_form_counts`).
    * ``grid_1d`` (1-D mixtures present): quadrature on a shared grid.
    * ``mc_pools`` (above one dimension): per-candidate MC pools of
      ``SCHEFFE_MC_POOL`` draws, read when the tournament runs.  Their
      Monte Carlo error lies outside the holdout's union bound, and the
      pool size does not bound it: for a learn at eps 0.2 with m = 100,
      5000 draws per pool bound the ``m^2`` pool estimates (Hoeffding and
      a union bound at ``delta/2``) only to about 2.9 times the selection
      accuracy ``eps/16``.  So the ``3*opt + 4*eps`` guarantee does not
      cover this strategy.

    ``grid_1d`` and ``mc_pools`` make ``O(m^2 n)`` holdout comparisons
    (:func:`pairwise_greater_counts`), plus ``O(m^2)`` density terms per
    pool draw for ``mc_pools``, on the candidates stacked once per tournament
    (:func:`prepare_log_densities`), with the same bits as per-candidate
    :func:`log_density` calls.  The work runs as units on the program's
    worker pool or in-process (see :func:`_split_tournament`); either way
    the winner and win vector are bit for bit those of a serial all-pairs
    loop.  A worker that dies raises :class:`WorkerPoolError`, and the
    next call starts a new pool.
    """
    cands = list(cands)
    if not cands:
        raise ValidationError("candidate list must be nonempty")
    dims = {c.dim for c in cands}
    if len(dims) != 1:
        raise ValidationError("candidates must share one dimension")
    d = dims.pop()
    if holdout.dim != d:
        raise ValidationError("holdout dimension does not match candidates")
    if holdout.n < 1:
        raise ValidationError("holdout must be nonempty")
    if not np.isfinite(holdout.points).all():
        raise ValidationError("holdout points must be finite")
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if d == 1 and all(isinstance(c, Gaussian) for c in cands):
        strategy = "closed_form_1d"
    elif d == 1:
        strategy = "grid_1d"
    else:
        strategy = "mc_pools"
    _check_tournament_memory(len(cands), strategy)
    # the one pair list: every strategy returns its masses in this order
    I, J = np.triu_indices(len(cands), 1)
    p_hat, p_i, p_j = _split_tournament(cands, holdout.points, I, J,
                                        strategy, seed)

    i_wins = np.abs(p_i - p_hat) <= np.abs(p_j - p_hat)
    wins = np.bincount(I[i_wins], minlength=len(cands)) \
        + np.bincount(J[~i_wins], minlength=len(cands))
    index = int(np.argmax(wins))  # argmax takes the lowest index on ties
    return SelectionResult(index=index, scheffe_wins=wins,
                           n_holdout=holdout.n, strategy=strategy)


@dataclass(frozen=True)
class LearnResult:
    """A learned distribution plus how its candidate set was formed.

    ``candidate_space`` is the exact size of the full message space (a
    Python int; it can be astronomically large), ``candidate_count`` the
    number of decoded candidates that entered the tournament, and
    ``budget_capped`` records that uniform message sampling replaced
    exhaustive enumeration, which voids the 3*opt + 4*eps (L1) guarantee
    (the ``learn`` CLI reports it as ``"enumeration"``: ``"sampled"`` or
    ``"exhaustive"``).
    """

    estimate: Distribution
    selection: SelectionResult
    candidate_count: int
    candidate_space: int
    budget_capped: bool


def _boost_rounds(delta: float) -> int:
    # disjoint-batch retries drive failure below delta/2
    return math.ceil(math.log(2.0 / delta) / math.log(3.0))


def _encoding_size(codec: Codec, eps: float, delta: float,
                   budget: int) -> int:
    """Check the reduction's arguments; return its encoding prefix length."""
    if not (0.0 < eps <= 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps must be in (0, 1] and delta in (0, 1)")
    check_integer(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    return codec.m_samples(eps / ENUM_ACCURACY_DIV) * _boost_rounds(delta)


def compression_sample_size(codec: Codec, eps: float, delta: float,
                            budget: int) -> int:
    """Upper bound on the points :func:`learn_from_compression` consumes."""
    return _encoding_size(codec, eps, delta, budget) + holdout_size(
        budget, eps / SELECT_ACCURACY_DIV, delta / 2.0)


def learn_from_compression(codec: Codec, samp: LabeledSample, eps: float,
                           delta: float, budget: int, seed,
                           extra_messages: Sequence[CompressionMessage] = ()
                           ) -> LearnResult:
    """Learn a distribution by decoding candidate messages and selecting.

    Candidate messages are all reference tuples into the first
    ``m(eps/6) * ceil(log3(2/delta))`` sample points crossed with all
    payloads.  When that space exceeds ``budget`` (minus any planted
    ``extra_messages``, which are decoded first), a uniform random subset
    of messages is drawn instead and the result is flagged
    ``budget_capped``.  The messages, planted ones first, decode as one
    batch of reference and payload-digit rows (``codec.decode_batch``).
    The sampled messages come from one broadcast ``rng.integers`` call,
    which makes each message's reference draws, then its payload-digit
    draws, message after message.  A message that decodes to no
    distribution is dropped, a candidate whose covariance
    :class:`Gaussian` cannot evaluate included, so
    ``candidate_count`` can fall well below ``budget``: about half of the
    sampled g1d messages decode to a negative scale (126 to 138 of 300 in
    four seeded learns at eps 0.2).  Selection runs on a fresh holdout
    slice at accuracy ``eps/16``.  Its ``3*opt + 4*eps`` bound, at that
    accuracy, is in L1 (``3*opt + 2*eps`` in TV; see :func:`holdout_size`)
    and relative to the best candidate decoded: ``opt`` is that
    candidate's distance to the target, whatever the target, so when no
    decoded candidate is close the bound says little.

    A k-mixture is learned by passing ``compose_mixture(base, k)``, which
    is what ``codec_for("mixture")`` does.  That codec claims no
    contamination radius (``robustness=0.0``).
    """
    n_enc = _encoding_size(codec, eps, delta, budget)
    extras = list(extra_messages)
    if len(extras) > budget:
        raise ValidationError("extra messages exceed the budget")
    e_enum = eps / ENUM_ACCURACY_DIV
    e_sel = eps / SELECT_ACCURACY_DIV
    rng = as_generator(seed)
    if samp.n < n_enc:
        raise ValidationError(f"need at least {n_enc} encoding points")
    tau = codec.tau(e_enum)
    layout = codec.layout(e_enum)
    space = n_enc ** tau * layout.count
    n_fill = budget - len(extras)
    capped = space > n_fill

    enc_points = samp.points[:n_enc]
    gated = []
    for msg in extras:
        try:
            gated.append((msg.sample_refs,
                          codec.gate(msg, enc_points, e_enum)[1]))
        except DecodingError:
            continue
    n_rows = len(gated) + (n_fill if capped else space)
    refs = np.empty((n_rows, tau), dtype=np.int64)
    digits = np.empty((n_rows, len(layout.radices)), dtype=np.int64)
    for i, (row, payload) in enumerate(gated):
        refs[i], digits[i] = row, payload
    if capped:
        # numpy draws a broadcast bound row-major, so each message gets the
        # draws of rng.integers(n_enc, size=tau), then those of
        # layout.random_digits(rng) (its digits in wire order)
        highs = np.array((n_enc,) * tau + layout.radices, dtype=np.int64)
        drawn = rng.integers(0, np.broadcast_to(highs, (n_fill, len(highs))))
        refs[len(gated):], digits[len(gated):] = drawn[:, :tau], drawn[:, tau:]
    else:
        tuples = np.array(list(itertools.product(range(n_enc), repeat=tau)),
                          dtype=np.int64)
        refs[len(gated):] = np.repeat(tuples, layout.count, axis=0)
        digits[len(gated):] = np.tile(
            [layout.index_digits(p) for p in range(layout.count)],
            (len(tuples), 1))
    decoded = [dist for dist in codec.decode_batch(refs, digits, enc_points,
                                                   e_enum) if dist is not None]
    if not decoded:
        raise ValidationError("no candidate message decoded to a distribution")

    n_hold = holdout_size(len(decoded), e_sel, delta / 2.0)
    if samp.n < n_enc + n_hold:
        raise ValidationError(
            f"need at least {n_enc + n_hold} points for this budget")
    holdout = LabeledSample(samp.points[n_enc:n_enc + n_hold])
    sel = select_candidate(decoded, holdout, e_sel, rng)
    return LearnResult(
        estimate=decoded[sel.index], selection=sel,
        candidate_count=len(decoded), candidate_space=space,
        budget_capped=capped)


def efficient_sample_size(d: int, eps: float, delta: float) -> int:
    """Even sample size ``2m`` for :func:`learn_gaussian_efficient`."""
    check_integer(d, "d")
    if d < 1:
        raise ValidationError("d must be >= 1")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps and delta must lie in (0, 1)")
    return 2 * math.ceil(EFFICIENT_SAMPLE_CONST
                         * (d * d + d * math.log(1.0 / delta)) / eps ** 2)


def learn_gaussian_efficient(samp: LabeledSample) -> Gaussian:
    """Moment estimator: sample mean plus difference-pair covariance.

    With ``2m`` points, the mean is averaged over the first ``m`` and the
    covariance is ``(1/2m) * sum of (v_{2i} - v_{2i-1}) outer products``
    over all ``m`` consecutive pairs; pairing cancels the unknown mean.
    Raises when the pair count cannot produce a full-rank covariance or the
    draw happens to be degenerate.
    """
    d = samp.dim
    if samp.n % 2 != 0 or samp.n < 2 * (d + 1):
        raise ValidationError(
            f"need an even sample of at least {2 * (d + 1)} points")
    m = samp.n // 2
    mean = samp.points[:m].mean(axis=0)
    diffs = samp.points[1::2] - samp.points[0::2]
    cov = diffs.T @ diffs / (2.0 * m)
    return Gaussian(mean, cov)
