"""Learning algorithms built on the compression codecs.

``select_candidate`` runs a Scheffe tournament over a finite candidate
list.  Its ``O(m^2 n)`` strategies split their work into units that the
program's worker pool (``utils._run_units``) runs in parallel, with
results bit for bit those of one serial loop.  ``learn_from_compression``
turns any codec into a learner by enumerating (or sampling) candidate
messages, decoding them against a held sample prefix, and selecting on a
fresh holdout; it is the one reduction, for single Gaussians and, through
``compose_mixture``, for k-mixtures.
``learn_gaussian_efficient`` is the polynomial-time single-Gaussian
estimator.  ``scipy.special`` loads on the first closed-form 1-D
tournament, not on import.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# pairwise_greater_fraction is not called here; the name stays bound for
# callers that patch this module's kernel names
from ._kernels import (pairwise_greater_counts,
                       pairwise_greater_fraction)  # noqa: F401
from .compression import CompressionMessage, Codec
from .errors import DecodingError, ValidationError
from .gaussmodels import (Gaussian, LabeledSample, Mixture, log_densities,
                          log_density, sample)
from .utils import (POOL_BLOCKS_PER_WORKER, _blocks, _run_units,
                    _worker_pool, as_generator)

Distribution = Union[Gaussian, Mixture]

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


def holdout_size(n_candidates: int, eps: float, delta: float) -> int:
    """Points needed to select among ``n_candidates`` at accuracy ``eps``.

    The tournament's union bound over candidate pairs needs
    ``ceil(ln(3 M^2 / delta) / (2 eps^2))`` holdout points for the
    3*opt + 4*eps guarantee to hold with probability ``1 - delta/3``.
    The bound is in L1 distance (``3*opt + 2*eps`` in TV).  Its constant 3
    is proven for the minimum-distance rule; for the most-wins rule of
    :func:`select_candidate` it is a rate, which
    ``test_tournament_selection_guarantee`` checks.
    """
    if n_candidates < 1:
        raise ValidationError("need at least one candidate")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps and delta must lie in (0, 1)")
    try:
        return math.ceil(math.log(3.0 * n_candidates ** 2 / delta)
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
    # math.log, not np.log: the two differ in the last ulp on some inputs,
    # and the region masses must stay bit-identical to the scalar formula
    log_ratio = np.fromiter(map(math.log, (sj2 / si2).tolist()), float,
                            len(I))
    c = mj * mj / (2.0 * sj2) - mi * mi / (2.0 * si2) + 0.5 * log_ratio
    sizes = (0.5 / si2 + 0.5 / sj2, np.abs(mi) / si2 + np.abs(mj) / sj2,
             mi * mi / (2.0 * si2) + mj * mj / (2.0 * sj2)
             + 0.5 * (np.abs(np.log(si2)) + np.abs(np.log(sj2))) + 2.0)
    return (a, b, c), sizes


def _pair_regions(a, b, c):
    """``(r1, r2, s_out, slope)``: the region ``{a x^2 + b x + c > 0}``.

    It lies outside ``[r1, r2]`` where ``s_out`` is +1, inside where -1.
    The roots are ``(-b -+ sqrt(disc)) / (2a)``, or a line's ``-c/b`` with
    an open end at ``-inf`` or ``inf``; without a sign change ``r1 = r2 =
    inf``.  ``slope[k]`` is ``|P'|`` at ``(r1, r2)[k]``, 0 at a non-root.
    """
    inf = math.inf
    disc = b * b - 4.0 * a * c
    quad = (a != 0.0) & (disc > 0.0)
    rising = (a == 0.0) & (b > 0.0)
    falling = (a == 0.0) & (b < 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(np.where(quad, disc, 0.0))
        ra = (-b - sq) / (2.0 * a)
        rb = (-b + sq) / (2.0 * a)
        root = -c / b
    r1 = np.select([quad, rising, falling], [np.minimum(ra, rb), root, -inf],
                   inf)
    r2 = np.select([quad, falling], [np.maximum(ra, rb), root], inf)
    everywhere = np.where(a == 0.0, (b == 0.0) & (c > 0.0),
                          (disc <= 0.0) & (a > 0.0))
    s_out = np.where(everywhere | quad & (a > 0.0), 1.0, -1.0)
    slope = np.array([np.select([quad, rising], [sq, b], 0.0),
                      np.select([quad, falling], [sq, -b], 0.0)])
    return r1, r2, s_out, slope


def _region_masses(mu, var, I, J, region):
    """Masses candidates ``I`` and ``J`` give to ``{f_i > f_j}``, per pair.

    The region of :func:`_pair_regions` is two intervals ``(lo, hi)``:
    ``(-inf, r1)`` and ``(r2, inf)`` outside the roots, or ``(r1, r2)`` and
    an unused ``(inf, inf)``, which adds exactly zero mass, inside them.
    """
    # scipy.special loads on first use, not when the package is imported
    from scipy.special import ndtr

    inf = math.inf
    r1, r2, s_out, _ = region
    out = s_out > 0.0
    lo = (np.where(out, -inf, r1), np.where(out, r2, inf))
    hi = (np.where(out, r1, r2), inf)

    def mass(k):
        m_k = mu[k]
        sd = np.sqrt(var[k])
        total = (ndtr((hi[0] - m_k) / sd) - ndtr((lo[0] - m_k) / sd)) \
            + (ndtr((hi[1] - m_k) / sd) - ndtr((lo[1] - m_k) / sd))
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
    * the signs of ``P`` are checked at the four band edges (or at the
      vertex when ``P`` has no root), which proves each band holds a root
      and that ``|P| > slack``, hence the stored comparison agrees with the
      sign of ``P``, everywhere outside the bands.  The proof does not
      rely on how accurate a root is: a band that misses its root fails a
      check;
    * points outside the bands are counted with ``searchsorted`` on the
      sorted holdout, and points inside are compared on the stored rows;
    * a pair whose check fails (tangent, near-identical or identical
      candidates, overflow) compares its whole rows.
    """
    n = points.shape[0]
    x = points[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    tol = REGION_BAND_TOL
    a, b, c = coef
    r1, r2, s_out, slope = region

    def size(t):
        t = np.abs(t)
        return (sizes[0] * t + sizes[1]) * t + sizes[2]

    def holds(t, sign):
        """``P(t)`` has ``sign`` with a margin beyond rounding and slack."""
        p_t = (a * t + b) * t + c
        return (np.sign(p_t) == sign) & (np.abs(p_t) > slack + tol * size(t))

    slack = tol * size(max(abs(xs[0]), abs(xs[-1])))
    flat = ~slope.any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a P without roots has the sign of a at its vertex, with a margin
        vertex = np.where(a != 0.0, -b / (2.0 * a), 0.0)
        ok = ~flat | (holds(vertex, s_out)
                      & ((a == 0.0) | (s_out == np.sign(a))))
        edges = []
        for r, d, sides in ((r1, slope[0], (s_out, -s_out)),
                            (r2, slope[1], (-s_out, s_out))):
            w = 4.0 * (slack + tol * size(r)) / d + tol * np.abs(r)
            lo_e, hi_e = r - w, r + w
            # a root that is not finite has no finite w and falls back
            ok &= (d == 0.0) | (np.isfinite(w) & holds(lo_e, sides[0])
                                & holds(hi_e, sides[1]))
            edges += [np.where(d > 0.0, lo_e, r), np.where(d > 0.0, hi_e, r)]
        ok &= flat | (edges[1] < edges[2])
    e1, e2, e3, e4 = (np.where(ok, e, math.inf) for e in edges)
    p1 = np.searchsorted(xs, e1, "left")
    p2 = np.searchsorted(xs, e2, "right")
    p3 = np.searchsorted(xs, e3, "left")
    p4 = np.searchsorted(xs, e4, "right")
    counts = np.where(s_out > 0.0, p1 + (n - p4), p3 - p2)
    banded = np.flatnonzero(ok & ((p2 > p1) | (p4 > p3)))
    whole = np.flatnonzero(~ok)
    needed = np.unique(np.concatenate((I[banded], J[banded],
                                       I[whole], J[whole])))
    # one n-float row per call, not one (len(needed), n) block: on learn_1d
    # that block made the allocator keep about 13 MB more heap resident
    ld = {int(k): np.atleast_1d(log_density(cands[k], points))
          for k in needed}
    for k in banded:
        cols = np.concatenate((order[p1[k]:p2[k]], order[p3[k]:p4[k]]))
        counts[k] += np.count_nonzero(ld[I[k]][cols] > ld[J[k]][cols])
    for k in whole:
        counts[k] = np.count_nonzero(ld[I[k]] > ld[J[k]])
    return counts


def _closed_form_1d(cands, points: np.ndarray, I: np.ndarray,
                    J: np.ndarray):
    """``(p_hat, p_i, p_j)`` per pair ``(I[k], J[k])`` of 1-D Gaussians.

    ``p_hat`` is the fraction of ``points`` in ``{f_i > f_j}``, and ``p_i``
    and ``p_j`` are the masses candidates i and j give that region.
    """
    mu = np.array([float(g.mean[0]) for g in cands])
    var = np.array([float(g.cov[0, 0]) for g in cands])
    coef, sizes = _pair_coefficients(mu, var, I, J)
    region = _pair_regions(*coef)
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


def _holdout_counts(cands, points: np.ndarray, I: np.ndarray,
                    J: np.ndarray) -> np.ndarray:
    """Points where ``log f_i > log f_j``, per pair ``(I[k], J[k])``.  A
    column block's counts add up exactly."""
    return pairwise_greater_counts(log_densities(cands, points), I, J)


def _grid_masses(cands, grid: np.ndarray, I: np.ndarray, J: np.ndarray):
    """Rows ``(p_i, p_j)`` on ``grid`` per pair ``(I[k], J[k])``.

    Trapezoid masses: each is one sum over the masked grid, so a pair's
    mass does not depend on how the pairs are split into blocks.  Only the
    candidates from the block's lowest index up are evaluated.
    """
    dx = grid[1] - grid[0]
    weights = np.full(grid.shape, dx)
    weights[0] = weights[-1] = 0.5 * dx
    lo = min(I.min(), J.min())
    # row r is candidate lo + r; a row's bits do not depend on the batch
    ld = log_densities(cands[lo:], grid[:, None])
    dens_w = np.exp(ld) * weights
    masses = []
    for i, j in zip((I - lo).tolist(), (J - lo).tolist()):
        mask = ld[i] > ld[j]
        masses.append((min(1.0, float(dens_w[i][mask].sum())),
                       min(1.0, float(dens_w[j][mask].sum()))))
    return np.array(masses).T


def _pool_fractions(cands, start: int, stop: int, salt: int,
                    n_pool: int) -> np.ndarray:
    """Rows ``start:stop`` of ``prob_own``: ``prob_own[i, j]`` is the share
    of candidate i's own MC pool where ``f_i > f_j``."""
    out = np.empty((stop - start, len(cands)))
    for r, i in enumerate(range(start, stop)):
        pool = sample(cands[i], n_pool, _pool_seed(cands[i], salt)).points
        ld = log_densities(cands, pool)
        out[r] = np.count_nonzero(ld[i][None, :] > ld, axis=1) / n_pool
    return out


def _split_tournament(cands, points: np.ndarray, I: np.ndarray,
                      J: np.ndarray, strategy: str, seed, n_pool: int):
    """``(p_hat, p_i, p_j)`` per pair ``(I[k], J[k])``, in the pair list's
    order (see :func:`select_candidate`).  ``grid_1d`` and ``mc_pools``
    run in units on the worker pool; ``closed_form_1d`` runs in-process."""
    if not len(I):
        return np.zeros((3, 0))
    if strategy == "closed_form_1d":
        return _closed_form_1d(cands, points, I, J)
    workers = _worker_pool()[1]
    # holdout column blocks first: they are the largest units
    cols = _blocks(len(points), workers)
    units = [(_holdout_counts, cands, points[a:b], I, J) for a, b in cols]
    if strategy == "grid_1d":
        # blocks of the pair list, balanced by pair count
        pairs = _blocks(len(I), workers)
        grid = _shared_grid(cands)
        units += [(_grid_masses, cands, grid, I[a:b], J[a:b])
                  for a, b in pairs]
    else:
        salt = int(as_generator(seed).integers(1 << 62))
        rows = _blocks(len(cands), POOL_BLOCKS_PER_WORKER * workers)
        units += [(_pool_fractions, cands, a, b, salt, n_pool)
                  for a, b in rows]
    done = _run_units(units)
    p_hat = sum(done[:len(cols)]) / len(points)
    done = done[len(cols):]
    if strategy == "grid_1d":
        return (p_hat, *np.concatenate(done, axis=1))
    prob_own = np.concatenate(done)
    # complement of {f_j > f_i} under f_j; ties between distinct densities
    # have measure zero
    return p_hat, prob_own[I, J], 1.0 - prob_own[J, I]


def select_candidate(cands, holdout: LabeledSample, eps: float, seed=0,
                     n_pool: int = SCHEFFE_MC_POOL) -> SelectionResult:
    """Pick the candidate whose density best matches the holdout sample.

    Each pair ``(i, j) = (I[k], J[k])`` of the one pair list ``I, J =
    np.triu_indices(m, 1)`` has the comparison region ``{x : f_i(x) >
    f_j(x)}``, and every strategy computes its masses for the pair list it
    is given, in that list's order.  The pair's winner is the candidate whose
    own probability of the region is closer to the empirical holdout mass
    (ties go to the lower index), and the result is the candidate with the
    most wins.  Region probabilities are closed-form for 1-D Gaussians,
    shared-grid quadrature when 1-D mixtures are present, and per-candidate
    MC pools of ``n_pool`` draws above one dimension.  ``eps`` is the
    selection accuracy the holdout was sized for (advisory here; see
    :func:`holdout_size`).

    The empirical mass of a region is the fraction of holdout points where
    candidate i's log density strictly exceeds candidate j's (ties count
    for neither).  Strategy ``closed_form_1d`` counts it from the region's
    interval endpoints with ``searchsorted`` on the sorted holdout, and
    compares stored log densities only for points next to an endpoint and
    for near-degenerate pairs; the counts equal the all-pairs comparison
    exactly, in ``O((m^2 + n) log n)`` time.  Strategies ``grid_1d`` and
    ``mc_pools`` evaluate every candidate on the holdout and count, for
    each pair of the list, the points where row i exceeds row j
    (:func:`pairwise_greater_counts`), in ``O(m^2 n)``.

    Both evaluate candidates with one :func:`log_densities` call per point
    set (a block of holdout columns, the ``grid_1d`` grid, and each of the
    ``m`` MC pools), which runs the batched, tiled kernel and gives the
    same bits as per-candidate :func:`log_density` calls.  The work is
    still ``O(m^2 n_pool)`` density terms for ``mc_pools`` and ``O(m^2 n)``
    comparisons for both; batching only shrinks its constant.

    That work is split into independent units, each with the same result
    wherever it runs: contiguous blocks of holdout columns (integer pair
    counts, summed and divided by ``holdout.n`` once), blocks of MC pool
    rows (a candidate's pool, its log densities, and its row of own-pool
    fractions), and blocks of the ``grid_1d`` pair list, split by pair
    count (each pair's mass one sum over the whole masked grid).  On Linux
    the units run on the program's ``fork`` worker pool
    (``utils._run_units``, shared with the gd encoder and the harness),
    one worker per available CPU, created at first use; they run
    in-process, one after the other, on a single CPU, without ``fork``,
    and inside a child process such as a pool worker running a harness
    trial.  Either way the winner and win vector are bit for bit those of
    a serial all-pairs loop.  A worker that dies raises
    :class:`WorkerPoolError`, and the next call starts a new pool.
    ``closed_form_1d`` always runs in-process.
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
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    # the one pair list: every strategy returns its masses in this order
    I, J = np.triu_indices(len(cands), 1)

    if d == 1 and all(isinstance(c, Gaussian) for c in cands):
        strategy = "closed_form_1d"
    elif d == 1:
        strategy = "grid_1d"
    else:
        strategy = "mc_pools"
    p_hat, p_i, p_j = _split_tournament(cands, holdout.points, I, J,
                                        strategy, seed, n_pool)

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
    exhaustive enumeration, which voids the 3*opt + 4*eps (L1) guarantee.
    """

    estimate: Distribution
    selection: SelectionResult
    candidate_count: int
    candidate_space: int
    budget_capped: bool
    enumeration: str


def _boost_rounds(delta: float) -> int:
    # disjoint-batch retries drive failure below delta/2
    return math.ceil(math.log(2.0 / delta) / math.log(3.0))


def _encoding_size(codec: Codec, eps: float, delta: float,
                   budget: int) -> int:
    """Check the reduction's arguments; return its encoding prefix length."""
    if not (0.0 < eps <= 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps must be in (0, 1] and delta in (0, 1)")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    return codec.spec.m_samples(eps / ENUM_ACCURACY_DIV) * _boost_rounds(delta)


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
    ``budget_capped``.  Selection runs on a fresh holdout slice at
    accuracy ``eps/16``.  Its ``3*opt + 4*eps`` bound, at that accuracy,
    is in L1 (``3*opt + 2*eps`` in TV; see :func:`holdout_size`) and
    relative to the best candidate decoded: ``opt`` is that
    candidate's distance to the target, whatever the target, so when no
    decoded candidate is close the bound says little.  Messages that fail
    to decode are dropped, so ``candidate_count`` can fall well below
    ``budget``.  A sampled g1d payload pairs a random-sign scale ratio
    with random references, and about half such messages decode to a
    negative scale (126 to 138 of 300 decoded in four seeded learns at
    eps 0.2).

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
    tau = codec.spec.tau(e_enum)
    layout = codec.layout(e_enum)
    space = n_enc ** tau * layout.count
    n_fill = budget - len(extras)
    capped = space > n_fill

    # messages are made one at a time and decoded at once; decoding draws
    # nothing, so each message takes its refs, then its payload, from rng
    if capped:
        messages = (CompressionMessage(codec.scheme_id,
                                       rng.integers(n_enc, size=tau),
                                       codec.random_payload(e_enum, rng))
                    for _ in range(n_fill))
    else:
        payloads = [layout.by_index(p) for p in range(layout.count)]
        refs = np.array(list(itertools.product(range(n_enc), repeat=tau)),
                        dtype=np.int64)
        messages = (CompressionMessage(codec.scheme_id, row, payload)
                    for row in refs for payload in payloads)
    enc_points = samp.points[:n_enc]
    decoded = []
    for msg in itertools.chain(extras, messages):
        try:
            decoded.append(codec.decode(msg, enc_points, e_enum))
        except DecodingError:
            continue
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
        budget_capped=capped,
        enumeration="sampled" if capped else "exhaustive")


def efficient_sample_size(d: int, eps: float, delta: float) -> int:
    """Even sample size ``2m`` for :func:`learn_gaussian_efficient`."""
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
