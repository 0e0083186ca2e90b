"""Learning algorithms built on the compression codecs.

``select_candidate`` runs a Scheffe tournament over a finite candidate
list.  ``learn_from_compression`` turns any codec into a learner by
enumerating (or sampling) candidate messages, decoding them against a
held sample prefix, and selecting on a fresh holdout.
``learn_gaussian_efficient`` is the polynomial-time single-Gaussian
estimator, and ``learn_mixture_agnostic`` assembles mixture candidates
from per-component messages of the contamination-robust codec.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import ndtr

from ._kernels import pairwise_greater_fraction
from .compression import CompressionMessage, Codec, gd_codec
from .errors import DecodingError, ValidationError
from .gaussmodels import (Gaussian, LabeledSample, Mixture, log_densities,
                          log_density, sample)
from .nets import Net, net_simplex
from .utils import as_generator

Distribution = Union[Gaussian, Mixture]

SCHEFFE_MC_POOL = 5000      # MC draws per candidate for d > 1 region masses
SCHEFFE_GRID_POINTS = 8193  # shared quadrature grid for 1-D mixtures
SCHEFFE_GRID_SIGMAS = 10.0
# relative width, against the size of the log-density terms, of the bands
# around 1-D region roots where holdout points are compared on stored values
REGION_BAND_TOL = 2.0 ** -36
EFFICIENT_SAMPLE_CONST = 8.0
# enumeration runs at eps/6 and selection at eps/16 so the tournament's
# 3*opt + 4*eps_sel guarantee lands within eps overall
ENUM_ACCURACY_DIV = 6.0
SELECT_ACCURACY_DIV = 16.0
AGNOSTIC_COMPONENT_DIV = 10.0
AGNOSTIC_SELECT_DIV = 40.0


def holdout_size(n_candidates: int, eps: float, delta: float) -> int:
    """Points needed to select among ``n_candidates`` at accuracy ``eps``.

    The tournament's union bound over candidate pairs needs
    ``ceil(ln(3 M^2 / delta) / (2 eps^2))`` holdout points for the
    3*opt + 4*eps guarantee to hold with probability ``1 - delta/3``.
    """
    if n_candidates < 1:
        raise ValidationError("need at least one candidate")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps and delta must lie in (0, 1)")
    return math.ceil(math.log(3.0 * n_candidates ** 2 / delta)
                     / (2.0 * eps ** 2))


@dataclass(frozen=True)
class CandidateSet:
    """Candidate distributions plus per-candidate provenance tags."""

    candidates: tuple
    provenance: tuple

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValidationError("candidate set must be nonempty")
        if len(self.provenance) != len(self.candidates):
            raise ValidationError("need one provenance entry per candidate")
        dims = {c.dim for c in self.candidates}
        if len(dims) != 1:
            raise ValidationError("candidates must share one dimension")

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class SelectionResult:
    """Tournament outcome: winning index, per-candidate wins, holdout size."""

    index: int
    scheffe_wins: np.ndarray
    n_holdout: int
    strategy: str


def _pair_coefficients(mu: np.ndarray, var: np.ndarray, I: np.ndarray,
                       J: np.ndarray):
    """``(a, b, c)`` with ``log f_i(x) - log f_j(x) = a x^2 + b x + c``.

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
    return a, b, c


def _region_masses(mu, var, I, J, a, b, c):
    """Masses candidates ``I`` and ``J`` give to ``{f_i > f_j}``, per pair.

    The quadratic ``a x^2 + b x + c`` is positive on the empty set, one
    interval, a half line, its complement, or all of R.  Each region is
    written as two intervals ``(lo, hi)``; an unused one is ``(inf, inf)``,
    which adds exactly zero mass.
    """
    inf = math.inf
    lo = np.full((2, len(I)), inf)
    hi = np.full((2, len(I)), inf)
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        ra = (-b - sq) / (2.0 * a)
        rb = (-b + sq) / (2.0 * a)
        root = -c / b
    r1, r2 = np.minimum(ra, rb), np.maximum(ra, rb)
    linear = a == 0.0
    everywhere = np.where(linear, (b == 0.0) & (c > 0.0),
                          (disc <= 0.0) & (a > 0.0))
    lo[0, everywhere] = -inf
    rising = linear & (b > 0.0)
    lo[0, rising] = root[rising]
    falling = linear & (b < 0.0)
    lo[0, falling] = -inf
    hi[0, falling] = root[falling]
    tails = ~linear & (disc > 0.0) & (a > 0.0)
    lo[0, tails] = -inf
    hi[0, tails] = r1[tails]
    lo[1, tails] = r2[tails]
    bump = ~linear & (disc > 0.0) & (a < 0.0)
    lo[0, bump] = r1[bump]
    hi[0, bump] = r2[bump]

    def mass(k):
        m_k = mu[k]
        sd = np.sqrt(var[k])
        total = (ndtr((hi[0] - m_k) / sd) - ndtr((lo[0] - m_k) / sd)) \
            + (ndtr((hi[1] - m_k) / sd) - ndtr((lo[1] - m_k) / sd))
        return np.minimum(1.0, np.maximum(0.0, total))

    return mass(I), mass(J)


def _closed_form_counts(mu, var, I, J, a, b, c, cands, points):
    """Holdout points where ``log f_i > log f_j``, per pair of 1-D Gaussians.

    Equal, tie for tie, to counting ``ld[i] > ld[j]`` over the stored
    holdout log densities ``ld[k] = log_density(cands[k], points)``, in
    ``O((m^2 + n) log n)`` instead of ``O(m^2 n)``.  With ``P`` the
    quadratic of :func:`_pair_coefficients`, a stored difference
    ``ld[i] - ld[j]`` lies within ``slack`` of ``P(x)`` on the data range
    (rounding in the log densities and the coefficients is far below
    ``REGION_BAND_TOL`` times the size of their terms).  So:

    * the roots of ``P`` (numerically stable form) get bands wide enough
      that ``|P| > slack`` just outside them;
    * the signs of ``P`` are checked at the four band edges (or at the
      vertex when ``P`` has no root), which proves each band holds a root
      and that ``|P| > slack``, hence the stored comparison agrees with the
      sign of ``P``, everywhere outside the bands;
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
    mi, si2 = mu[I], var[I]
    mj, sj2 = mu[J], var[J]
    a_abs = 0.5 / si2 + 0.5 / sj2
    b_abs = np.abs(mi) / si2 + np.abs(mj) / sj2
    c_abs = mi * mi / (2.0 * si2) + mj * mj / (2.0 * sj2) \
        + 0.5 * (np.abs(np.log(si2)) + np.abs(np.log(sj2))) + 2.0

    def size(t):
        t = np.abs(t)
        return (a_abs * t + b_abs) * t + c_abs

    def holds(t, sign):
        """``P(t)`` has ``sign`` with a margin beyond rounding and slack."""
        p_t = (a * t + b) * t + c
        return (np.sign(p_t) == sign) & (np.abs(p_t) > slack + tol * size(t))

    inf = math.inf
    slack = tol * size(max(abs(xs[0]), abs(xs[-1])))
    disc = b * b - 4.0 * a * c
    quad = (a != 0.0) & (disc > 0.0)
    lin = (a == 0.0) & (b != 0.0)
    flat = ~quad & ~lin
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(np.where(quad, disc, 0.0))
        q = -0.5 * (b + np.copysign(sq, b))
        r1 = np.where(quad, np.minimum(q / a, c / q), -c / b)
        r2 = np.where(quad, np.maximum(q / a, c / q), inf)
        # a falling line's root is the right end of its positive part
        falling = lin & (b < 0.0)
        r1, r2 = np.where(falling, -inf, r1), np.where(falling, r1, r2)
        slope = np.where(quad, sq, np.abs(b))
        vertex = np.where(a != 0.0, -b / (2.0 * a), 0.0)
        # sign on the outer segments, and between the two roots
        s_out = np.where(quad, np.sign(a), -1.0)
        s_out = np.where(flat, np.sign((a * vertex + b) * vertex + c), s_out)
        s_mid = -s_out
        no_root = holds(vertex, s_out) & ((a == 0.0) | (s_out == np.sign(a)))
        finite_roots = np.isfinite(np.where(falling, r2, r1)) \
            & (~quad | np.isfinite(r2))
        ok = np.where(flat, no_root, finite_roots)
        edges = []
        for r, sides in ((r1, (s_out, s_mid)), (r2, (s_mid, s_out))):
            w = 4.0 * (slack + tol * size(r)) / slope + tol * np.abs(r)
            real = ~flat & np.isfinite(r)
            lo_e, hi_e = r - w, r + w
            ok &= ~real | (np.isfinite(w) & holds(lo_e, sides[0])
                           & holds(hi_e, sides[1]))
            edges += [np.where(real, lo_e, np.where(flat, inf, r)),
                      np.where(real, hi_e, np.where(flat, inf, r))]
        ok &= flat | (edges[1] < edges[2])
    e1, e2, e3, e4 = (np.where(ok, e, inf) for e in edges)
    p1 = np.searchsorted(xs, e1, "left")
    p2 = np.searchsorted(xs, e2, "right")
    p3 = np.searchsorted(xs, e3, "left")
    p4 = np.searchsorted(xs, e4, "right")
    counts = np.where(s_out > 0.0, p1 + (n - p4), 0) \
        + np.where(s_mid > 0.0, p3 - p2, 0)
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
    a, b, c = _pair_coefficients(mu, var, I, J)
    p_i, p_j = _region_masses(mu, var, I, J, a, b, c)
    counts = _closed_form_counts(mu, var, I, J, a, b, c, cands, points)
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


def select_candidate(cands, holdout: LabeledSample, eps: float, seed=0,
                     n_pool: int = SCHEFFE_MC_POOL) -> SelectionResult:
    """Pick the candidate whose density best matches the holdout sample.

    For every candidate pair (i, j) with i < j the comparison region is
    ``{x : f_i(x) > f_j(x)}``.  The pair's winner is the candidate whose
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
    ``mc_pools`` evaluate every candidate on the holdout and compare all
    pairs of rows with :func:`pairwise_greater_fraction`, in ``O(m^2 n)``.

    Both evaluate candidates with one :func:`log_densities` call per point
    set (the holdout, the ``grid_1d`` grid, and each of the ``m`` MC pools),
    which runs the batched, tiled kernel and gives the same bits as
    per-candidate :func:`log_density` calls.  The work is still
    ``O(m^2 n_pool)`` density terms for ``mc_pools`` and ``O(m^2 n)``
    comparisons for both; batching only shrinks its constant.
    """
    if isinstance(cands, CandidateSet):
        cands = cands.candidates
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
    m_cands = len(cands)
    I, J = np.triu_indices(m_cands, 1)

    if d == 1 and all(isinstance(c, Gaussian) for c in cands):
        strategy = "closed_form_1d"
    elif d == 1:
        strategy = "grid_1d"
    else:
        strategy = "mc_pools"

    if strategy == "closed_form_1d":
        p_hat, p_i, p_j = _closed_form_1d(cands, holdout.points, I, J)
    else:
        p_hat = pairwise_greater_fraction(
            log_densities(cands, holdout.points))[I, J]

    if strategy == "grid_1d":
        grid = _shared_grid(cands)
        dx = grid[1] - grid[0]
        weights = np.full(grid.shape, dx)
        weights[0] = weights[-1] = 0.5 * dx
        ld_grid = log_densities(cands, grid[:, None])
        dens_w = np.exp(ld_grid) * weights
        p_i = np.empty(len(I))
        p_j = np.empty(len(I))
        for k, (i, j) in enumerate(zip(I, J)):
            mask = ld_grid[i] > ld_grid[j]
            p_i[k] = min(1.0, float(dens_w[i][mask].sum()))
            p_j[k] = min(1.0, float(dens_w[j][mask].sum()))
    elif strategy == "mc_pools":
        salt = int(as_generator(seed).integers(1 << 62))
        # prob_own[i, j] = mass candidate i assigns to {f_i > f_j},
        # estimated from candidate i's own pool
        prob_own = np.zeros((m_cands, m_cands))
        for i, cand in enumerate(cands):
            pool = sample(cand, n_pool, _pool_seed(cand, salt)).points
            ld = log_densities(cands, pool)
            prob_own[i] = (ld[i][None, :] > ld).mean(axis=1)
        p_i = prob_own[I, J]
        # complement of {f_j > f_i} under f_j; ties between distinct
        # densities have measure zero
        p_j = 1.0 - prob_own[J, I]

    i_wins = np.abs(p_i - p_hat) <= np.abs(p_j - p_hat)
    wins = np.bincount(I[i_wins], minlength=m_cands) \
        + np.bincount(J[~i_wins], minlength=m_cands)
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
    exhaustive enumeration, which voids the 3*opt + 4*eps guarantee.
    """

    estimate: Distribution
    selection: SelectionResult
    candidate_count: int
    candidate_space: int
    budget_capped: bool
    enumeration: str


def _boost_rounds(delta: float, arms: int = 2) -> int:
    # disjoint-batch retries drive failure below delta/arms
    return math.ceil(math.log(arms / delta) / math.log(3.0))


def compression_sample_size(codec: Codec, eps: float, delta: float,
                            budget: int) -> int:
    """Upper bound on the points :func:`learn_from_compression` consumes."""
    n_enc = codec.spec.m_samples(eps / ENUM_ACCURACY_DIV) * _boost_rounds(delta)
    return n_enc + holdout_size(budget, eps / SELECT_ACCURACY_DIV, delta / 2.0)


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
    accuracy ``eps/16``.  Messages that fail to decode are dropped, so
    ``candidate_count`` can fall well below ``budget``.  A sampled g1d
    payload pairs a random-sign scale ratio with random references, and
    about half such messages decode to a negative scale (126 to 138 of
    300 decoded in four seeded learns at eps 0.2).
    """
    if not (0.0 < eps <= 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps must be in (0, 1] and delta in (0, 1)")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    extras = list(extra_messages)
    if len(extras) > budget:
        raise ValidationError("extra messages exceed the budget")
    e_enum = eps / ENUM_ACCURACY_DIV
    e_sel = eps / SELECT_ACCURACY_DIV
    rng = as_generator(seed)
    n_enc = codec.spec.m_samples(e_enum) * _boost_rounds(delta)
    if samp.n < n_enc:
        raise ValidationError(f"need at least {n_enc} encoding points")
    tau = codec.spec.tau(e_enum)
    space = n_enc ** tau * codec.payload_count(e_enum)
    n_fill = budget - len(extras)
    capped = space > n_fill

    messages = extras.copy()
    provenance = ["extra"] * len(extras)
    if capped:
        for _ in range(n_fill):
            refs = rng.integers(n_enc, size=tau)
            messages.append(CompressionMessage(
                codec.scheme_id, refs, codec.random_payload(e_enum, rng)))
            provenance.append("sampled")
    else:
        payloads = [codec.payload_by_index(e_enum, p)
                    for p in range(codec.payload_count(e_enum))]
        for refs in itertools.product(range(n_enc), repeat=tau):
            refs = np.asarray(refs, dtype=np.int64)
            for payload in payloads:
                messages.append(CompressionMessage(codec.scheme_id, refs,
                                                   payload))
                provenance.append("enumerated")

    enc_points = samp.points[:n_enc]
    decoded = []
    tags = []
    for msg, tag in zip(messages, provenance):
        try:
            decoded.append(codec.decode(msg, enc_points, e_enum))
        except DecodingError:
            continue
        tags.append(tag)
    if not decoded:
        raise ValidationError("no candidate message decoded to a distribution")
    cand_set = CandidateSet(tuple(decoded), tuple(tags))

    n_hold = holdout_size(len(decoded), e_sel, delta / 2.0)
    if samp.n < n_enc + n_hold:
        raise ValidationError(
            f"need at least {n_enc + n_hold} points for this budget")
    holdout = LabeledSample(samp.points[n_enc:n_enc + n_hold])
    sel = select_candidate(cand_set, holdout, e_sel, rng)
    return LearnResult(
        estimate=decoded[sel.index], selection=sel,
        candidate_count=len(decoded), candidate_space=space,
        budget_capped=capped,
        enumeration="sampled" if capped else "exhaustive")


def efficient_sample_size(d: int, eps: float, delta: float,
                          c: float = EFFICIENT_SAMPLE_CONST) -> int:
    """Even sample size ``2m`` for :func:`learn_gaussian_efficient`."""
    if d < 1:
        raise ValidationError("d must be >= 1")
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps and delta must lie in (0, 1)")
    return 2 * math.ceil(c * (d * d + d * math.log(1.0 / delta)) / eps ** 2)


def learn_gaussian_efficient(samp: LabeledSample,
                             d: Optional[int] = None) -> Gaussian:
    """Moment estimator: sample mean plus difference-pair covariance.

    With ``2m`` points, the mean is averaged over the first ``m`` and the
    covariance is ``(1/2m) * sum of (v_{2i} - v_{2i-1}) outer products``
    over all ``m`` consecutive pairs; pairing cancels the unknown mean.
    Raises when the pair count cannot produce a full-rank covariance or the
    draw happens to be degenerate.
    """
    if d is None:
        d = samp.dim
    elif d != samp.dim:
        raise ValidationError("d does not match the sample dimension")
    if samp.n % 2 != 0 or samp.n < 2 * (d + 1):
        raise ValidationError(
            f"need an even sample of at least {2 * (d + 1)} points")
    m = samp.n // 2
    mean = samp.points[:m].mean(axis=0)
    diffs = samp.points[1::2] - samp.points[0::2]
    cov = diffs.T @ diffs / (2.0 * m)
    return Gaussian(mean, cov)


def agnostic_component_codec(d: int) -> Codec:
    """The contamination-robust base codec the mixture learner composes."""
    return gd_codec(d)


def agnostic_main_size(k: int, d: int, eps: float, delta: float) -> int:
    """Main-phase sample count for :func:`learn_mixture_agnostic`.

    Sized so every component of weight at least ``eps/(10k)`` receives
    several disjoint encoding batches with high probability.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    m_base = agnostic_component_codec(d).spec.m_samples(
        eps / AGNOSTIC_COMPONENT_DIV)
    mult = math.ceil(160.0 * k * math.log(3.0 * k / delta) / eps)
    return mult * m_base


def agnostic_sample_size(k: int, d: int, eps: float, delta: float,
                         budget: int) -> int:
    """Upper bound on the points :func:`learn_mixture_agnostic` consumes."""
    return agnostic_main_size(k, d, eps, delta) + holdout_size(
        budget, eps / AGNOSTIC_SELECT_DIV, delta / 2.0)


def _nearest_net_weights(net: Net, weights: np.ndarray) -> np.ndarray:
    gaps = np.abs(net.points - weights[None, :]).max(axis=1)
    return net.points[int(np.argmin(gaps))]


def _oracle_candidate(base: Codec, oracle: Mixture, pts: np.ndarray,
                      labels: np.ndarray, k: int, e_comp: float,
                      net: Net, d: int) -> Mixture:
    """Assemble the candidate an exhaustive enumeration would contain.

    Encodes each non-negligible component of the known target from its own
    labeled points (retrying over disjoint batches) and snaps the true
    weights to the weight net.  Components that stay unencoded get the
    standard-Gaussian placeholder, mirroring the decoder's convention.
    """
    m_base = base.spec.m_samples(e_comp)
    comps = []
    for i in range(k):
        decoded = None
        weight = oracle.weights[i] if i < oracle.n_components else 0.0
        if weight > net.radius:
            rows = np.nonzero(labels == i)[0]
            for b in range(len(rows) // m_base):
                chunk = rows[b * m_base:(b + 1) * m_base]
                outcome = base.encode(oracle.components[i],
                                      LabeledSample(pts[chunk]), e_comp)
                if outcome.ok:
                    msg = CompressionMessage(
                        base.scheme_id,
                        chunk[outcome.message.sample_refs],
                        outcome.message.bits)
                    decoded = base.decode(msg, pts, e_comp)
                    break
        comps.append(decoded if decoded is not None
                     else Gaussian(np.zeros(d), np.eye(d)))
    padded = np.zeros(k)
    padded[:oracle.n_components] = oracle.weights
    return Mixture(_nearest_net_weights(net, padded), comps)


def learn_mixture_agnostic(samp: LabeledSample, k: int, eps: float,
                           delta: float, budget: int, seed,
                           oracle_target: Optional[Mixture] = None
                           ) -> LearnResult:
    """Learn a k-component mixture from labeled samples, tolerating junk.

    Candidates are mixtures assembled from a weight-net point plus one
    message of the robust per-component codec per slot, drawn uniformly at
    random (the full space always dwarfs any practical budget, so this
    learner is budget-capped by construction).  ``oracle_target`` is a test
    hook standing in for exhaustiveness: when set, the candidate an actual
    encoder run would produce is planted at index 0 and counts against the
    budget.  Against a target within L1 distance rho of some k-component
    mixture, the aimed-for selection error is ``6 rho / r + eps`` with the
    base codec's contamination radius ``r``.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 < eps <= 1.0) or not (0.0 < delta < 1.0):
        raise ValidationError("eps must be in (0, 1] and delta in (0, 1)")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    if samp.labels is None:
        raise ValidationError("agnostic mixture learning needs labels")
    d = samp.dim
    base = agnostic_component_codec(d)
    e_comp = eps / AGNOSTIC_COMPONENT_DIV
    e_sel = eps / AGNOSTIC_SELECT_DIV
    rng = as_generator(seed)
    n_main = agnostic_main_size(k, d, eps, delta)
    if samp.n < n_main:
        raise ValidationError(f"need at least {n_main} main-phase points")
    pts = samp.points[:n_main]
    labels = samp.labels[:n_main]
    net = net_simplex(k, eps / (AGNOSTIC_COMPONENT_DIV * k))
    tau_b = base.spec.tau(e_comp)

    decoded = []
    tags = []
    if oracle_target is not None:
        if not isinstance(oracle_target, Mixture) \
                or oracle_target.n_components > k or oracle_target.dim != d:
            raise ValidationError(
                "oracle target must be a mixture of at most k components")
        decoded.append(_oracle_candidate(base, oracle_target, pts, labels,
                                         k, e_comp, net, d))
        tags.append("oracle")
    n_fill = budget - len(decoded)
    for _ in range(n_fill):
        weights = net.points[int(rng.integers(net.size))]
        comps = []
        for _slot in range(k):
            msg = CompressionMessage(base.scheme_id,
                                     rng.integers(n_main, size=tau_b),
                                     base.random_payload(e_comp, rng))
            try:
                comps.append(base.decode(msg, pts, e_comp))
            except DecodingError:
                comps.append(Gaussian(np.zeros(d), np.eye(d)))
        decoded.append(Mixture(weights, comps))
        tags.append("random")
    cand_set = CandidateSet(tuple(decoded), tuple(tags))

    n_hold = holdout_size(len(decoded), e_sel, delta / 2.0)
    if samp.n < n_main + n_hold:
        raise ValidationError(
            f"need at least {n_main + n_hold} points for this budget")
    holdout = LabeledSample(samp.points[n_main:n_main + n_hold])
    sel = select_candidate(cand_set, holdout, e_sel, rng)
    space = net.size * (n_main ** tau_b * base.payload_count(e_comp)) ** k
    return LearnResult(
        estimate=decoded[sel.index], selection=sel,
        candidate_count=len(decoded), candidate_space=space,
        budget_capped=True, enumeration="sampled")
