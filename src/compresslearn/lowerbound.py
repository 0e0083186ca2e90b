"""Minimax lower-bound instances: covariance families, codebooks, Fano.

The hard family perturbs the identity covariance along random
low-dimensional subspaces, ``Sigma_a = I + lambda * U_a U_a^T``, with the
subspaces resampled until every pair is nearly orthogonal.  Codebooks over
such families index mixture instances, and the Fano calculators turn the
family's pairwise KL bound and L1 separation into error and sample-count
figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import hamming_at_least
from .errors import ValidationError
from .gaussmodels import Gaussian, Mixture
from .utils import as_generator

LAMBDA_MAX = 0.25
FAMILY_MAX_ROUNDS = 100
CODEBOOK_CAP = 4096
CODEBOOK_PATIENCE = 2000  # consecutive rejected draws before stopping
_ORTHO_ATOL = 1e-10
_SPECTRUM_ATOL = 1e-9


def random_orthonormal(d: int, cols: int, seed) -> np.ndarray:
    """First ``cols`` columns of a rotation-invariant random orthogonal matrix.

    QR of a d x d standard Gaussian matrix with the triangular factor's
    diagonal forced positive, which makes the orthogonal factor exactly
    Haar distributed.
    """
    if d < 1 or cols < 1 or cols > d:
        raise ValidationError("need 1 <= cols <= d")
    rng = as_generator(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))[None, :]
    return q[:, :cols]


def cross_gram_sq(u_a: np.ndarray, u_b: np.ndarray) -> float:
    """Squared Frobenius norm of ``U_a^T U_b`` (subspace alignment)."""
    return float(np.sum((u_a.T @ u_b) ** 2))


def violating_pairs(us, bound: float) -> list:
    """Index pairs whose subspaces align more than ``bound`` allows."""
    bad = []
    for a in range(len(us)):
        for b in range(a + 1, len(us)):
            if cross_gram_sq(us[a], us[b]) > bound:
                bad.append((a, b))
    return bad


@dataclass(frozen=True)
class LowerBoundFamily:
    """Validated family ``Sigma_a = I + lambda * U_a U_a^T``.

    Each ``U_a`` is d x (d/r) with orthonormal columns; every covariance
    has exactly d/r eigenvalues ``1 + lambda`` and the rest 1.
    """

    d: int
    r: int
    lam: float
    us: tuple
    sigmas: tuple

    def __post_init__(self):
        if self.d % self.r != 0:
            raise ValidationError("d must be divisible by r")
        if not (0.0 < self.lam <= LAMBDA_MAX):
            raise ValidationError(f"lambda must lie in (0, {LAMBDA_MAX}]")
        cols = self.d // self.r
        for u in self.us:
            if u.shape != (self.d, cols):
                raise ValidationError("subspace matrix has the wrong shape")
            if np.abs(u.T @ u - np.eye(cols)).max() > _ORTHO_ATOL:
                raise ValidationError("subspace columns are not orthonormal")
        for sig in self.sigmas:
            eig = np.sort(np.linalg.eigvalsh(sig))
            want = np.concatenate([np.ones(self.d - cols),
                                   np.full(cols, 1.0 + self.lam)])
            if np.abs(eig - want).max() > _SPECTRUM_ATOL:
                raise ValidationError("covariance spectrum is off pattern")

    @property
    def size(self) -> int:
        return len(self.us)

    def gaussian(self, a: int) -> Gaussian:
        return Gaussian(np.zeros(self.d), self.sigmas[a])

    def sigma_inv(self, a: int) -> np.ndarray:
        # rank-one-per-column Woodbury identity; exact for this family
        u = self.us[a]
        return np.eye(self.d) - (self.lam / (1.0 + self.lam)) * (u @ u.T)


def family_lambda(d: int, eps: float, c_lambda: float = 1.0) -> float:
    """The perturbation size ``c_lambda * eps / sqrt(d)``; must be <= 1/4."""
    lam = c_lambda * eps / math.sqrt(d)
    if lam > LAMBDA_MAX:
        raise ValidationError(
            f"lambda = {lam:.4f} exceeds {LAMBDA_MAX}; shrink eps or c_lambda")
    if lam <= 0.0:
        raise ValidationError("lambda must be positive")
    return lam


def cross_bound(d: int, r: int) -> float:
    """Pairwise alignment threshold ``d / (2r)`` a valid family must meet."""
    return d / (2.0 * r)


def make_lb_family(d: int, r: int, eps: float, m_family: int, seed,
                   c_lambda: float = 1.0) -> LowerBoundFamily:
    """Draw ``m_family`` random subspaces, resampling until all pairs separate.

    Subspaces involved in any pair with ``|U_a^T U_b|_F^2 > d/(2r)`` are
    redrawn, up to ``FAMILY_MAX_ROUNDS`` rounds; a persistent failure raises
    with the count of violating pairs.
    """
    if r < 9:
        raise ValidationError("subspace ratio r must be at least 9")
    if d < 1 or d % r != 0:
        raise ValidationError(f"d must be a positive multiple of r = {r}")
    if m_family < 1:
        raise ValidationError("family size must be at least 1")
    lam = family_lambda(d, eps, c_lambda)
    cols = d // r
    rng = as_generator(seed)
    us = [random_orthonormal(d, cols, rng) for _ in range(m_family)]
    bound = cross_bound(d, r)
    for _ in range(FAMILY_MAX_ROUNDS):
        bad = violating_pairs(us, bound)
        if not bad:
            break
        for idx in sorted({i for pair in bad for i in pair}):
            us[idx] = random_orthonormal(d, cols, rng)
    else:
        bad = violating_pairs(us, bound)
        raise ValidationError(
            f"family construction failed: {len(bad)} pairs still violate "
            f"the alignment bound after {FAMILY_MAX_ROUNDS} rounds")
    sigmas = tuple(np.eye(d) + lam * (u @ u.T) for u in us)
    return LowerBoundFamily(d=d, r=r, lam=lam, us=tuple(us), sigmas=sigmas)


def kl_pair(fam: LowerBoundFamily, a: int, b: int) -> float:
    """Closed-form KL between members ``a`` and ``b`` of the family.

    Equals ``(lam^2 / (2(1+lam))) * (d/r - |U_a^T U_b|_F^2)``; the log-det
    term vanishes because all members share one spectrum.
    """
    if a == b:
        return 0.0
    lam = fam.lam
    ratio = fam.d / fam.r
    cross = cross_gram_sq(fam.us[a], fam.us[b])
    return 0.5 * (lam * ratio - lam / (1.0 + lam) * ratio
                  - lam ** 2 / (1.0 + lam) * cross)


def kl_upper_bound(fam: LowerBoundFamily) -> float:
    """Uniform pairwise KL bound ``lam^2 d / (2 (1+lam) r)`` for the family."""
    return fam.lam ** 2 * fam.d / (2.0 * (1.0 + fam.lam) * fam.r)


def tv_separation(fam: LowerBoundFamily) -> float:
    """Certified pairwise separation floor ``lam * sqrt(d/r) / 2``."""
    return fam.lam * math.sqrt(fam.d / fam.r) / 2.0


def tv_pair_lower(fam: LowerBoundFamily, a: int, b: int) -> float:
    """Frobenius separation ``|Sigma_a^{-1} Sigma_b - I|_F`` of a pair.

    For distinct members of a valid family this must be at least
    ``lam * sqrt(d/r) / 2`` (raises otherwise); it certifies a total
    variation gap of the same order.
    """
    if a == b:
        return 0.0
    value = float(np.linalg.norm(
        fam.sigma_inv(a) @ fam.sigmas[b] - np.eye(fam.d)))
    floor = tv_separation(fam)
    if value < floor:
        raise ValidationError(
            f"pair ({a}, {b}) separation {value:.6f} below the certified "
            f"floor {floor:.6f}")
    return value


@dataclass(frozen=True)
class Codebook:
    """Words over alphabet ``[T]`` with pairwise Hamming distance >= ceil(k/4)."""

    t_alphabet: int
    k: int
    words: np.ndarray

    def __post_init__(self):
        words = np.asarray(self.words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.k:
            raise ValidationError("words must have shape (M, k)")
        if words.size and (words.min() < 0 or words.max() >= self.t_alphabet):
            raise ValidationError("word symbols must lie in [0, T)")
        words.setflags(write=False)
        object.__setattr__(self, "words", words)

    @property
    def size(self) -> int:
        return int(self.words.shape[0])

    @property
    def min_distance(self) -> int:
        return math.ceil(self.k / 4)


def verify_codebook(book: Codebook) -> bool:
    """Exhaustive pairwise Hamming audit against the book's min distance."""
    words = book.words
    for i in range(book.size - 1):
        if not hamming_at_least(words[i + 1:], words[i], book.min_distance):
            return False
    return True


def make_codebook(t_alphabet: int, k: int, seed,
                  cap: int = CODEBOOK_CAP) -> Codebook:
    """Greedy random code with pairwise Hamming distance >= ceil(k/4).

    Uniform words are kept when far from all kept words; the build stops at
    ``cap`` words or after ``CODEBOOK_PATIENCE`` consecutive rejections.
    Raises if even two words cannot be placed.
    """
    if t_alphabet < 4:
        raise ValidationError("alphabet size must be at least 4")
    if k < 1:
        raise ValidationError("word length must be at least 1")
    dmin = math.ceil(k / 4)
    rng = as_generator(seed)
    kept = np.empty((0, k), dtype=np.int64)
    rejects = 0
    while kept.shape[0] < cap and rejects < CODEBOOK_PATIENCE:
        cand = rng.integers(t_alphabet, size=k).astype(np.int64)
        if kept.shape[0] == 0 or hamming_at_least(kept, cand, dmin):
            kept = np.vstack([kept, cand[None, :]])
            rejects = 0
        else:
            rejects += 1
    if kept.shape[0] < 2:
        raise ValidationError(
            f"could not place two words at distance {dmin} within patience")
    return Codebook(t_alphabet=t_alphabet, k=k, words=kept)


def mixture_mean_separation(d: int, k: int, eps: float) -> float:
    """Component mean spacing: ``Delta^2 / 8 = d + 2 sqrt(dt) + 2t``.

    ``t = 2 ln(k/eps)`` makes a norm-concentration tail of each component
    fall below ``(eps/k)^2``, so components barely overlap.
    """
    if not (0.0 < eps < k):
        raise ValidationError("need 0 < eps < k for the separation formula")
    t = 2.0 * math.log(k / eps)
    return math.sqrt(8.0 * (d + 2.0 * math.sqrt(d * t) + 2.0 * t))


def make_mixture_lb_family(d: int, r: int, k: int, eps: float, seed,
                           n_covs: int = 4,
                           max_mixtures: int = 64) -> list:
    """Hard mixture instances: separated means, codeword-indexed covariances.

    Means sit at ``(Delta / sqrt 2) e_i`` so all pairwise distances equal
    ``Delta`` exactly; each codeword over the covariance family yields one
    uniform k-component mixture.
    """
    if k < 1 or k > d:
        raise ValidationError("need 1 <= k <= d for simplex mean placement")
    rng = as_generator(seed)
    fam = make_lb_family(d, r, eps, n_covs, rng)
    delta = mixture_mean_separation(d, k, eps)
    means = np.zeros((k, d))
    for i in range(k):
        means[i, i] = delta / math.sqrt(2.0)
    if k > 1:
        book = make_codebook(n_covs, k, rng, cap=max_mixtures)
        words = book.words
    else:
        words = np.arange(min(n_covs, max_mixtures), dtype=np.int64)[:, None]
    weights = np.full(k, 1.0 / k)
    return [
        Mixture(weights, [Gaussian(means[i], fam.sigmas[int(w[i])])
                          for i in range(k)])
        for w in words
    ]


@dataclass(frozen=True)
class FanoInputs:
    """Family size, pairwise KL bound, L1 separation, and sample count."""

    m_family: int
    kappa: float
    alpha: float
    n: int

    def __post_init__(self):
        if self.m_family < 2:
            raise ValidationError("family size must be at least 2")
        if self.kappa < 0.0:
            raise ValidationError("kappa must be nonnegative")
        if not (0.0 < self.alpha <= 2.0):
            raise ValidationError("alpha must lie in (0, 2]")
        if self.n < 0:
            raise ValidationError("n must be nonnegative")


def fano_error_bound(inp: FanoInputs) -> float:
    """Worst-case estimation error floor ``alpha (ln M - n kappa + ln 2) / (2 ln M)``.

    Clamped below at zero; a positive value means no estimator can beat it
    on the family.
    """
    log_m = math.log(inp.m_family)
    value = inp.alpha * (log_m - inp.n * inp.kappa + math.log(2.0)) \
        / (2.0 * log_m)
    return max(0.0, value)


def fano_sample_lower(m_family: int, kappa_of_eps: float, eps: float) -> float:
    """Sample-count floor ``ln(M) / (kappa(eps) * ln(1/eps))``.

    A reporting calculator with constant 1; the rate expression, not a
    certified bound.
    """
    if m_family < 2:
        raise ValidationError("family size must be at least 2")
    if kappa_of_eps <= 0.0:
        raise ValidationError("kappa must be positive")
    if not (0.0 < eps < 0.5):
        raise ValidationError("eps must lie in (0, 1/2)")
    return math.log(m_family) / (kappa_of_eps * math.log(1.0 / eps))
