"""Combinators that lift a base codec to products and mixtures.

Both combinators boost the base encoder by retrying on disjoint sample
batches.  The base encoder self-verifies (it knows the target and reports
failure), so per-slot failure probability shrinks geometrically with the
number of batches and a union bound over slots keeps the composite
failure probability at most 1/3.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ValidationError
from ..gaussmodels import Gaussian, LabeledSample, Mixture
from .message import (SCHEME_MIXTURE, SCHEME_PRODUCT, CompressionMessage,
                      PayloadLayout)
from .scheme import Codec, EncodeOutcome, check_eps

# negligible mixture weight: at most eps / (NEGLIGIBLE_DIV * k)
NEGLIGIBLE_DIV = 6.0
_DIAG_OFF_RTOL = 1e-12


def _diag_or_raise(cov: np.ndarray) -> np.ndarray:
    diag = np.diag(cov)
    off = cov - np.diag(diag)
    if np.abs(off).max(initial=0.0) > _DIAG_OFF_RTOL * max(1.0, diag.max()):
        raise ValidationError("product codec requires a diagonal covariance")
    return diag


def _encode_in_batches(base: Codec, target, points: np.ndarray,
                       rows: np.ndarray, m_base: int, eps: float):
    """``base.encode`` on consecutive ``m_base``-row batches of ``rows`` until
    one succeeds: the last outcome (None if there was no full batch) and, on
    success, its references as rows of ``points``."""
    outcome = None
    for start in range(0, len(rows) - m_base + 1, m_base):
        chunk = rows[start:start + m_base]
        outcome = base.encode(target, LabeledSample(points[chunk]), eps)
        if outcome.ok:
            return outcome, chunk[outcome.message.sample_refs]
    return outcome, None


def _slot_decodes(base: Codec, refs, digits, pts_of, e: float, n: int,
                  first_field: int = 0):
    """``base.decode_rows`` at accuracy ``e`` of each of the ``n`` slots of
    composite rows: slot ``i`` is the ``i``-th run of base references and,
    from ``first_field``, of base payload digits, and sees ``pts_of(i)``."""
    tau_b = base.tau(e)
    f_b = len(base.layout(e).radices)
    return [base.decode_rows(
        refs[:, i * tau_b:(i + 1) * tau_b],
        digits[:, first_field + i * f_b:first_field + (i + 1) * f_b],
        pts_of(i), e) for i in range(n)]


def compose_product(base: Codec, d: int) -> Codec:
    """Codec for d-dimensional axis-aligned Gaussians built from a 1-D codec.

    Each marginal is encoded to accuracy ``eps / d`` so the total variation
    of the product telescopes to at most ``eps``.  All marginals share the
    same sample rows; marginal ``j`` reads column ``j``.  A marginal that
    fails a batch retries on the next of ``ceil(log3(3d))`` disjoint
    batches.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    n_batches = math.ceil(math.log(3 * d) / math.log(3.0))

    def sub_eps(eps: float) -> float:
        check_eps(eps)
        return eps / d

    def m_samples(eps: float) -> int:
        return n_batches * base.m_samples(sub_eps(eps))

    def encode(target, samp: LabeledSample, eps: float) -> EncodeOutcome:
        if not isinstance(target, Gaussian):
            raise ValidationError("product codec encodes Gaussians")
        variances = _diag_or_raise(target.cov)
        e = sub_eps(eps)
        m_base = base.m_samples(e)
        rows = np.arange(n_batches * m_base)
        all_refs = []
        all_bits = []
        for j in range(d):
            marginal = Gaussian([target.mean[j]], [[variances[j]]])
            outcome, refs = _encode_in_batches(
                base, marginal, samp.points[:, j:j + 1], rows, m_base, e)
            if refs is None:
                return EncodeOutcome.failure(
                    f"marginal {j} failed all {n_batches} batches: "
                    f"{outcome.reason if outcome else 'no batch'}")
            all_refs.append(refs)
            all_bits.append(outcome.message.bits)
        return EncodeOutcome.success(CompressionMessage(
            SCHEME_PRODUCT, np.concatenate(all_refs),
            np.concatenate(all_bits)))

    def decode_rows(refs, digits, pts: np.ndarray, eps: float):
        _, means, covs, oks = zip(*_slot_decodes(
            base, refs, digits, lambda j: pts[:, j:j + 1], sub_eps(eps), d))
        cov = np.zeros((len(refs), d, d))
        cov[:, np.arange(d), np.arange(d)] = np.concatenate(
            [c[:, 0] for c in covs], axis=1)
        return None, np.concatenate(means, axis=1), cov, \
            np.logical_and.reduce(oks)

    @lru_cache(maxsize=256)
    def layout(eps: float) -> PayloadLayout:
        # marginal j is digit j of the index, base-layout ordered inside
        return PayloadLayout.concat([base.layout(sub_eps(eps))] * d)

    return Codec.from_layout(
        f"product[{base.name}]^{d}", SCHEME_PRODUCT, encode, decode_rows,
        layout, dim=d, tau=lambda eps: d * base.tau(sub_eps(eps)),
        m_samples=m_samples, robustness=base.robustness)


def weight_grid_points(eps: float, k: int) -> int:
    """Number of grid points for one mixture weight on ``[0, 1]``."""
    check_eps(eps)
    if k < 1:
        raise ValidationError("k must be >= 1")
    return math.ceil(3 * k / eps)


@lru_cache(maxsize=256)
def _weight_layout(eps: float, k: int) -> PayloadLayout:
    """``k`` weight-grid indices, the first one the low digit."""
    n_w = weight_grid_points(eps, k)
    return PayloadLayout([n_w] * k, [max(1, (n_w - 1).bit_length())] * k)


def compose_mixture(base: Codec, k: int) -> Codec:
    """Codec for k-component mixtures of what the base codec encodes.

    Components are encoded to accuracy ``eps / 3`` and weights on a grid
    of ``ceil(3k / eps)`` points, which together keep the mixture within
    ``eps`` in total variation.  Components with true weight at most
    ``eps / (6k)`` are negligible: they get filler references (row 0) and
    all-zero payloads, which never decode to a valid distribution, and the
    decoder substitutes a standard Gaussian for them.  Their weight error
    is already inside the grid budget.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")

    def sub_eps(eps: float) -> float:
        check_eps(eps)
        return eps / 3.0

    @lru_cache(maxsize=256)
    def layout(eps: float) -> PayloadLayout:
        # weights, then component i as digit i, base-layout ordered inside
        return PayloadLayout.concat([_weight_layout(eps, k)]
                                    + [base.layout(sub_eps(eps))] * k)

    def m_samples(eps: float) -> int:
        m_base = base.m_samples(sub_eps(eps))
        return math.ceil(48.0 * k * math.log(6.0 * k) / eps) * m_base

    def encode(target, samp: LabeledSample, eps: float) -> EncodeOutcome:
        if not isinstance(target, Mixture):
            raise ValidationError("mixture codec encodes mixtures")
        if target.n_components > k:
            raise ValidationError(f"target has more than {k} components")
        if samp.labels is None:
            raise ValidationError("mixture encoding needs labeled samples")
        e = sub_eps(eps)
        m_base = base.m_samples(e)
        tau_b = base.tau(e)
        t_b = base.layout(e).n_bits
        n_w = weight_grid_points(eps, k)
        negligible = eps / (NEGLIGIBLE_DIV * k)
        w_payload = _weight_layout(eps, k).pack(
            [min(n_w - 1, int(round(w * (n_w - 1)))) for w in
             list(target.weights) + [0.0] * (k - target.n_components)])
        all_refs = []
        payload = []
        for i in range(k):
            if i >= target.n_components or target.weights[i] <= negligible:
                all_refs.append(np.zeros(tau_b, dtype=np.int64))
                payload.append(np.zeros(t_b, dtype=np.uint8))
                continue
            outcome, refs = _encode_in_batches(
                base, target.components[i], samp.points,
                np.nonzero(samp.labels == i)[0], m_base, e)
            if refs is None:
                return EncodeOutcome.failure(
                    f"component {i} exhausted its sample batches: "
                    f"{outcome.reason if outcome else 'too few labeled points'}")
            all_refs.append(refs)
            payload.append(outcome.message.bits)
        return EncodeOutcome.success(CompressionMessage(
            SCHEME_MIXTURE, np.concatenate(all_refs),
            np.concatenate([w_payload] + payload)))

    def decode_rows(refs, digits, pts: np.ndarray, eps: float):
        weights = digits[:, :k] / (weight_grid_points(eps, k) - 1)
        total = weights.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            weights = np.where(total > 0.0, weights / total, 1.0 / k)
        _, means, covs, oks = zip(*_slot_decodes(
            base, refs, digits, lambda i: pts, sub_eps(eps), k, k))
        return (weights, *(np.stack(part, axis=1)
                           for part in (means, covs, oks)))

    return Codec.from_layout(
        f"mixture[{base.name}]x{k}", SCHEME_MIXTURE, encode, decode_rows,
        layout, dim=base.dim, tau=lambda eps: k * base.tau(sub_eps(eps)),
        m_samples=m_samples,
        # contamination tolerance does not compose through mixtures here
        robustness=0.0)
