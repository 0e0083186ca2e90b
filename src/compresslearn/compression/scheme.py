"""The codec record and message gate shared by all encoders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import DecodingError, MessageSizeError, ValidationError
from ..gaussmodels import (Distribution, Gaussian, LabeledSample, Mixture,
                           gaussian_rows)
from .message import CompressionMessage, PayloadLayout

def check_eps(eps: float) -> None:
    """Reject a codec accuracy ``eps`` outside ``(0, 1]``."""
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps must lie in (0, 1]")


@dataclass(frozen=True)
class EncodeOutcome:
    """Result of an encoding attempt.

    An outcome is ``ok`` exactly when it carries a message; a failed
    outcome carries a human-readable ``reason`` instead.  Failure is a
    legitimate scheme event (probability at most 1/3 at the nominal sample
    size), not an error.
    """

    message: Optional[CompressionMessage] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.message is not None

    @classmethod
    def success(cls, message: CompressionMessage) -> "EncodeOutcome":
        return cls(message=message)

    @classmethod
    def failure(cls, reason: str) -> "EncodeOutcome":
        return cls(reason=reason)


@dataclass(frozen=True)
class Codec:
    """A (tau, t, m) sample compression scheme: its profile, payload
    layout, encoder and decoder.

    ``dim`` is the dimension of the distributions the codec encodes and
    decodes, ``tau(eps)`` the exact number of sample references in each
    message and ``m_samples(eps)`` the number of sample points the encoder
    consumes; ``robustness`` is the L1 contamination radius the scheme
    tolerates (0 for non-robust schemes).

    ``layout(eps)`` is the payload's single description: the
    :class:`PayloadLayout` the decoder accepts, which fixes the payload
    width ``layout(eps).n_bits``, the payload count and the payload of
    each enumeration index.  ``random_payload(eps, rng)`` draws from it.

    ``encode(target, sample, eps)`` consumes ``m_samples(eps)`` points
    from the sample; the encoder knows the target distribution.

    ``decode_rows(refs, digits, points, eps)`` is the scheme's one
    decoder, deterministic and on arrays: row ``i`` of ``refs (N, tau)``
    and ``digits (N, n_fields)`` (payload digits in wire order, below
    their radices) is one message, which sees only the rows of ``points``
    it references.  It returns ``(weights, means, covs, ok)``, each row
    independent of the others: ``None``, ``(N, d)``, ``(N, d, d)`` and
    ``(N,)`` for Gaussians; ``(N, k)`` weights and ``(N, k, ...)``
    components for k-mixtures.  ``ok`` marks only what the scheme itself
    rejects, such as g1d's negative scale: :meth:`decode_batch` alone
    symmetrizes, factors and judges covariances, and makes distributions;
    ``decode(message, points, eps)`` is :meth:`gate` and a batch of one.
    ``from_layout`` puts ``encode`` and ``decode`` behind the gate, which
    checks the whole profile so no scheme does: ``eps`` in ``(0, 1]``;
    ``dim``-dimensional points on decode (here and in
    :meth:`decode_batch`), and on encode a ``dim``-dimensional target and
    at least ``m_samples(eps)`` ``dim``-dimensional sample points, else
    :class:`ValidationError`; and messages the learner can enumerate: the
    codec's ``scheme_id``, exactly ``tau(eps)`` references below
    ``len(points)``, exactly ``layout(eps).n_bits`` bits of digits the
    layout accepts.  Other messages, and payloads that decode to no
    distribution, raise :class:`DecodingError` on decode; a bad message
    from an ``ok`` encode raises :class:`MessageSizeError`.
    """

    name: str
    scheme_id: int
    dim: int
    tau: Callable[[float], int]
    m_samples: Callable[[float], int]
    robustness: float
    layout: Callable[[float], PayloadLayout]
    encode: Callable[[Distribution, LabeledSample, float], EncodeOutcome]
    decode: Callable[[CompressionMessage, np.ndarray, float], Distribution]
    decode_rows: Callable[..., tuple]
    random_payload: Callable[[float, np.random.Generator], np.ndarray]

    def gate(self, message: CompressionMessage, points, eps: float):
        """``(points as a float array, payload digits)`` of a message this
        codec decodes; any other message raises :class:`DecodingError`."""
        check_eps(eps)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("points must have shape (n, d)")
        layout = self.layout(eps)
        want = (self.scheme_id, self.tau(eps), layout.n_bits)
        got = (message.scheme_id, message.n_refs, message.n_bits)
        if got != want:
            raise DecodingError(f"message has (scheme id, references, "
                                f"payload bits) {got}, not {want}")
        if want[1] and message.sample_refs.max() >= pts.shape[0]:
            raise DecodingError("sample reference out of range")
        return pts, layout.unpack(message.bits)

    def decode_batch(self, refs, digits, points, eps: float) -> list:
        """The distribution of each row of ``decode_rows``, its Gaussians
        factored by one :func:`gaussian_rows` call; ``None`` where a
        Gaussian's ``ok`` is False or its covariance is one ``Gaussian``
        rejects.  Such a mixture component becomes the standard Gaussian
        instead, the placeholder of a filler or junk payload.  Points of
        another dimension than ``dim`` raise :class:`ValidationError`."""
        if points.shape[1] != self.dim:
            raise ValidationError(f"{self.name} decodes {self.dim}-D points, "
                                  f"not {points.shape[1]}-D")
        weights, means, covs, ok = self.decode_rows(refs, digits, points, eps)
        rows = gaussian_rows(means, covs)
        ok = ok & (rows.fault == 0)
        if weights is None:
            return [rows.gaussian(i) if ok[i] else None
                    for i in range(len(ok))]
        place = Gaussian(np.zeros(means.shape[-1]), np.eye(means.shape[-1]))
        return [Mixture(w, [rows.gaussian((i, j)) if ok[i, j] else place
                            for j in range(len(w))])
                for i, w in enumerate(weights)]

    @classmethod
    def from_layout(cls, name: str, scheme_id: int, encode, decode_rows,
                    layout: Callable[[float], PayloadLayout], *, dim: int,
                    tau, m_samples, robustness: float) -> "Codec":
        """Codec whose payload width and draws come from ``layout(eps)``,
        with the scheme's ``encode`` and ``decode_rows`` behind the gate."""

        def gated_encode(target, sample: LabeledSample, eps: float):
            check_eps(eps)
            m = m_samples(eps)
            got = (getattr(target, "dim", None), sample.dim)
            if got != (dim, dim) or sample.n < m:
                raise ValidationError(
                    f"{name} encodes a {dim}-D target from at least {m} "
                    f"{dim}-D points, not a {got[0]}-D target from "
                    f"{sample.n} {got[1]}-D points")
            outcome = encode(target, sample, eps)
            if outcome.ok:
                try:
                    codec.gate(outcome.message, sample.points, eps)
                except DecodingError as exc:
                    raise MessageSizeError(f"{name} encoder: {exc}") from None
            return outcome

        def gated_decode(message: CompressionMessage, points, eps: float):
            pts, digits = codec.gate(message, points, eps)
            dist = codec.decode_batch(message.sample_refs[None], digits[None],
                                      pts, eps)[0]
            if dist is None:
                raise DecodingError(f"{name} payload decodes to no "
                                    "distribution")
            return dist

        def random_payload(eps: float, rng: np.random.Generator):
            fields = layout(eps)
            return fields.pack(fields.random_digits(rng))

        codec = cls(name, scheme_id, dim, tau, m_samples, robustness, layout,
                    gated_encode, gated_decode, decode_rows, random_payload)
        return codec
