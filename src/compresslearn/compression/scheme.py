"""The codec record and message gate shared by all encoders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import (DecodingError, MessageSizeError,
                      SingularCovarianceError, ValidationError)
from ..gaussmodels import Gaussian, LabeledSample, Mixture
from .message import CompressionMessage, PayloadLayout

Decoded = Union[Gaussian, Mixture]


def check_eps(eps: float) -> None:
    """Reject a codec accuracy ``eps`` outside ``(0, 1]``."""
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps must lie in (0, 1]")


def message_gate(scheme_id: int, tau: Callable[[float], int],
                 layout: Callable[[float], PayloadLayout]):
    """``check(message, points, eps)``, the check of every message a codec
    decodes (see :class:`Codec`); it returns ``points`` as a float array."""

    def check(message: CompressionMessage, points, eps: float) -> np.ndarray:
        check_eps(eps)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("points must have shape (n, d)")
        want = (scheme_id, tau(eps), layout(eps).n_bits)
        got = (message.scheme_id, message.n_refs, message.n_bits)
        if got != want:
            raise DecodingError(f"message has (scheme id, references, "
                                f"payload bits) {got}, not {want}")
        if want[1] and message.sample_refs.max() >= pts.shape[0]:
            raise DecodingError("sample reference out of range")
        return pts

    return check


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

    ``tau(eps)`` is the exact number of sample references in each message
    and ``m_samples(eps)`` the number of sample points the encoder
    consumes; ``robustness`` is the L1 contamination radius the scheme
    tolerates (0 for non-robust schemes).

    ``layout(eps)`` is the payload's single description: the
    :class:`PayloadLayout` the decoder accepts, which fixes the payload
    width ``layout(eps).n_bits``, the payload count and the payload of
    each enumeration index.  ``random_payload(eps, rng)`` draws from it.

    ``encode(target, sample, eps)`` consumes ``m_samples(eps)`` points
    from the sample; the encoder knows the target distribution.
    ``decode(message, points, eps)`` is deterministic and sees only the
    referenced sample points (as rows of ``points`` indexed by the
    message's references).

    :meth:`from_layout` puts ``encode`` and ``decode`` behind one gate:
    ``eps`` in ``(0, 1]``, 2-D ``points``, and messages the learner can
    enumerate: the codec's ``scheme_id``, exactly ``tau(eps)`` references
    below ``len(points)``, exactly ``layout(eps).n_bits`` bits.  Other
    messages, and payloads that decode to a covariance the models cannot
    evaluate, raise :class:`DecodingError` on decode; a bad message from an
    ``ok`` encode raises :class:`MessageSizeError`.
    """

    name: str
    scheme_id: int
    tau: Callable[[float], int]
    m_samples: Callable[[float], int]
    robustness: float
    layout: Callable[[float], PayloadLayout]
    encode: Callable[[Decoded, LabeledSample, float], EncodeOutcome]
    decode: Callable[[CompressionMessage, np.ndarray, float], Decoded]
    random_payload: Callable[[float, np.random.Generator], np.ndarray]

    @classmethod
    def from_layout(cls, name: str, scheme_id: int, encode, decode,
                    layout: Callable[[float], PayloadLayout], *, tau,
                    m_samples, robustness: float) -> "Codec":
        """Codec whose payload width and draws come from ``layout(eps)``,
        with the scheme's ``encode`` and ``decode`` behind the message gate."""
        check = message_gate(scheme_id, tau, layout)

        def gated_encode(target, sample: LabeledSample, eps: float):
            check_eps(eps)
            outcome = encode(target, sample, eps)
            if outcome.ok:
                try:
                    check(outcome.message, sample.points, eps)
                except DecodingError as exc:
                    raise MessageSizeError(f"{name} encoder: {exc}") from None
            return outcome

        def gated_decode(message: CompressionMessage, points, eps: float):
            pts = check(message, points, eps)
            try:
                return decode(message, pts, eps)
            except SingularCovarianceError as exc:
                raise DecodingError(f"{name} payload: {exc}") from None

        return cls(name, scheme_id, tau, m_samples, robustness, layout,
                   gated_encode, gated_decode,
                   lambda eps, rng: layout(eps).random(rng))
