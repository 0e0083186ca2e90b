"""Scheme descriptors and the codec interface shared by all encoders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import DecodingError, MessageSizeError, ValidationError
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
class SchemeSpec:
    """Size and robustness profile of a compression scheme.

    ``tau``, ``t_bits`` and ``m_samples`` map a target accuracy ``eps`` to
    the exact number of sample references and of payload bits in each
    message, and the number of samples the encoder consumes.  ``robustness``
    is the L1 contamination radius the scheme tolerates (0 for non-robust
    schemes).  :meth:`Codec.from_layout` derives ``t_bits`` from the
    codec's payload layout.
    """

    name: str
    tau: Callable[[float], int]
    t_bits: Callable[[float], int]
    m_samples: Callable[[float], int]
    robustness: float


@dataclass(frozen=True)
class EncodeOutcome:
    """Result of an encoding attempt.

    ``status`` is ``"ok"`` or ``"failed"``; a failed outcome carries a
    human-readable ``reason`` and no message.  Failure is a legitimate
    scheme event (probability at most 1/3 at the nominal sample size), not
    an error.
    """

    status: str
    message: Optional[CompressionMessage] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def success(cls, message: CompressionMessage) -> "EncodeOutcome":
        return cls(status="ok", message=message)

    @classmethod
    def failure(cls, reason: str) -> "EncodeOutcome":
        return cls(status="failed", reason=reason)


@dataclass(frozen=True)
class Codec:
    """A compression scheme: spec, encoder, decoder and payload layout.

    ``encode(target, sample, eps)`` consumes ``spec.m_samples(eps)`` points
    from the sample; the encoder knows the target distribution.
    ``decode(message, points, eps)`` is deterministic and sees only the
    referenced sample points (as rows of ``points`` indexed by the
    message's references).

    ``layout(eps)`` is the payload's single description: the
    :class:`PayloadLayout` the decoder accepts, which fixes the payload
    width ``spec.t_bits(eps)``, the payload count and the payload of each
    enumeration index.  ``random_payload(eps, rng)`` draws from it.

    :meth:`from_layout` puts ``encode`` and ``decode`` behind one gate:
    ``eps`` in ``(0, 1]``, 2-D ``points``, and messages the learner can
    enumerate: the codec's ``scheme_id``, exactly ``spec.tau(eps)``
    references below ``len(points)``, exactly ``spec.t_bits(eps)`` bits.
    Other messages raise :class:`DecodingError` on decode and
    :class:`MessageSizeError` from an ``ok`` encode.
    """

    spec: SchemeSpec
    scheme_id: int
    encode: Callable[[Decoded, LabeledSample, float], EncodeOutcome]
    decode: Callable[[CompressionMessage, np.ndarray, float], Decoded]
    random_payload: Callable[[float, np.random.Generator], np.ndarray]
    layout: Callable[[float], PayloadLayout]

    @classmethod
    def from_layout(cls, name: str, scheme_id: int, encode, decode,
                    layout: Callable[[float], PayloadLayout], *, tau,
                    m_samples, robustness: float) -> "Codec":
        """Codec whose payload width and draws come from ``layout(eps)``,
        with the scheme's ``encode`` and ``decode`` behind the message gate."""
        spec = SchemeSpec(name, tau, lambda eps: layout(eps).n_bits,
                          m_samples, robustness)
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
            return decode(message, check(message, points, eps), eps)

        return cls(spec, scheme_id, gated_encode, gated_decode,
                   random_payload=lambda eps, rng: layout(eps).random(rng),
                   layout=layout)

    @property
    def name(self) -> str:
        return self.spec.name
