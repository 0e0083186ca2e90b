"""Scheme descriptors and the codec interface shared by all encoders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import ValidationError
from ..gaussmodels import Gaussian, LabeledSample, Mixture
from .message import CompressionMessage, PayloadLayout

Decoded = Union[Gaussian, Mixture]


def check_eps(eps: float) -> None:
    """Reject a codec accuracy ``eps`` outside ``(0, 1]``."""
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps must lie in (0, 1]")


@dataclass(frozen=True)
class SchemeSpec:
    """Size and robustness profile of a compression scheme.

    ``tau``, ``t_bits`` and ``m_samples`` map a target accuracy ``eps`` to
    the maximum number of sample references, the maximum number of payload
    bits, and the number of samples the encoder consumes.  ``robustness``
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
        """Codec whose payload width and draws come from ``layout(eps)``."""
        spec = SchemeSpec(name, tau, lambda eps: layout(eps).n_bits,
                          m_samples, robustness)
        return cls(spec, scheme_id, encode, decode,
                   random_payload=lambda eps, rng: layout(eps).random(rng),
                   layout=layout)

    @property
    def name(self) -> str:
        return self.spec.name
