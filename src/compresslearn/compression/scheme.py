"""Scheme descriptors and the codec interface shared by all encoders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..gaussmodels import Gaussian, LabeledSample, Mixture
from .message import CompressionMessage, PayloadLayout

Decoded = Union[Gaussian, Mixture]


@dataclass(frozen=True)
class SchemeSpec:
    """Size and robustness profile of a compression scheme.

    ``tau``, ``t_bits`` and ``m_samples`` map a target accuracy ``eps`` to
    the maximum number of sample references, the maximum number of payload
    bits, and the number of samples the encoder consumes.  ``robustness``
    is the L1 contamination radius the scheme tolerates (0 for non-robust
    schemes).
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
    """A compression scheme: spec, encoder, decoder, and payload enumeration.

    ``encode(target, sample, eps)`` consumes ``spec.m_samples(eps)`` points
    from the sample; the encoder knows the target distribution.
    ``decode(message, points, eps)`` is deterministic and sees only the
    referenced sample points (as rows of ``points`` indexed by the
    message's references).

    ``payload_count(eps)`` is the exact number of distinct payloads, and
    ``payload_by_index`` / ``random_payload`` produce payload bit arrays
    for candidate enumeration in the compression-to-learning reduction.
    ``layout(eps)`` is the :class:`PayloadLayout` the decoder accepts;
    codecs built by :meth:`from_layout` take all three from it, and the
    combinators concatenate their base's layouts.
    """

    spec: SchemeSpec
    scheme_id: int
    encode: Callable[[Decoded, LabeledSample, float], EncodeOutcome]
    decode: Callable[[CompressionMessage, np.ndarray, float], Decoded]
    payload_count: Callable[[float], int]
    payload_by_index: Callable[[float, int], np.ndarray]
    random_payload: Callable[[float, np.random.Generator], np.ndarray]
    layout: Callable[[float], PayloadLayout]

    @classmethod
    def from_layout(cls, spec: SchemeSpec, scheme_id: int, encode, decode,
                    layout: Callable[[float], PayloadLayout]) -> "Codec":
        """Codec whose payload enumeration comes from ``layout(eps)``."""
        return cls(spec, scheme_id, encode, decode,
                   payload_count=lambda eps: layout(eps).count,
                   payload_by_index=lambda eps, idx: layout(eps).by_index(idx),
                   random_payload=lambda eps, rng: layout(eps).random(rng),
                   layout=layout)

    @property
    def name(self) -> str:
        return self.spec.name
