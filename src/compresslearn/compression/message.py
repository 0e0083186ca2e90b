"""Compression messages and their frozen wire format.

Wire layout, all integers little-endian:

========  =======================================================
bytes     field
========  =======================================================
2         scheme id (u16)
4         number of sample references (u32)
4 * n     sample references, u32 each
4         number of payload bits (u32)
ceil(t/8) payload bits packed LSB-first within each byte
========  =======================================================

The padding bits after the ``t`` payload bits are zero;
``CompressionMessage.from_bytes`` rejects a blob where they are not, so
``to_bytes`` of a parsed message gives back the blob.  A codec decodes
only its own scheme id, ``tau`` references and payload width (see
:class:`~compresslearn.compression.Codec`).

A codec's payload is described by a :class:`PayloadLayout`: fixed-width
fields in wire order, each an unsigned digit written least significant
bit first.  The layout also ranks the fields by significance, which turns
a payload into one mixed-radix index for candidate enumeration.  Digits
at or above a field's radix never occur in a valid payload, and
``unpack`` rejects them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import DecodingError, ValidationError

SCHEME_G1D = 1
SCHEME_G1D_ROBUST = 2
SCHEME_GD = 3
SCHEME_PRODUCT = 4
SCHEME_MIXTURE = 5

_KNOWN_SCHEMES = (SCHEME_G1D, SCHEME_G1D_ROBUST, SCHEME_GD,
                  SCHEME_PRODUCT, SCHEME_MIXTURE)


class PayloadLayout:
    """Fixed-width fields of a payload, each a digit of a mixed-radix index.

    Field ``i`` holds a digit in ``[0, radices[i])`` written LSB-first in
    ``widths[i]`` bits, and fields follow each other in wire order.
    ``order`` lists the fields from least to most significant digit of the
    payload index, so ``count``, ``index_digits`` and ``random_digits``
    (one draw per field, in wire order) cover exactly the payloads
    ``unpack`` accepts.  :meth:`concat` joins the layouts of a composite
    payload.
    """

    def __init__(self, radices, widths, order=None):
        self.radices = tuple(int(r) for r in radices)
        self.widths = tuple(int(w) for w in widths)
        n = len(self.radices)
        self.order = tuple(range(n)) if order is None else tuple(order)
        if n == 0 or len(self.widths) != n \
                or sorted(self.order) != list(range(n)):
            raise ValidationError(
                "a layout needs one radix, width and rank per field")
        if not all(1 <= w <= 62 and 1 <= r <= 1 << w
                   for r, w in zip(self.radices, self.widths)):
            raise ValidationError("each radix must fit its field of 1..62 bits")
        self.n_bits = sum(self.widths)
        self.count = math.prod(self.radices)
        self._radix = np.asarray(self.radices, dtype=np.int64)
        self._width = np.asarray(self.widths)
        self._starts = np.cumsum((0,) + self.widths[:-1])
        # bit position within its field, one byte per payload bit
        self._shift = (np.arange(self.n_bits) - np.repeat(
            self._starts, self._width)).astype(np.uint8)

    @classmethod
    def of_grids(cls, grids, order=None) -> "PayloadLayout":
        """One field per grid offset, ``n_points`` values in ``index_width`` bits."""
        return cls([g.n_points for g in grids], [g.index_width for g in grids],
                   order)

    @classmethod
    def concat(cls, layouts) -> "PayloadLayout":
        """The fields of ``layouts`` one after another; each layout's index
        digits rank above those of the layouts before it."""
        radices, widths, order = [], [], []
        for layout in layouts:
            order += [len(radices) + i for i in layout.order]
            radices += layout.radices
            widths += layout.widths
        return cls(radices, widths, order)

    def pack(self, digits) -> np.ndarray:
        """Payload bits of ``digits`` (wire order)."""
        digits = np.asarray(digits, dtype=np.int64)
        # as uint64 a negative digit exceeds every radix
        if digits.shape != self._radix.shape or not np.all(
                digits.view(np.uint64) < self._radix.view(np.uint64)):
            raise ValidationError("digits do not fit the payload layout")
        bits = np.right_shift(np.repeat(digits, self._width), self._shift,
                              dtype=np.int64).astype(np.uint8) & 1
        bits.setflags(write=False)
        return bits

    def unpack(self, bits) -> np.ndarray:
        """Digits (wire order) of payload ``bits``.

        Raises
        ------
        DecodingError
            If the payload has the wrong length or a field holds a value
            outside its radix.
        """
        bits = np.asarray(bits)
        if bits.shape != (self.n_bits,):
            raise DecodingError("payload has the wrong number of bits")
        digits = np.add.reduceat(
            np.left_shift(bits, self._shift, dtype=np.int64), self._starts)
        bad = np.flatnonzero(digits >= self._radix)
        if bad.size:
            i = int(bad[0])
            raise DecodingError(f"malformed payload: field {i} holds "
                                f"{digits[i]} of only {self.radices[i]} values")
        return digits

    def index_digits(self, idx: int) -> list:
        """Digits, in wire order, of mixed-radix index ``idx`` in
        ``[0, count)``."""
        idx = int(idx)
        if not 0 <= idx < self.count:
            raise ValidationError("payload index out of range")
        digits = [0] * len(self.radices)
        for i in self.order:
            idx, digits[i] = divmod(idx, self.radices[i])
        return digits

    def random_digits(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform payload digits: one ``rng.integers(radix)`` per field, in
        wire order.

        numpy draws the same digits from one broadcast call as from one
        call per field; below four fields the scalar calls are faster.
        """
        if len(self.radices) < 4:
            return np.array([rng.integers(r) for r in self.radices])
        return rng.integers(0, self._radix)


def _flat_indices(values, bound: int, dtype, error: str) -> np.ndarray:
    """``values`` as a read-only flat ``dtype`` array of integers in
    ``[0, bound)``; anything else, such as floats, raises ``error``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size and (
            arr.dtype.kind not in "iu"
            or (arr.dtype.kind == "i" and arr.min() < 0)
            or arr.max() >= bound):
        raise ValidationError(error)
    arr = arr.astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CompressionMessage:
    """A compression scheme's output: sample references plus payload bits.

    Attributes
    ----------
    scheme_id : int
        Wire identifier of the producing scheme.
    sample_refs : ndarray
        Indices into the sample presented to the encoder (repeats allowed),
        stored as int64; integers in ``[0, 2**32)`` only.
    bits : ndarray
        Payload bits, stored as uint8; integers 0 and 1 only.
    """

    scheme_id: int
    sample_refs: np.ndarray
    bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    def __post_init__(self):
        if self.scheme_id not in _KNOWN_SCHEMES:
            raise ValidationError(f"unknown scheme id {self.scheme_id}")
        object.__setattr__(self, "sample_refs", _flat_indices(
            self.sample_refs, 1 << 32, np.int64,
            "sample_refs must be a flat array of integers in [0, 2**32)"))
        object.__setattr__(self, "bits", _flat_indices(
            self.bits, 2, np.uint8, "bits must be a flat array of 0/1"))

    @property
    def n_refs(self) -> int:
        return int(self.sample_refs.shape[0])

    @property
    def n_bits(self) -> int:
        return int(self.bits.shape[0])

    def to_bytes(self) -> bytes:
        head = struct.pack("<HI", self.scheme_id, self.n_refs)
        refs = struct.pack(f"<{self.n_refs}I", *map(int, self.sample_refs))
        nbits = struct.pack("<I", self.n_bits)
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return head + refs + nbits + packed

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompressionMessage":
        if len(blob) < 6:
            raise ValidationError("message blob too short")
        scheme_id, n_refs = struct.unpack_from("<HI", blob, 0)
        off = 6
        if len(blob) < off + 4 * n_refs + 4:
            raise ValidationError("message blob truncated in references")
        refs = np.frombuffer(blob, dtype="<u4", count=n_refs, offset=off)
        off += 4 * n_refs
        (n_bits,) = struct.unpack_from("<I", blob, off)
        off += 4
        n_bytes = (n_bits + 7) // 8
        if len(blob) != off + n_bytes:
            raise ValidationError("message blob has wrong payload length")
        raw = np.frombuffer(blob, dtype=np.uint8, offset=off)
        bits = np.unpackbits(raw, bitorder="little")
        if bits[n_bits:].any():
            raise ValidationError("message blob has nonzero padding bits")
        return cls(scheme_id=scheme_id, sample_refs=refs, bits=bits[:n_bits])
