"""Message wire format, payload layouts, and quantization grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compresslearn import DecodingError, ValidationError
from compresslearn.compression import (CompressionMessage, PayloadLayout,
                                       SCHEME_G1D, SymmetricGrid)

from helpers import (grid_index_oracle, pack_bits_oracle,
                     unpack_bits_oracle)


def test_message_golden_bytes():
    msg = CompressionMessage(SCHEME_G1D, np.array([0, 1, 2]),
                             np.array([1, 0, 1], dtype=np.uint8))
    blob = msg.to_bytes()
    expected = (b"\x01\x00"              # scheme id, u16 LE
                + b"\x03\x00\x00\x00"    # reference count, u32 LE
                + b"\x00\x00\x00\x00"
                + b"\x01\x00\x00\x00"
                + b"\x02\x00\x00\x00"
                + b"\x03\x00\x00\x00"    # bit count, u32 LE
                + b"\x05")               # bits 1,0,1 packed LSB-first
    assert blob == expected
    back = CompressionMessage.from_bytes(blob)
    assert back.scheme_id == msg.scheme_id
    np.testing.assert_array_equal(back.sample_refs, msg.sample_refs)
    np.testing.assert_array_equal(back.bits, msg.bits)


def test_message_from_bytes_rejects_truncation():
    msg = CompressionMessage(SCHEME_G1D, np.array([0]), np.array([1, 1],
                                                                 dtype=np.uint8))
    blob = msg.to_bytes()
    with pytest.raises(ValidationError):
        CompressionMessage.from_bytes(blob[:-1])


def test_message_rejects_negative_refs():
    with pytest.raises(ValidationError):
        CompressionMessage(SCHEME_G1D, np.array([-1]),
                           np.zeros(0, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 62 - 1), st.integers(1, 62),
                          st.integers(0, 2 ** 62 - 1)),
                min_size=1, max_size=12))
def test_layout_pack_unpack_roundtrip(fields):
    widths = [w for _, w, _ in fields]
    digits = [v & ((1 << w) - 1) for v, w, _ in fields]
    radices = [d + 1 + extra % ((1 << w) - d) for d, (_, w, extra)
               in zip(digits, fields)]
    layout = PayloadLayout(radices, widths)
    bits = layout.pack(digits)
    assert layout.n_bits == len(bits) == sum(widths)
    np.testing.assert_array_equal(bits, pack_bits_oracle(digits, widths))
    assert layout.unpack(bits).tolist() == digits
    assert unpack_bits_oracle(bits, widths) == digits


def test_layout_pack_rejects_overflow():
    layout = PayloadLayout([4, 3], [2, 2])
    with pytest.raises(ValidationError):
        layout.pack([4, 0])
    with pytest.raises(ValidationError):
        layout.pack([-1, 0])
    with pytest.raises(ValidationError):
        layout.pack([0, 3])  # fits the two bits, not the radix
    with pytest.raises(ValidationError):
        layout.pack([0])
    with pytest.raises(ValidationError):
        PayloadLayout([5], [2])


def test_layout_unpack_rejects_overrun():
    layout = PayloadLayout([2], [1])
    assert layout.unpack(np.array([1], dtype=np.uint8)).tolist() == [1]
    for bits in ([], [1, 0]):
        with pytest.raises(DecodingError, match="number of bits"):
            layout.unpack(np.array(bits, dtype=np.uint8))
    off_grid = PayloadLayout([4, 3], [2, 2])
    with pytest.raises(DecodingError, match="malformed payload"):
        off_grid.unpack(pack_bits_oracle([1, 3], [2, 2]))


def test_layout_index_follows_significance_order():
    layout = PayloadLayout([3, 5, 2], [2, 3, 1], order=(1, 0, 2))
    assert layout.count == 30
    seen = set()
    for idx in range(layout.count):
        bits = layout.pack(layout.index_digits(idx))
        a, b, c = layout.unpack(bits).tolist()
        assert idx == b + 5 * (a + 3 * c)
        seen.add((a, b, c))
    assert len(seen) == 30
    for idx in (-1, layout.count):
        with pytest.raises(ValidationError):
            layout.pack(layout.index_digits(idx))


def test_layout_concatenation_nests_indices():
    first = PayloadLayout([3, 5], [2, 3], order=(1, 0))
    second = PayloadLayout([7, 2], [3, 1])
    both = PayloadLayout.concat([first, second])
    assert both.count == first.count * second.count
    for i, j in ((0, 0), (4, 9), (14, 13), (7, 5)):
        np.testing.assert_array_equal(
            both.pack(both.index_digits(i + first.count * j)),
            np.concatenate([first.pack(first.index_digits(i)),
                            second.pack(second.index_digits(j))]))


def test_layout_random_draws_each_field_in_wire_order():
    layout = PayloadLayout([2, 30, 30, 10817, 2 ** 40 + 1], [1, 5, 5, 14, 41])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bits = layout.pack(layout.random_digits(rng))
        ref = np.random.default_rng(seed)
        digits = [int(ref.integers(r)) for r in layout.radices]
        np.testing.assert_array_equal(bits, pack_bits_oracle(digits,
                                                             layout.widths))
        assert rng.integers(1 << 62) == ref.integers(1 << 62)


def test_grid_zero_is_exactly_representable():
    grid = SymmetricGrid.from_bound(1.0, 0.001)
    assert grid.values(grid.offsets(0.0)) == 0.0


def test_grid_from_bound_covers_and_clips():
    grid = SymmetricGrid.from_bound(2.0, 0.5)
    assert grid.n_points == 2 * grid.n_half + 1
    assert grid.values(grid.n_points - 1) >= 2.0
    assert grid.offsets(100.0) == grid.n_points - 1
    assert grid.offsets(-100.0) == 0


def test_grid_quantization_error_within_half_step():
    grid = SymmetricGrid.from_bound(3.0, 0.25)
    xs = np.linspace(-3.0, 3.0, 101)
    assert np.all(np.abs(grid.values(grid.offsets(xs)) - xs)
                  <= 0.125 + 1e-12)


def test_grid_offset_encoding_roundtrip():
    grid = SymmetricGrid.from_bound(1.0, 0.2)
    ks = np.arange(-grid.n_half, grid.n_half + 1)
    offs = grid.offsets(ks * grid.step)
    assert offs.tolist() == list(range(grid.n_points))
    assert offs.max() < 2 ** grid.index_width
    assert grid.values(offs).tolist() == (ks * grid.step).tolist()


def test_grid_index_width_is_minimal():
    grid = SymmetricGrid.from_bound(1.0, 0.4)  # n_half=3 -> 7 points
    assert grid.n_points == 7
    assert grid.index_width == 3


def test_grid_vectorized_offsets_and_values_match_scalar_methods():
    grid = SymmetricGrid.from_bound(3.0, 0.25)
    ties = (np.arange(-15, 16) + 0.5) * grid.step  # exact half steps
    xs = np.concatenate([np.linspace(-4.0, 4.0, 201), ties, [1e9, -1e9]])
    offs = grid.offsets(xs)
    ks = [grid_index_oracle(grid, float(x)) for x in xs]
    assert offs.tolist() == [k + grid.n_half for k in ks]
    assert grid.values(offs).tolist() == [k * grid.step for k in ks] \
        == [grid.values(u) for u in offs.tolist()]


@pytest.mark.parametrize("refs, bits", [
    (np.array([0]), np.array([256, 1])),
    (np.array([0]), [0.7, 1.0]),
    (np.array([0]), np.array([2], dtype=np.uint8)),
    (np.array([0]), np.array([-1, 0])),
    ([0.9, 1.2, 2.0], np.zeros(0, dtype=np.uint8)),
    (np.array([1 << 32]), np.zeros(0, dtype=np.uint8)),
    (np.array([[0, 1]]), np.zeros(0, dtype=np.uint8)),
    (np.array([0]), np.array(["1"])),
], ids=["bit 256", "float bits", "bit 2", "negative bit", "float refs",
        "ref 2**32", "2-D refs", "string bits"])
def test_message_rejects_values_it_would_cast(refs, bits):
    with pytest.raises(ValidationError):
        CompressionMessage(SCHEME_G1D, refs, bits)


def test_message_stores_integer_inputs_as_int64_refs_and_uint8_bits():
    msg = CompressionMessage(SCHEME_G1D, [0, (1 << 32) - 1],
                             np.array([1, 0], dtype=np.int64))
    assert msg.sample_refs.dtype == np.int64
    assert msg.bits.dtype == np.uint8
    assert msg.sample_refs.tolist() == [0, (1 << 32) - 1]
    assert msg.bits.tolist() == [1, 0]
    empty = CompressionMessage(SCHEME_G1D, [], [])
    assert (empty.n_refs, empty.n_bits) == (0, 0)
    back = CompressionMessage.from_bytes(empty.to_bytes())
    assert (back.scheme_id, back.n_refs, back.n_bits) == (SCHEME_G1D, 0, 0)


def test_message_from_bytes_rejects_nonzero_padding():
    msg = CompressionMessage(SCHEME_G1D, np.array([0, 1, 2]),
                             np.array([1, 0, 1], dtype=np.uint8))
    blob = msg.to_bytes()
    assert blob[-1] == 0x05
    for last in (0x0D, 0x85):
        with pytest.raises(ValidationError, match="padding"):
            CompressionMessage.from_bytes(blob[:-1] + bytes([last]))
