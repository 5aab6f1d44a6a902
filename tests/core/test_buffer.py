"""Unit tests for cyclic buffer address arithmetic."""

import pytest

from repro.core import CyclicBuffer


def test_addr_of_wraps():
    buf = CyclicBuffer(base=100, size=64)
    assert buf.addr_of(0) == 100
    assert buf.addr_of(63) == 163
    assert buf.addr_of(64) == 100
    assert buf.addr_of(130) == 102


def test_segments_no_wrap():
    buf = CyclicBuffer(0, 64)
    assert buf.segments(10, 20) == [(10, 20)]


def test_segments_wrap():
    buf = CyclicBuffer(100, 64)
    assert buf.segments(60, 10) == [(160, 4), (100, 6)]


def test_segments_positions_beyond_size():
    buf = CyclicBuffer(0, 64)
    # absolute position 200 maps like 200 % 64 = 8
    assert buf.segments(200, 10) == [(8, 10)]


def test_segments_empty():
    buf = CyclicBuffer(0, 64)
    assert buf.segments(5, 0) == []


def test_segments_full_buffer():
    buf = CyclicBuffer(0, 64)
    assert buf.segments(0, 64) == [(0, 64)]
    assert buf.segments(10, 64) == [(10, 54), (0, 10)]


def test_segments_over_size_rejected():
    buf = CyclicBuffer(0, 64)
    with pytest.raises(ValueError, match="exceeds buffer size"):
        buf.segments(0, 65)


def test_lines_simple():
    buf = CyclicBuffer(0, 128)
    assert buf.lines(0, 32, 32) == [0]
    assert buf.lines(0, 33, 32) == [0, 32]
    assert buf.lines(31, 2, 32) == [0, 32]


def test_lines_wrap_dedup():
    buf = CyclicBuffer(0, 128)
    # wraps: positions 120..127 then 0..7 — lines 96 and 0
    assert buf.lines(120, 16, 32) == [0, 96]


def test_lines_unaligned_base():
    buf = CyclicBuffer(base=48, size=64)
    # addresses 48..79 touch lines 32 and 64
    assert buf.lines(0, 32, 32) == [32, 64]


def test_bad_construction():
    with pytest.raises(ValueError):
        CyclicBuffer(-1, 64)
    with pytest.raises(ValueError):
        CyclicBuffer(0, 0)
    buf = CyclicBuffer(0, 64)
    with pytest.raises(ValueError):
        buf.addr_of(-1)
    with pytest.raises(ValueError):
        buf.segments(0, -1)


def test_memoized_decompositions_match_fresh_ones():
    """One buffer answers repeated queries from its memo; every answer
    must equal a fresh buffer's, whatever the length or line size."""
    def fresh():
        return CyclicBuffer(base=48, size=100)

    buf = fresh()
    for position in range(0, 300, 7):
        for n_bytes in (0, 1, 13, 100):
            assert buf.segments(position, n_bytes) == fresh().segments(position, n_bytes)
            for line_size in (16, 32):
                assert (buf.lines(position, n_bytes, line_size)
                        == fresh().lines(position, n_bytes, line_size))
