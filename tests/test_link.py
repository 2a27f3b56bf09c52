"""Link frame codec: boundaries and round-trip identity."""

import pytest
from hypothesis import given, strategies as st

from modnet.link import (FrameTooShort, HEADER_LEN, MAX_PAYLOAD,
                         PayloadTooLarge, link_decode, link_encode)

DST = bytes.fromhex("0000000000000001")
SRC = bytes.fromhex("0000000000000002")


def test_minimal_frame_round_trip():
    frame = link_encode(DST, SRC, 0, b"\xab")
    assert len(frame) == HEADER_LEN + 1 == 18
    decoded = link_decode(frame)
    assert decoded == (DST, SRC, 0, b"\xab")


def test_boundary_payloads():
    frame = link_encode(DST, SRC, 5, b"x" * MAX_PAYLOAD)
    assert len(frame) == 127
    with pytest.raises(PayloadTooLarge):
        link_encode(DST, SRC, 5, b"x" * (MAX_PAYLOAD + 1))
    with pytest.raises(PayloadTooLarge):
        link_encode(DST, SRC, 5, b"")


def test_short_frame_rejected():
    with pytest.raises(FrameTooShort):
        link_decode(b"\x00" * HEADER_LEN)  # header but no payload


def test_oversize_frame_rejected():
    with pytest.raises(PayloadTooLarge):
        link_decode(b"\x00" * 128)


@given(st.binary(min_size=1, max_size=MAX_PAYLOAD),
       st.integers(min_value=0, max_value=255))
def test_round_trip_property(payload, seq):
    assert link_decode(link_encode(DST, SRC, seq, payload)) == \
        (DST, SRC, seq, payload)
