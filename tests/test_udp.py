"""UDP checksum against the bit-level oracle plus header codec checks."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from modnet.udp import (HEADER_LEN, MAX_PAYLOAD, _ones_complement_sum,
                        udp_checksum, udp_encode_header, udp_verify)
from oracles import checksum_oracle, ones_complement_sum_oracle

SRC = bytes.fromhex("fd000000000000000000000000000001")
DST = bytes.fromhex("fd000000000000000000000000000002")


def datagram(src_port, dst_port, payload):
    hdr = udp_encode_header(src_port, dst_port, HEADER_LEN + len(payload))
    return hdr + payload


def test_checksum_matches_oracle_fixed():
    dg = datagram(5683, 5684, b"hello world")
    assert udp_checksum(SRC, DST, dg) == checksum_oracle(SRC, DST, dg)


def test_all_zero_material():
    # all-zero addresses and datagram: sum is 0x0011 from the pseudo-header
    # next-header byte plus 0x0008 length, never 0
    zero = bytes(16)
    dg = bytes(HEADER_LEN)
    assert udp_checksum(zero, zero, dg) == checksum_oracle(zero, zero, dg)


def test_zero_maps_to_ffff():
    # brute-force a two-byte payload whose one's-complement sum covers the
    # rest, so the raw complement would be 0x0000 and must be sent as 0xFFFF
    zero = bytes(16)
    dg = bytearray(datagram(0, 0, b"\x00\x00"))
    found = None
    for word in range(0x10000):
        struct.pack_into("!H", dg, 8, word)
        if udp_checksum(zero, zero, bytes(dg)) == 0xFFFF:
            found = word
            break
    assert found is not None
    assert checksum_oracle(zero, zero, bytes(dg)) == 0xFFFF


def test_verify_accepts_and_rejects():
    dg = bytearray(datagram(7, 8, b"payload"))
    struct.pack_into("!H", dg, 6, udp_checksum(SRC, DST, bytes(dg)))
    assert udp_verify(SRC, DST, bytes(dg))
    dg[10] ^= 0x01
    assert not udp_verify(SRC, DST, bytes(dg))


def test_received_zero_checksum_invalid():
    dg = datagram(7, 8, b"payload")  # checksum field left at 0
    assert not udp_verify(SRC, DST, dg)


def test_header_encode_shape():
    hdr = udp_encode_header(0xABCD, 0x1234, 20, 0xBEEF)
    assert hdr == bytes.fromhex("abcd12340014beef")


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16),
       st.binary(min_size=0, max_size=64),
       st.integers(min_value=0, max_value=0xFFFF),
       st.integers(min_value=0, max_value=0xFFFF))
def test_checksum_matches_oracle_property(src, dst, payload, sp, dp):
    dg = datagram(sp, dp, payload)
    assert udp_checksum(src, dst, dg) == checksum_oracle(src, dst, dg)


@given(st.binary(min_size=1, max_size=40),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=0xFF))
def test_single_byte_flip_detected(payload, pos_seed, flip):
    dg = bytearray(datagram(1, 2, payload))
    struct.pack_into("!H", dg, 6, udp_checksum(SRC, DST, bytes(dg)))
    assert udp_verify(SRC, DST, bytes(dg))
    pos = HEADER_LEN + pos_seed % len(payload)
    if flip == 0:
        return
    dg[pos] ^= flip
    # a flip can only go undetected if it leaves the word sum unchanged,
    # which a single-byte xor never does
    assert not udp_verify(SRC, DST, bytes(dg))


@pytest.mark.parametrize("data, expected", [
    (b"", 0),
    (b"\x00", 0),
    (bytes(7), 0),
    (bytes(1240), 0),
    (b"\x01", 0x0100),  # odd tail padded with a zero byte
    (b"\x12\x34\x56", 0x1234 + 0x5600),
    (b"\xff", 0xFF00),
    # nonzero multiples of 0xFFFF sum to 0xFFFF, never to 0
    (b"\xff\xff", 0xFFFF),
    (b"\x80\x00\x7f\xff", 0xFFFF),
    (b"\xff\xff" * 620, 0xFFFF),
    (b"\x00\x00\xff\xff\x00", 0xFFFF),
    (b"\xff\xfe\x00\x01", 0xFFFF),
])
def test_ones_complement_sum_edges(data, expected):
    assert ones_complement_sum_oracle(data) == expected
    assert _ones_complement_sum(data) == expected


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=1300))
def test_ones_complement_sum_matches_oracle(data):
    assert _ones_complement_sum(data) == ones_complement_sum_oracle(data)


def test_max_payload_constant():
    assert MAX_PAYLOAD + HEADER_LEN + 40 == 1240
