"""IPv6 header codec, forwarding table, and neighbor cache equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from modnet.ipv6 import (BadVersion, ForwardingTable, HEADER_LEN,
                         LengthMismatch, ON_LINK, RingNeighborCache,
                         SortedNeighborCache, Unreachable, decode,
                         encode_header)
from oracles import LruOracle, route_oracle

A = bytes.fromhex("fd000000000000000000000000000001")
B = bytes.fromhex("fd000000000000000000000000000002")


def ip(n, prefix="fd00"):
    return bytes.fromhex(prefix) + b"\x00" * 12 + n.to_bytes(2, "big")


# -- codec -------------------------------------------------------------------

def test_header_round_trip():
    wire = encode_header(src=A, dst=B, payload_length=8, next_header=17,
                         hop_limit=64) + b"\x00" * 8
    assert len(wire) == 48
    assert decode(wire) == (A, B, 17, 64, b"\x00" * 8)


def test_decode_bad_version():
    wire = bytearray(encode_header(A, B, 0))
    wire[0] = 0x40  # version nibble 4
    with pytest.raises(BadVersion):
        decode(bytes(wire))


def test_decode_shorter_than_a_header():
    with pytest.raises(LengthMismatch):
        decode(bytes(HEADER_LEN - 1))  # 39 bytes


def test_decode_length_mismatch():
    with pytest.raises(LengthMismatch):
        decode(encode_header(src=A, dst=B, payload_length=100)
               + b"\x00" * 90)


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16),
       st.binary(min_size=0, max_size=200),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=1, max_value=255))
def test_codec_round_trip_property(src, dst, payload, nh, hl):
    wire = encode_header(src=src, dst=dst, payload_length=len(payload),
                         next_header=nh, hop_limit=hl)
    assert decode(wire + payload) == (src, dst, nh, hl, payload)


# -- forwarding --------------------------------------------------------------

def test_longest_prefix_wins():
    fwd = ForwardingTable()
    fwd.add(bytes.fromhex("fd00") + b"\x00" * 14, 48, 1, next_hop=B)
    fwd.add(bytes.fromhex("fd000000000000000000000000000000"), 64, 0, ON_LINK)
    iface, nh = fwd.lookup(A)
    assert (iface, nh) == (0, ON_LINK)


def test_default_route():
    fwd = ForwardingTable()
    fwd.add(bytes(16), 0, 2, B)
    assert fwd.lookup(bytes.fromhex("20010db8" + "0" * 24)) == (2, B)


def test_unreachable():
    fwd = ForwardingTable()
    fwd.add(A, 64, 0, ON_LINK)
    with pytest.raises(Unreachable):
        fwd.lookup(bytes.fromhex("20010db8" + "0" * 24))


def test_non_octet_prefix_length():
    fwd = ForwardingTable()
    # /62 prefix: last two bits of byte 7 masked off
    prefix = bytes.fromhex("fd00000000000004") + b"\x00" * 8
    fwd.add(prefix, 62, 3, ON_LINK)
    inside = bytes.fromhex("fd00000000000005") + b"\x00" * 8
    outside = bytes.fromhex("fd00000000000008") + b"\x00" * 8
    assert fwd.lookup(inside) == (3, ON_LINK)
    with pytest.raises(Unreachable):
        fwd.lookup(outside)


# addresses that share long prefixes, so routes overlap and tie
NEAR = [bytes(16), bytes.fromhex("fd01" + "0" * 28),
        *(bytes.fromhex("fd00" + "0" * 24) + n.to_bytes(2, "big")
          for n in (0, 1, 0x8000))]


@given(st.lists(st.tuples(st.sampled_from(NEAR),
                          st.sampled_from([0, 7, 16, 64, 113, 127, 128]),
                          st.integers(0, 3)), max_size=8),
       st.sampled_from(NEAR))
def test_lookup_agrees_with_a_bitwise_oracle(routes, dst):
    """Longest prefix wins, and the first added among equal lengths."""
    fwd = ForwardingTable()
    routes = [(prefix, plen, iface, i)
              for i, (prefix, plen, iface) in enumerate(routes)]
    for route in routes:
        fwd.add(*route)
    expected = route_oracle(routes, dst)
    if expected is None:
        with pytest.raises(Unreachable):
            fwd.lookup(dst)
    else:
        assert fwd.lookup(dst) == expected


# -- neighbor caches ---------------------------------------------------------

@pytest.mark.parametrize("impl", [RingNeighborCache, SortedNeighborCache])
def test_lru_eviction(impl):
    cache = impl(capacity=8)
    for i in range(1, 9):
        cache.insert(ip(i), i.to_bytes(8, "big"))
    cache.lookup(ip(1))  # touch entry 1
    cache.insert(ip(9), (9).to_bytes(8, "big"))
    assert cache.lookup(ip(2)) is None  # entry 2 was LRU
    assert cache.lookup(ip(1)) is not None
    assert len(cache) == 8


@pytest.mark.parametrize("impl", [RingNeighborCache, SortedNeighborCache])
def test_lookup_absent(impl):
    assert impl().lookup(ip(42)) is None


@pytest.mark.parametrize("impl", [RingNeighborCache, SortedNeighborCache])
def test_reinsert_updates(impl):
    cache = impl(capacity=2)
    cache.insert(ip(1), b"\x01" * 8)
    cache.insert(ip(1), b"\x02" * 8)
    assert len(cache) == 1
    assert cache.lookup(ip(1)) == b"\x02" * 8


def run_cache_script(cache, ops):
    out = []
    for op, n in ops:
        if op == "insert":
            cache.insert(ip(n), n.to_bytes(8, "big"))
            out.append(("insert", n))
        else:
            out.append(("lookup", n, cache.lookup(ip(n))))
    return out


def random_script(rng, length):
    return [(rng.choice(["insert", "lookup"]), rng.randint(0, 15))
            for _ in range(length)]


def test_ring_matches_lru_oracle():
    rng = random.Random(11)
    ops = random_script(rng, 10_000)
    cache = RingNeighborCache(capacity=8)
    oracle = LruOracle(capacity=8)
    for op, n in ops:
        if op == "insert":
            cache.insert(ip(n), n.to_bytes(8, "big"))
            oracle.insert(ip(n), n.to_bytes(8, "big"))
        else:
            assert cache.lookup(ip(n)) == oracle.lookup(ip(n))


@pytest.mark.parametrize("seed", range(20))
def test_sorted_matches_ring_differential(seed):
    # RING is the oracle for SORTED; full 100-seed sweep in acceptance
    rng = random.Random(seed)
    ops = random_script(rng, 10_000)
    ring = RingNeighborCache(capacity=8)
    sorted_ = SortedNeighborCache(capacity=8)
    assert run_cache_script(ring, ops) == run_cache_script(sorted_, ops)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "lookup"]),
                          st.integers(min_value=0, max_value=12)),
                max_size=60),
       st.integers(min_value=1, max_value=10))
def test_cache_equivalence_property(ops, capacity):
    ring = RingNeighborCache(capacity)
    sorted_ = SortedNeighborCache(capacity)
    assert run_cache_script(ring, ops) == run_cache_script(sorted_, ops)
