"""Fragmentation/reassembly against the brute-force oracle, golden
vectors, and the reassembly table's drop/timeout behavior."""

import pathlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from modnet.metrics import Metrics
from modnet.pktbuf import BACKENDS
from modnet.sixlowpan import (FRAGN_DISPATCH, BudgetTooSmall,
                              DatagramTooLarge, MalformedFragment,
                              ReassemblyStatus, ReassemblyTable, fragment,
                              parse_payload)
from oracles import fragment_oracle, reassemble_oracle

SRC = b"\x00" * 7 + b"\x01"
DST = b"\x00" * 7 + b"\x02"


def pattern(n):
    return bytes((i * 7 + 13) & 0xFF for i in range(n))


def make_table(backend="DYNAMIC"):
    return ReassemblyTable(BACKENDS[backend](8192), Metrics(locked=False))


def feed_all(table, frags, src=SRC, dst=DST, now=0):
    result = None
    for frag in frags:
        result = table.step(frag, src, dst, now)
    return result


# -- fragment ----------------------------------------------------------------

def test_small_datagram_unfragmented():
    frags = fragment(pattern(80), 110, 1)
    assert len(frags) == 1
    assert frags[0][0] == 0x41
    assert len(frags[0]) == 81


def test_1280_byte_datagram_matches_oracle():
    frags = fragment(pattern(1280), 110, 21)
    assert frags == fragment_oracle(pattern(1280), 110, 21)
    # FRAG1 carries 104 bytes (largest multiple of 8 <= 106)
    assert len(frags[0]) == 4 + 104


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        fragment(pattern(100), 15, 1)


def test_datagram_too_large():
    with pytest.raises(DatagramTooLarge):
        fragment(pattern(2048), 110, 1)


def test_golden_vectors():
    path = pathlib.Path(__file__).parent / "data" / "frag_vectors.txt"
    lines = path.read_text().splitlines()
    i = 0
    cases = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("case "):
            continue
        fields = dict(kv.split("=") for kv in line[5:].split())
        size, budget = int(fields["size"]), int(fields["budget"])
        tag, n = int(fields["tag"]), int(fields["n"])
        expected = []
        while i < len(lines) and lines[i].startswith("  "):
            expected.append(bytes.fromhex(lines[i].strip()))
            i += 1
        assert len(expected) == n
        assert fragment(pattern(size), budget, tag) == expected
        cases += 1
    assert cases >= 10


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=1400),
       st.integers(min_value=16, max_value=110),
       st.integers(min_value=0, max_value=0xFFFF))
def test_fragment_matches_oracle_property(size, budget, tag):
    datagram = pattern(size)
    assert fragment(datagram, budget, tag) == \
        fragment_oracle(datagram, budget, tag)


# -- reassembly --------------------------------------------------------------

def test_reassemble_in_order():
    datagram = pattern(1280)
    frags = fragment(datagram, 110, 9)
    status, chain, _ = feed_all(make_table(), frags)
    assert status == ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram


def test_reassemble_reversed_order():
    datagram = pattern(600)
    frags = fragment(datagram, 110, 9)
    status, chain, _ = feed_all(make_table(), list(reversed(frags)))
    assert status == ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram


def test_reassemble_all_permutations_three_fragments():
    import itertools
    datagram = pattern(250)
    frags = fragment(datagram, 110, 3)
    assert len(frags) == 3
    for perm in itertools.permutations(frags):
        status, chain, _ = feed_all(make_table(), list(perm))
        assert status == ReassemblyStatus.COMPLETE
        assert chain.to_bytes() == datagram


def test_duplicate_fragment_idempotent():
    datagram = pattern(300)
    frags = fragment(datagram, 110, 4)
    table = make_table()
    table.step(frags[0], SRC, DST, 0)
    table.step(frags[0], SRC, DST, 0)  # identical duplicate: fine
    status, chain, _ = feed_all(table, frags[1:])
    assert status == ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram


def test_overlap_with_differing_content_drops_entry():
    datagram = pattern(300)
    frags = fragment(datagram, 110, 4)
    table = make_table()
    table.step(frags[0], SRC, DST, 0)
    poisoned = frags[0][:4] + bytes(len(frags[0]) - 4)
    status, _, _ = table.step(poisoned, SRC, DST, 0)
    assert status == ReassemblyStatus.DROPPED
    assert not table.entries
    assert table.buffer.stats().used == 0


def fragn(datagram, tag, offset, length):
    """A FRAGN carrying ``datagram[offset:offset + length]``."""
    return (struct.pack("!HHB", (FRAGN_DISPATCH << 11) | len(datagram), tag,
                        offset // 8) + datagram[offset:offset + length])


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_overlap_with_identical_bytes_completes(backend):
    datagram = pattern(300)
    frags = fragment(datagram, 110, 4)  # FRAG1 holds units 0-12
    table = make_table(backend)
    table.step(frags[0], SRC, DST, 0)
    # unit 12 was received, unit 13 was not: only unit 12 is compared
    status, _, _ = table.step(fragn(datagram, 4, 96, 16), SRC, DST, 0)
    assert status == ReassemblyStatus.INCOMPLETE
    status, chain, _ = feed_all(table, frags[1:])
    assert status == ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_overlap_with_differing_bytes_drops_entry(backend):
    datagram = pattern(300)
    frags = fragment(datagram, 110, 4)
    table = make_table(backend)
    table.step(frags[0], SRC, DST, 0)
    altered = bytearray(datagram)
    altered[100] ^= 0xFF  # inside unit 12, which FRAG1 delivered
    status, _, _ = table.step(fragn(bytes(altered), 4, 96, 16), SRC, DST, 0)
    assert status == ReassemblyStatus.DROPPED
    assert not table.entries
    assert table.buffer.stats().used == 0


def test_table_full_drops_new_datagram_only():
    table = make_table()
    for tag in (1, 2):
        frags = fragment(pattern(300), 110, tag)
        table.step(frags[0], SRC, DST, 0)
    frags3 = fragment(pattern(300), 110, 3)
    status, _, _ = table.step(frags3[0], SRC, DST, 0)
    assert status == ReassemblyStatus.DROPPED
    assert len(table.entries) == 2  # existing entries untouched


def test_timeout_reclaims_buffer():
    table = make_table()
    assert table.expire(5_000_000) == 0  # an empty table
    frags = fragment(pattern(1280), 110, 7)
    feed_all(table, frags[:-1])  # one FRAGN missing
    assert table.buffer.stats().used > 0
    assert table.expire(5_000_000) == 1
    assert not table.entries
    assert table.buffer.stats().used == 0


def test_malformed_fragment_rejected():
    table = make_table()
    with pytest.raises(MalformedFragment):
        table.step(b"\xc0\x10", SRC, DST, 0)  # truncated FRAG1
    with pytest.raises(MalformedFragment):
        parse_payload(b"\x00\x01\x02")  # unknown dispatch
    with pytest.raises(MalformedFragment):
        parse_payload(b"")


def test_an_unfragmented_payload_is_refused_by_reassembly():
    # it parses with datagram size 0, so its data exceeds the datagram
    table = make_table()
    with pytest.raises(MalformedFragment, match="exceeds datagram size"):
        table.step(b"\x41" + pattern(40), SRC, DST, 0)
    assert not table.entries and table.buffer.stats().used == 0


def test_concurrent_reassembly_two_sources():
    table = make_table()
    d1, d2 = pattern(500), pattern(400)[::-1]
    f1 = fragment(d1, 110, 11)
    f2 = fragment(d2, 110, 12)
    rng = random.Random(3)
    interleaved = [("a", f) for f in f1] + [("b", f) for f in f2]
    rng.shuffle(interleaved)
    done = {}
    for which, frag in interleaved:
        src = SRC if which == "a" else DST
        status, chain, _ = table.step(frag, src, DST, 0)
        if status == ReassemblyStatus.COMPLETE:
            done[which] = chain.to_bytes()
    assert done == {"a": d1, "b": d2}


# -- round-trip property suite ----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=1400),
       st.integers(min_value=16, max_value=110),
       st.randoms(use_true_random=False))
def test_fragment_shuffle_reassemble_identity(size, budget, rng):
    datagram = pattern(size)
    frags = fragment(datagram, budget, 1)
    assert reassemble_oracle(frags) == datagram  # oracle self-check
    shuffled = list(frags)
    rng.shuffle(shuffled)
    table = make_table()
    last = None
    for frag in shuffled:
        if frag[0] == 0x41:
            assert frag[1:] == datagram
            return
        last = table.step(frag, SRC, DST, 0)
    status, chain, _ = last
    assert status == ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram


@pytest.mark.parametrize("size", [60, 300, 1280])
def test_parsed_data_is_a_view_of_the_frame(size):
    """``parse_payload`` hands out the fragment's data as a view of the
    payload it was given, on the reassembly path and the 0x41 path."""
    for frag in fragment(pattern(size), 110, 5):
        kind, _, _, _, data = parse_payload(frag)
        header = {"uncompressed": 1, "frag1": 4, "fragn": 5}[kind]
        assert isinstance(data, memoryview) and data.obj is frag
        assert data == frag[header:]


@pytest.mark.parametrize("backend", ["DYNAMIC", "STATIC_ARENA"])
@pytest.mark.parametrize("seed", range(4))
def test_reassembly_from_views_is_byte_identical(backend, seed):
    """Fragments fed in any order, one of them twice, reassemble from the
    views to the very datagram that was fragmented."""
    datagram = pattern(900 + seed * 97)
    frags = fragment(datagram, 110, seed)
    order = list(frags)
    random.Random(seed).shuffle(order)
    order.insert(len(order) // 2, order[0])  # a byte-identical duplicate
    status, chain, _ = feed_all(make_table(backend), order)
    assert status is ReassemblyStatus.COMPLETE
    assert chain.to_bytes() == datagram
    assert chain.to_bytes() == reassemble_oracle(frags)


# -- receive path ------------------------------------------------------------

@pytest.mark.parametrize("name, frames", [("echo.json", 2),
                                          ("echo_frag.json", 14)])
def test_each_received_frame_parsed_once(monkeypatch, name, frames):
    # on_rcv parses an unfragmented frame and step() parses a fragment;
    # neither frame is parsed a second time
    from modnet import sixlowpan
    from modnet.scenario import load_scenario_file, run_scenario
    calls = []

    def counted(payload):
        calls.append(len(payload))
        return parse_payload(payload)

    monkeypatch.setattr(sixlowpan, "parse_payload", counted)
    scenario = load_scenario_file(str(pathlib.Path(__file__).parent.parent
                                      / "scenarios" / name))
    _, stats = run_scenario(scenario)
    assert stats["counters"]["frames_delivered"] == frames
    assert len(calls) == frames


@pytest.mark.parametrize("mode", ["det", "par"])
def test_lone_fragment_expires_at_its_due_time(mode):
    """echo_frag.json's b receives a FRAG1 whose FRAGNs never come.  Its
    entry holds buffer memory until the one expiry timer, due 5,000,001 us
    after the frame arrived, releases it, counted; the run ends on that
    timer in both modes."""
    from modnet.link import link_encode
    from modnet.scenario import load_scenario_file
    from modnet.simnet import build
    scenario = load_scenario_file(str(pathlib.Path(__file__).parent.parent
                                      / "scenarios" / "echo_frag.json"))
    sim = build(scenario.topology, mode=mode)
    try:
        a, b = sim.nodes["a"], sim.nodes["b"]
        size, tag = 640, 1
        frag1 = struct.pack("!HH", (0b11000 << 11) | size, tag) + bytes(16)
        a.devices[0].dev_send(link_encode(b.devices[0].addr_long,
                                          a.devices[0].addr_long, 0, frag1))
        arrival = sim.sched.now_us + scenario.topology.links[0].delay_us
        sim.run_until(arrival)
        assert b.pktbuf.used > 0  # the open entry
        sim.run_until()
        assert sim.sched.now_us == arrival + 5_000_001
        assert sim.metrics.get("reassembly_timeouts") == 1
        assert [a.pktbuf.used, b.pktbuf.used] == [0, 0]
        assert not getattr(sim.sched, "errors", [])
    finally:
        sim.stop()
