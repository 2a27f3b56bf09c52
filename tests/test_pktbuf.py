"""Packet buffer: allocation, priorities, chains, backend equivalence."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from modnet.pktbuf import (ALIGN, BACKENDS, AllocPriority, ArenaBuffer,
                           CapacityTooSmall, DynamicBuffer, InvalidSize,
                           NoBufferSpace, ProtocolType,
                           RESERVE_FRAC, ReleaseUnheld, SNIP_OVERHEAD,
                           _block_cost)


def test_fresh_buffer_stats():
    buf = ArenaBuffer(2048)
    stats = buf.stats()
    assert stats.capacity == 2048
    assert stats.used == 0
    assert stats.peak == 0
    assert stats.largest_free_block == 2048


def test_capacity_floor():
    with pytest.raises(CapacityTooSmall):
        ArenaBuffer(128)
    # floor applies to the arena only
    DynamicBuffer(128)


def test_alloc_basic():
    buf = ArenaBuffer(2048)
    snip = buf.alloc_snip(size=128, proto=ProtocolType.APP,
                          prio=AllocPriority.SEND_APP)
    assert snip.users == 1
    assert snip.size == 128
    assert buf.stats().used >= 128


def test_alloc_zero_size():
    buf = ArenaBuffer(2048)
    with pytest.raises(InvalidSize):
        buf.alloc_snip(size=0)


def test_alloc_copies_payload():
    buf = ArenaBuffer(2048)
    payload = bytes(range(100))
    snip = buf.alloc_snip(payload=payload)
    assert bytes(snip.data) == payload


@pytest.mark.parametrize("backend", BACKENDS)
def test_send_app_reserve_rule(backend):
    # fill to ~1536/2048 with SEND_APP, then SEND_APP fails but RECEIVE works
    buf = BACKENDS[backend](2048)
    live = []
    while True:
        try:
            live.append(buf.alloc_snip(size=128 - SNIP_OVERHEAD,
                                       prio=AllocPriority.SEND_APP))
        except NoBufferSpace:
            break
    assert buf.stats().used <= 2048 - buf.reserve
    with pytest.raises(NoBufferSpace):
        buf.alloc_snip(size=128, prio=AllocPriority.SEND_APP)
    snip = buf.alloc_snip(size=128, prio=AllocPriority.RECEIVE)
    assert snip.users == 1
    assert buf.stats().failed_allocs[AllocPriority.SEND_APP] >= 1


def test_hold_release_cycle():
    buf = ArenaBuffer(2048)
    before = buf.stats().used
    snip = buf.alloc_snip(size=64)
    buf.hold(snip)
    assert snip.users == 2
    buf.release(snip)
    buf.release(snip)
    assert snip.users == 0
    assert buf.stats().used == before
    assert buf.stats().peak >= 64


def test_release_unheld():
    buf = ArenaBuffer(2048)
    snip = buf.alloc_snip(size=64)
    buf.release(snip)
    with pytest.raises(ReleaseUnheld):
        buf.release(snip)


def test_release_checks_whole_chain_before_changing_any_snip():
    buf = ArenaBuffer(2048)
    tail = buf.alloc_snip(size=32)
    pkt = buf.prepend_header(tail, 8, ProtocolType.UDP)
    buf.release(tail)  # the tail is freed under the head
    used = buf.stats().used
    with pytest.raises(ReleaseUnheld):
        buf.release(pkt)
    assert pkt.users == 1
    assert buf.stats().used == used


def test_chain_walks_stop_on_a_cycle():
    buf = ArenaBuffer(2048)
    a = buf.alloc_snip(size=8)
    b = buf.alloc_snip(size=8)
    a.next, b.next = b, a
    with pytest.raises(RuntimeError, match="cycle"):
        a.total_size
    with pytest.raises(RuntimeError, match="cycle"):
        buf.release(a)
    assert a.users == b.users == 1
    with pytest.raises(RuntimeError, match="cycle"):
        buf.hold(a)


def free_state(buf):
    stats = buf.stats()
    blocks = buf.free_list() if isinstance(buf, ArenaBuffer) else None
    return stats.used, stats.peak, stats.largest_free_block, blocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_release_freed_one_snip_chain_changes_nothing(backend):
    buf = BACKENDS[backend](2048)
    a = buf.alloc_snip(size=64)
    buf.alloc_snip(size=40)  # keeps the free list in more than one piece
    buf.release(a)
    before = free_state(buf)
    with pytest.raises(ReleaseUnheld):
        buf.release(a)
    assert a.users == 0
    assert free_state(buf) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_hold_checks_whole_chain_before_changing_any_snip(backend):
    buf = BACKENDS[backend](2048)
    tail = buf.alloc_snip(size=40)
    pkt = buf.prepend_header(tail, 8, ProtocolType.UDP)
    buf.release(tail)  # the tail is freed under the head
    with pytest.raises(ReleaseUnheld):
        buf.hold(tail)
    with pytest.raises(ReleaseUnheld):
        buf.hold(pkt)
    assert pkt.users == 1 and tail.users == 0
    pkt.next = None
    buf.release(pkt)
    assert buf.stats().used == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_hold_adds_one_user_to_every_snip_of_a_chain(backend):
    buf = BACKENDS[backend](2048)
    before = free_state(buf)
    pkt = buf.prepend_header(buf.alloc_snip(size=100), 8,
                             ProtocolType.UDP)
    pkt = buf.prepend_header(pkt, 40, ProtocolType.IPV6)
    snips = [pkt, pkt.next, pkt.next.next]
    assert [s.users for s in snips] == [1, 1, 1] and snips[2].next is None
    buf.hold(pkt)
    assert [s.users for s in snips] == [2, 2, 2]
    buf.release(pkt)
    assert [s.users for s in snips] == [1, 1, 1]
    buf.release(pkt)
    assert [s.users for s in snips] == [0, 0, 0]
    assert buf.stats().used == 0
    # the largest free block and the arena's free list are whole again
    assert free_state(buf)[2:] == before[2:]


@pytest.mark.parametrize("backend", BACKENDS)
def test_release_one_snip_cycle_is_caught(backend):
    buf = BACKENDS[backend](2048)
    a = buf.alloc_snip(size=8)
    a.next = a
    used = buf.stats().used
    with pytest.raises(RuntimeError, match="cycle"):
        buf.release(a)
    assert a.users == 1
    assert buf.stats().used == used


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("headers", [0, 1, 2])
def test_to_bytes_joins_snips(backend, headers):
    buf = BACKENDS[backend](2048)
    pkt = buf.alloc_snip(payload=b"payload!" * 5)
    expected = b"payload!" * 5
    for n in range(headers):
        hdr = bytes([0xA0 + n]) * (8 + n)
        pkt = buf.prepend_header(pkt, len(hdr), ProtocolType.UDP)
        pkt.data[:] = hdr
        expected = hdr + expected
    out = pkt.to_bytes()
    assert type(out) is bytes
    assert out == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_to_bytes_after_prepend_on_shared_head(backend):
    buf = BACKENDS[backend](2048)
    shared = buf.alloc_snip(payload=b"shared")
    buf.hold(shared)  # two receivers hold the same head
    one = buf.prepend_header(shared, 2, ProtocolType.UDP)
    two = buf.prepend_header(shared, 3, ProtocolType.IPV6)
    one.data[:] = b"\x01\x01"
    two.data[:] = b"\x02\x02\x02"
    assert one.to_bytes() == b"\x01\x01shared"
    assert two.to_bytes() == b"\x02\x02\x02shared"
    assert type(shared.to_bytes()) is bytes
    assert shared.to_bytes() == b"shared"
    buf.release(one)
    buf.release(two)
    assert buf.stats().used == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_send_app_reserve_edge(backend):
    buf = BACKENDS[backend](2048)
    edge = buf.capacity - buf.reserve
    # one ALIGN past the edge: refused for SEND_APP, granted for RECEIVE
    with pytest.raises(NoBufferSpace):
        buf.alloc_snip(size=edge + ALIGN - SNIP_OVERHEAD,
                       prio=AllocPriority.SEND_APP)
    assert buf.stats().used == 0
    buf.release(buf.alloc_snip(size=edge + ALIGN - SNIP_OVERHEAD,
                               prio=AllocPriority.RECEIVE))
    # exactly at the edge: granted for SEND_APP
    buf.alloc_snip(size=edge - SNIP_OVERHEAD, prio=AllocPriority.SEND_APP)
    assert buf.stats().used == edge
    # at the edge, the smallest SEND_APP snip is refused, RECEIVE is not
    with pytest.raises(NoBufferSpace):
        buf.alloc_snip(size=1, prio=AllocPriority.SEND_APP)
    assert buf.stats().failed_allocs[AllocPriority.SEND_APP] == 2
    assert buf.stats().used == edge
    buf.alloc_snip(size=1, prio=AllocPriority.RECEIVE)
    assert buf.stats().used == edge + _block_cost(1)
    assert buf.stats().failed_allocs[AllocPriority.RECEIVE] == 0


def test_chain_release_frees_all():
    buf = ArenaBuffer(2048)
    payload = buf.alloc_snip(size=100, proto=ProtocolType.APP)
    pkt = buf.prepend_header(payload, 8, ProtocolType.UDP)
    pkt = buf.prepend_header(pkt, 40, ProtocolType.IPV6)
    assert pkt.total_size == 148
    udp_hdr = pkt.next
    assert (pkt.size, udp_hdr.size, udp_hdr.next.size) == (40, 8, 100)
    assert udp_hdr.next is payload and payload.next is None
    buf.release(pkt)
    assert buf.stats().used == 0


def test_prepend_does_not_touch_payload():
    buf = ArenaBuffer(2048)
    payload = buf.alloc_snip(payload=b"x" * 100, proto=ProtocolType.APP)
    out = buf.prepend_header(payload, 8, ProtocolType.UDP)
    assert out.next is payload
    assert bytes(payload.data) == b"x" * 100
    assert out.total_size == 108


def test_prepend_shared_head_leaves_original_intact():
    buf = ArenaBuffer(2048)
    payload = buf.alloc_snip(payload=b"p" * 50)
    buf.hold(payload)  # second holder simulates another receiver
    out = buf.prepend_header(payload, 8, ProtocolType.UDP)
    assert payload.next is None  # original chain unmodified
    assert out.next is payload
    buf.release(out)
    buf.release(payload)
    assert buf.stats().used == 0


def test_prepend_failure_atomicity():
    buf = ArenaBuffer(512)
    payload = buf.alloc_snip(size=256, prio=AllocPriority.RECEIVE)
    used = buf.stats().used
    with pytest.raises(NoBufferSpace):
        buf.prepend_header(payload, 400, prio=AllocPriority.RECEIVE)
    assert buf.stats().used == used
    assert payload.next is None
    assert payload.users == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_payload_that_cannot_be_copied_gives_its_block_back(backend):
    buf = BACKENDS[backend](2048)
    buf.alloc_snip(size=40)  # the refused block would sit after a live one
    before = free_state(buf)
    with pytest.raises(TypeError):
        buf.alloc_snip(payload="hello")
    assert free_state(buf) == before
    # 3 items of 2 bytes: neither backend stores 6 bytes in a 3-byte snip
    with pytest.raises(ValueError):
        buf.alloc_snip(payload=array("H", [1, 2, 3]))
    assert free_state(buf) == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("payload", [
    array("B", [1, 2, 3]), memoryview(b"\x01\x02\x03"),
    bytearray(b"\x01\x02\x03"),
], ids=["array_B", "memoryview", "bytearray"])
def test_a_payload_of_bytes_is_copied_on_either_backend(backend, payload):
    buf = BACKENDS[backend](2048)
    snip = buf.alloc_snip(payload=payload)
    assert snip.size == len(snip.data) == 3
    assert snip.to_bytes() == b"\x01\x02\x03"
    assert buf.stats().used == _block_cost(3)
    buf.release(snip)
    assert buf.stats().used == 0


def test_arena_refuses_an_array_whose_len_is_not_its_byte_count():
    buf = ArenaBuffer(2048)
    before = free_state(buf)
    with pytest.raises(ValueError):
        buf.alloc_snip(payload=array("H", [1, 2, 3]))
    assert free_state(buf) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_prepend_of_no_header_is_an_invalid_size(backend):
    buf = BACKENDS[backend](2048)
    payload = buf.alloc_snip(payload=b"p" * 50)
    before = free_state(buf)
    with pytest.raises(InvalidSize):
        buf.prepend_header(payload, 0, ProtocolType.UDP)
    assert free_state(buf) == before
    assert payload.next is None
    assert payload.users == 1 and bytes(payload.data) == b"p" * 50


def test_dispatch_two_receivers_reclamation():
    buf = ArenaBuffer(2048)
    snip = buf.alloc_snip(size=64)
    buf.hold(snip)  # receiver 1
    buf.hold(snip)  # receiver 2
    buf.release(snip)  # sender
    buf.release(snip)
    buf.release(snip)
    assert buf.stats().used == 0


def test_arena_data_alignment():
    buf = ArenaBuffer(2048)
    for size in (1, 2, 3, 5, 7, 13):
        snip = buf.alloc_snip(size=size)
        assert (snip._offset + SNIP_OVERHEAD) % ALIGN == 0


def test_conservation_invariant():
    buf = ArenaBuffer(2048)
    live = [buf.alloc_snip(size=s) for s in (17, 64, 3, 130)]
    expected = sum(_block_cost(s.size) for s in live)
    assert buf.stats().used == expected
    buf.release(live.pop(1))
    expected = sum(_block_cost(s.size) for s in live)
    assert buf.stats().used == expected


def test_no_overlap_between_live_snips():
    buf = ArenaBuffer(2048)
    snips = [buf.alloc_snip(size=s) for s in (33, 64, 21, 100)]
    spans = sorted((s._offset, s._offset + _block_cost(s.size))
                   for s in snips)
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 <= b0


def free_list_oracle(buf: ArenaBuffer):
    """Independent walk: reconstruct free space from capacity minus the
    spans the allocator reports, then compare largest block."""
    blocks = sorted(buf.free_list())
    total_free = sum(length for _, length in blocks)
    largest = max((length for _, length in blocks), default=0)
    # adjacent blocks must have been coalesced
    for (a0, a1), (b0, _) in zip(
            [(o, o + n) for o, n in blocks],
            [(o, o) for o, _ in blocks[1:]]):
        assert a1 < b0
    return total_free, largest


def test_fragmentation_ratio_matches_free_list_walk():
    buf = ArenaBuffer(2048)
    live = {}
    import random
    rng = random.Random(7)
    for i in range(200):
        if live and rng.random() < 0.45:
            key = rng.choice(list(live))
            buf.release(live.pop(key))
        else:
            try:
                live[i] = buf.alloc_snip(size=rng.randint(1, 300),
                                         prio=AllocPriority.RECEIVE)
            except NoBufferSpace:
                pass
        stats = buf.stats()
        total_free, largest = free_list_oracle(buf)
        assert total_free == stats.capacity - stats.used
        assert largest == stats.largest_free_block
        if total_free:
            assert stats.fragmentation_ratio == pytest.approx(
                1 - largest / total_free)
        else:
            assert stats.fragmentation_ratio == 0.0


def run_script(buf, script):
    """Execute (op, ...) steps; returns the success/failure outcome list."""
    live = {}
    outcomes = []
    for step in script:
        if step[0] == "alloc":
            _, key, size, prio = step
            try:
                live[key] = buf.alloc_snip(size=size, prio=prio)
                outcomes.append(("alloc", key, True))
            except NoBufferSpace:
                outcomes.append(("alloc", key, False))
        else:
            _, key = step
            if key in live:
                buf.release(live.pop(key))
                outcomes.append(("free", key, True))
    return outcomes


FIXED_SCRIPTS = [
    # mixed sizes, audited by hand: demand never exceeds either backend
    [("alloc", 0, 100, AllocPriority.SEND_APP),
     ("alloc", 1, 700, AllocPriority.SEND_APP),
     ("alloc", 2, 900, AllocPriority.SEND_APP),  # over the 1536 line
     ("free", 0),
     ("alloc", 3, 500, AllocPriority.RECEIVE),
     ("alloc", 4, 1800, AllocPriority.RECEIVE),  # too big either way
     ("free", 1),
     ("alloc", 5, 600, AllocPriority.SEND_APP)],
    [("alloc", 0, 1500, AllocPriority.RECEIVE),
     ("alloc", 1, 600, AllocPriority.RECEIVE),
     ("free", 0),
     ("alloc", 2, 1400, AllocPriority.RECEIVE)],
]


@pytest.mark.parametrize("script", FIXED_SCRIPTS)
def test_backend_differential_fixed(script):
    arena = ArenaBuffer(2048)
    dyn = DynamicBuffer(2048)
    assert run_script(arena, script) == run_script(dyn, script)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_backend_differential_uniform_sizes(data):
    # uniform size per script: first-fit cannot fragment, so outcome
    # sequences must match exactly whatever the alloc/free order
    size = data.draw(st.integers(min_value=1, max_value=400))
    prios = st.sampled_from(list(AllocPriority))
    n = data.draw(st.integers(min_value=1, max_value=40))
    script = []
    alive = []
    for key in range(n):
        if alive and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(alive))
            alive.remove(victim)
            script.append(("free", victim))
        script.append(("alloc", key, size, data.draw(prios)))
        alive.append(key)
    arena = ArenaBuffer(4096)
    dyn = DynamicBuffer(4096)
    assert run_script(arena, script) == run_script(dyn, script)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=256), min_size=1,
                max_size=20))
def test_receive_reserve_always_available(sizes):
    # saturate with SEND_APP, then RECEIVE still gets a reserve-sized block
    buf = ArenaBuffer(2048)
    for s in sizes:
        try:
            buf.alloc_snip(size=s, prio=AllocPriority.SEND_APP)
        except NoBufferSpace:
            break
    snip = buf.alloc_snip(size=buf.reserve - SNIP_OVERHEAD - ALIGN,
                          prio=AllocPriority.RECEIVE)
    assert snip.users == 1


class FirstFitModel:
    """Reference arena: a sorted list of (offset, length) free blocks,
    first fit at the lowest address, coalesced by a full re-sort."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.reserve = int(capacity * RESERVE_FRAC)
        self.free = [(0, capacity)]
        self.used = self.peak = 0

    def alloc(self, size, prio):
        """The block's offset, or None when the arena refuses it."""
        cost = _block_cost(size)
        cap = self.capacity
        if prio == AllocPriority.SEND_APP:
            cap -= self.reserve
        if self.used + cost > cap:
            return None
        for i, (off, length) in enumerate(self.free):
            if length >= cost:
                rest = [(off + cost, length - cost)] if length > cost else []
                self.free[i:i + 1] = rest
                self.used += cost
                self.peak = max(self.peak, self.used)
                return off
        return None

    def release(self, off, size):
        cost = _block_cost(size)
        merged = []
        for start, length in sorted(self.free + [(off, cost)]):
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self.free = merged
        self.used -= cost


ALLOC_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=400),
              st.sampled_from(list(AllocPriority)), st.booleans()),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=63))),
    max_size=80)


class ModelledArena:
    """An arena driven beside a ``FirstFitModel``: every allocation lands
    where the model puts it (or both refuse), and after every operation
    the free list, ``used``, ``peak`` and the largest free block agree.
    Each snip is filled with the next byte of a running count, and every
    live snip must still hold its fill, so an overlap shows."""

    def __init__(self, capacity):
        self.buf = ArenaBuffer(capacity, locked=False)
        self.model = FirstFitModel(capacity)
        self.live = []  # (snip, offset the model chose, its fill)
        self.allocs = 0

    def check(self):
        buf, model = self.buf, self.model
        assert buf.free_list() == model.free
        assert (buf.used, buf.peak) == (model.used, model.peak)
        assert buf.stats().largest_free_block == max(
            (length for _, length in model.free), default=0)
        for snip, _, data in self.live:
            assert bytes(snip.data) == data

    def alloc(self, size, prio=AllocPriority.RECEIVE, by_payload=False):
        """The new snip, or None when both refuse it."""
        expected = self.model.alloc(size, prio)
        self.allocs += 1
        data = bytes([self.allocs & 0xFF]) * size
        try:
            if by_payload:
                snip = self.buf.alloc_snip(payload=data, prio=prio)
            else:
                snip = self.buf.alloc_snip(size=size, prio=prio)
                snip.data[:] = data
        except NoBufferSpace:
            assert expected is None
            snip = None
        else:
            assert snip._offset == expected
            self.live.append((snip, expected, data))
        self.check()
        return snip

    def joins(self, snip):
        """(joins the previous free block, joins the next) on release."""
        end = snip._offset + snip._cost
        return (any(o + n == snip._offset for o, n in self.model.free),
                any(o == end for o, _ in self.model.free))

    def release(self, snip):
        index = next(i for i, (s, _, _) in enumerate(self.live)
                     if s is snip)
        _, off, _ = self.live.pop(index)
        self.buf.release(snip)
        self.model.release(off, snip.size)
        self.check()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([256, 1000, 2048]), ALLOC_OPS)
def test_arena_matches_a_first_fit_model(capacity, ops):
    arena = ModelledArena(capacity)
    for op, arg, *how in ops:
        if op == "alloc":
            arena.alloc(arg, *how)
        elif arena.live:
            arena.release(arena.live[arg % len(arena.live)][0])


def test_a_release_joins_the_previous_the_next_both_or_neither():
    arena = ModelledArena(1024)
    a, b, c, d, e = (arena.alloc(48) for _ in range(5))  # 64 B blocks
    for snip, joins in ((b, (False, False)), (a, (False, True)),
                        (c, (True, False)), (e, (False, True)),
                        (d, (True, True))):
        assert arena.joins(snip) == joins
        arena.release(snip)
    assert arena.buf.free_list() == [(0, 1024)]


def test_an_exact_fit_takes_the_whole_block():
    arena = ModelledArena(1024)
    a, b, c = (arena.alloc(48) for _ in range(3))
    arena.release(b)
    assert arena.buf.free_list() == [(64, 64), (192, 832)]
    arena.alloc(45, by_payload=True)  # 16 + 48 = 64 B: the hole at 64
    assert arena.buf.free_list() == [(192, 832)]


def test_first_fit_skips_a_block_too_small():
    arena = ModelledArena(1024)
    a, b, c = (arena.alloc(48) for _ in range(3))
    arena.release(b)
    assert arena.alloc(100)._offset == 192  # 116 B: past the 64 B hole
    assert arena.alloc(48)._offset == 64  # the hole, still first
    assert arena.buf.free_list() == [(308, 716)]


def test_fragmentation_refuses_with_enough_free_bytes():
    arena = ModelledArena(256)
    blocks = [arena.alloc(48) for _ in range(4)]  # 4 x 64 B fill it
    assert arena.buf.free_list() == []
    assert arena.buf.stats().largest_free_block == 0
    arena.release(blocks[0])
    arena.release(blocks[2])
    free = arena.buf.capacity - arena.buf.used
    with pytest.raises(NoBufferSpace, match="no contiguous block"):
        arena.buf.alloc_snip(size=80, prio=AllocPriority.RECEIVE)
    assert _block_cost(80) <= free
    assert arena.buf.failed_allocs[AllocPriority.RECEIVE] == 1
    assert arena.alloc(80) is None  # the model refuses it too
    assert arena.buf.free_list() == [(0, 64), (128, 64)]
