"""Central packet buffer.

All header and payload memory for packets moving through a node's stack is
provisioned here.  A packet is a chain of "snips", one buffer-resident
segment per protocol layer (link header, IPv6 header, UDP header, payload
...) linked outermost-first, and as in GNRC it is passed as its head snip.
Headers are prepended as fresh snips, so adding one moves no payload byte;
``metrics`` lists the copies the stack still makes.

Two interchangeable backends satisfy the same contract: a statically sized
arena with a first-fit free list (the constrained-device model) and a
dynamic backend that allocates from the host heap under the same byte cap.

Every snip's ``data`` is a memoryview of exactly ``size`` bytes (of its
arena block, or of its own bytearray), so ``to_bytes`` joins the views as
they are, and both backends refuse the same payloads when they copy one in.

Allocations carry a priority class.  A reserve (``RESERVE_FRAC`` of
capacity) is off limits to ``SEND_APP`` allocations so that ``RECEIVE``
allocations, inbound frames and reassembly, can always make progress while
applications are back-pressured; nothing ever blocks waiting for memory.
"""

from __future__ import annotations

import enum
import threading
from bisect import bisect_right
from dataclasses import dataclass

from .metrics import lock_methods

ALIGN = 4
SNIP_OVERHEAD = 16  # declared per-snip metadata cost, counted in `used`
MIN_CAPACITY, MAX_CAPACITY = 256, 65536  # a node's buffer, in bytes
MAX_CHAIN = 1 << 16  # chains are finite by invariant; longer means a cycle
RESERVE_FRAC = 0.25  # share of capacity that SEND_APP allocations may not use
# _block_cost in one mask, since SNIP_OVERHEAD is a multiple of ALIGN
_COST_PAD, _COST_MASK = SNIP_OVERHEAD + ALIGN - 1, -ALIGN


class ProtocolType(enum.IntEnum):
    UNDEF = 0
    SIXLOWPAN = 2
    IPV6 = 3
    UDP = 4
    APP = 5


class AllocPriority(enum.IntEnum):
    """Allocation classes.  Only ``SEND_APP`` is kept out of the reserve."""

    SEND_APP = 0
    RECEIVE = 1


# Reading a member off an enum class costs about three function calls on
# CPython 3.11: the per-frame paths of every layer read module aliases.
_SEND_APP, _RECEIVE = AllocPriority.SEND_APP, AllocPriority.RECEIVE
_PRIORITIES = tuple(AllocPriority)
_SIXLOWPAN, _IPV6, _UDP, _APP = (ProtocolType.SIXLOWPAN, ProtocolType.IPV6,
                                 ProtocolType.UDP, ProtocolType.APP)


class Backend(enum.Enum):
    STATIC_ARENA = "static_arena"
    DYNAMIC = "dynamic"


class CapacityTooSmall(Exception):
    pass


class NoBufferSpace(Exception):
    """Allocation denied; the caller must back-pressure, never block."""


class InvalidSize(Exception):
    pass


class ReleaseUnheld(Exception):
    """users was already 0 -- a programming error, surfaced loudly."""


def _block_cost(size: int) -> int:
    return SNIP_OVERHEAD + ((size + ALIGN - 1) & ~(ALIGN - 1))


def _checked_chain(snip: Snip, op: str) -> list:
    """The snips of a chain, each checked to be held before the caller
    changes any of them."""
    chain = []
    while snip is not None:
        if snip.users == 0:
            raise ReleaseUnheld(f"{op} on freed snip")
        chain.append(snip)
        snip = snip.next
        if len(chain) > MAX_CHAIN:
            raise RuntimeError("snip chain cycle")
    return chain


class Snip:
    """One buffer-resident segment of a packet; the head snip is the packet.

    ``data`` is writable while the snip is exclusively held.  ``next`` points
    toward the payload end of the chain.  ``_cost`` is the block's
    ``_block_cost(size)``, counted in ``used`` from allocation to release.
    """

    __slots__ = ("data", "size", "proto", "users", "next", "_cost", "_offset")

    def __init__(self, data, size, proto, cost, offset=None):
        self.data = data
        self.size = size
        self.proto = proto
        self.users = 1
        self.next: Snip | None = None
        self._cost = cost
        self._offset = offset

    def __repr__(self):
        return (f"<Snip proto={self.proto.name} size={self.size} "
                f"users={self.users}>")

    @property
    def total_size(self) -> int:
        size, seen, snip = 0, 0, self
        while snip is not None:
            size += snip.size
            snip = snip.next
            seen += 1
            if seen > MAX_CHAIN:
                raise RuntimeError("snip chain cycle")
        return size

    def to_bytes(self) -> bytes:
        """Serialize the chain from this snip on.  It records nothing: the
        boundary sites that copy out (``link``, ``offload``, ``recvfrom``)
        record their own bytes (see ``metrics``)."""
        if self.next is None:
            return bytes(self.data)
        snip, parts = self, []
        while snip is not None:
            parts.append(snip.data)
            snip = snip.next
            if len(parts) > MAX_CHAIN:
                raise RuntimeError("snip chain cycle")
        return b"".join(parts)

    head = property(lambda self: self)  # perfbench's tracer reads chain.head


PacketChain = Snip  # perfbench patches to_bytes and total_size by this name


@dataclass
class BufferStats:
    capacity: int
    used: int
    peak: int
    largest_free_block: int
    failed_allocs: dict[AllocPriority, int]

    @property
    def fragmentation_ratio(self) -> float:
        free = self.capacity - self.used
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free


class PacketBuffer:
    """Shared contract of both backends.  Locked only for the par pool
    (``locked``), whose workers allocate at once: the det scheduler runs
    every handler on one thread, where a lock would cost more than most
    operations it guards."""

    _LOCKED = ("alloc_snip", "hold", "release", "stats")

    def __init__(self, capacity: int, locked: bool = True):
        self.capacity = capacity
        self.reserve = int(capacity * RESERVE_FRAC)
        self._app_cap = capacity - self.reserve  # what SEND_APP may use
        self.used = 0
        self.peak = 0
        self.failed_allocs = dict.fromkeys(_PRIORITIES, 0)
        if locked:
            lock_methods(self, threading.RLock(), self._LOCKED)

    # -- backend hooks --------------------------------------------------
    def _acquire(self, cost: int, size: int, proto) -> Snip | None:
        """The one allocation hook, under the byte cap: place a ``cost``-byte
        block and return its ``size``-byte snip, or None if none fits."""
        raise NotImplementedError

    def _release_block(self, snip: Snip):
        """Give back the ``snip._cost``-byte block ``snip`` was placed in."""
        raise NotImplementedError

    def _largest_free_block(self) -> int:
        raise NotImplementedError

    # -- public operations ----------------------------------------------
    def alloc_snip(self, payload=None, size=None, proto=ProtocolType.UNDEF,
                   prio=AllocPriority.SEND_APP) -> Snip:
        if payload is not None:
            size = len(payload)
        if size is None or size <= 0:
            raise InvalidSize(f"snip size must be > 0, got {size}")
        cost = (size + _COST_PAD) & _COST_MASK
        used = self.used + cost
        if used > (self._app_cap if prio == _SEND_APP else self.capacity):
            self.failed_allocs[prio] += 1
            raise NoBufferSpace(
                f"{size} B at {prio._name_}: used={self.used}/{self.capacity}")
        snip = self._acquire(cost, size, proto)
        if snip is None:  # arena fragmentation
            self.failed_allocs[prio] += 1
            raise NoBufferSpace(
                f"{size} B at {prio._name_}: no contiguous block")
        if payload is not None:
            try:
                snip.data[:] = payload
            except Exception:  # a str, or an array whose len is not its size
                self._release_block(snip)
                raise
        self.used = used
        if used > self.peak:
            self.peak = used
        return snip

    def hold(self, snip: Snip) -> None:
        """Add one holder to every snip in the chain, or to none when one
        of them is already freed."""
        for s in _checked_chain(snip, "hold"):
            s.users += 1

    def release(self, snip: Snip) -> None:
        """Drop one holder from every snip in the chain; at 0 the memory
        returns to the arena."""
        if snip.next is None:  # one-snip chain: no walk, no list
            users = snip.users
            if users == 0:
                raise ReleaseUnheld("release on freed snip")
            snip.users = users - 1
            if users == 1:
                self._release_block(snip)
                self.used -= snip._cost
            return
        for s in _checked_chain(snip, "release"):
            s.users -= 1
            if s.users == 0:
                self._release_block(s)
                self.used -= s._cost

    def prepend_header(self, pkt: Snip, header_size: int,
                       proto=ProtocolType.UNDEF,
                       prio=AllocPriority.SEND_APP) -> Snip:
        """Grow the chain head-ward without touching payload snips; returns
        the new head.

        On failure the original chain is left intact.  A shared head
        (users > 1) is never mutated; only the new snip's link points at it.
        """
        snip = self.alloc_snip(size=header_size, proto=proto, prio=prio)
        snip.next = pkt
        return snip

    def stats(self) -> BufferStats:
        return BufferStats(
            capacity=self.capacity,
            used=self.used,
            peak=self.peak,
            largest_free_block=self._largest_free_block(),
            failed_allocs=dict(self.failed_allocs),
        )


class ArenaBuffer(PacketBuffer):
    """First-fit allocator over a statically sized arena.

    Free blocks sit in one flat address-ordered list, ``_free`` = ``[start0,
    end0, start1, end1, ...]``, closed by a sentinel block past the arena
    that fits any request and that no release touches.  An allocation
    takes the lowest block that fits, the first before any scan; only the
    sentinel fitting means fragmentation.  A release finds both neighbours
    by one ``bisect_right`` and merges by one list operation.  Snip data
    starts ``SNIP_OVERHEAD`` bytes into its block, and stays 4-byte
    aligned: the data of the block at ``off`` is ``_view[off:]``.
    """

    _LOCKED = PacketBuffer._LOCKED + ("free_list",)

    def __init__(self, capacity, locked=True):
        if capacity < MIN_CAPACITY:
            raise CapacityTooSmall(
                f"arena needs >= {MIN_CAPACITY} B, got {capacity}")
        super().__init__(capacity, locked)
        self._view = memoryview(bytearray(capacity))[SNIP_OVERHEAD:]
        self._free = [0, capacity, capacity + 1, 2 * capacity + 2]

    def _acquire(self, cost, size, proto):
        free = self._free  # alloc_snip saw enough free bytes: [0] is real
        i, off = 0, free[0]
        if free[1] - off < cost:
            i = 2
            while free[i + 1] - free[i] < cost:  # the sentinel fits
                i += 2
            off = free[i]
            if off > self.capacity:  # only the sentinel fits
                return None
        end = off + cost
        if end == free[i + 1]:  # an exact fit takes the whole block
            del free[i:i + 2]
        else:
            free[i] = end
        return Snip(self._view[off:off + size], size, proto, cost, off)

    def _release_block(self, snip):
        off = snip._offset
        end = off + snip._cost
        free = self._free
        i = bisect_right(free, off)  # even: no free block starts at off
        if free[i - 1] == off:  # joins the previous (i == 0: the sentinel end)
            if free[i] == end:  # and the next
                del free[i - 1:i + 1]
            else:
                free[i - 1] = end
        elif free[i] == end:  # joins the next
            free[i] = off
        else:
            free[i:i] = off, end

    def _largest_free_block(self):
        return max([length for _, length in self.free_list()], default=0)

    def free_list(self):
        """Snapshot of (offset, length) free blocks, for oracle checks."""
        free = self._free
        return [(s, e - s) for s, e in zip(free[:-2:2], free[1:-2:2])]


class DynamicBuffer(PacketBuffer):
    """Heap-backed backend under the same byte cap and accounting rules."""

    def _acquire(self, cost, size, proto):
        # no placement; a view, so a payload copy refuses what the arena's does
        return Snip(memoryview(bytearray(size)), size, proto, cost)

    def _release_block(self, snip):
        pass

    def _largest_free_block(self):
        return self.capacity - self.used


def buffer_create(capacity: int, backend: Backend = Backend.STATIC_ARENA,
                  locked: bool = True) -> PacketBuffer:
    if backend == Backend.STATIC_ARENA:
        return ArenaBuffer(capacity, locked)
    return DynamicBuffer(capacity, locked)
