"""Central packet buffer.

All header and payload memory for packets moving through a node's stack is
provisioned here.  Packets are represented as chains of "snips": one
buffer-resident segment per protocol layer (link header, IPv6 header, UDP
header, payload ...), linked outermost-first.  Because headers are prepended
as fresh snips, payload bytes written once by the application stay in place
until the device driver serializes the frame -- the buffer is what makes the
copy-twice data path possible.

Two interchangeable backends satisfy the same contract: a statically sized
arena with a first-fit free list (the constrained-device model) and a
dynamic backend that allocates from the host heap under the same byte cap.

Every snip's ``data`` is exactly ``size`` bytes long (a memoryview of its
arena block, or its own bytearray), so ``to_bytes`` joins the views as they
are.

Allocations carry a priority class.  A reserve (``RESERVE_FRAC`` of
capacity by default) is off limits to ``SEND_APP`` allocations so that
inbound frames and control traffic can always make progress while
applications are back-pressured; nothing ever blocks waiting for memory.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from .metrics import lock_methods

ALIGN = 4
SNIP_OVERHEAD = 16  # declared per-snip metadata cost, counted in `used`
MIN_ARENA_CAPACITY = 256
MAX_CHAIN = 1 << 16  # chains are finite by invariant; longer means a cycle
RESERVE_FRAC = 0.25  # share of capacity that SEND_APP allocations may not use


class ProtocolType(enum.IntEnum):
    UNDEF = 0
    LINK = 1
    SIXLOWPAN = 2
    IPV6 = 3
    UDP = 4
    APP = 5


class AllocPriority(enum.IntEnum):
    """Allocation classes, ordered: CONTROL > RECEIVE > SEND_APP."""

    SEND_APP = 0
    RECEIVE = 1
    CONTROL = 2


# Reading a member off an enum class costs about three function calls on
# CPython 3.11: the per-frame paths of every layer read module aliases.
_SEND_APP, _RECEIVE, _CONTROL = (AllocPriority.SEND_APP,
                                 AllocPriority.RECEIVE, AllocPriority.CONTROL)
_SIXLOWPAN, _IPV6, _UDP, _APP = (ProtocolType.SIXLOWPAN, ProtocolType.IPV6,
                                 ProtocolType.UDP, ProtocolType.APP)


class Backend(enum.Enum):
    STATIC_ARENA = "static_arena"
    DYNAMIC = "dynamic"


class BufferError_(Exception):
    """Base class for packet buffer errors."""


class CapacityTooSmall(BufferError_):
    pass


class NoBufferSpace(BufferError_):
    """Allocation denied; the caller must back-pressure, never block."""


class InvalidSize(BufferError_):
    pass


class ReleaseUnheld(BufferError_):
    """users was already 0 -- a programming error, surfaced loudly."""


def _aligned(size: int) -> int:
    return (size + ALIGN - 1) & ~(ALIGN - 1)


def _block_cost(size: int) -> int:
    return SNIP_OVERHEAD + _aligned(size)


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
    """One buffer-resident segment of a packet.

    ``data`` is writable while the snip is exclusively held.  ``next`` points
    toward the payload end of the chain.
    """

    __slots__ = ("data", "size", "proto", "users", "next", "_buf", "_offset")

    def __init__(self, data, size, proto, buf, offset=None):
        self.data = data
        self.size = size
        self.proto = proto
        self.users = 1
        self.next: Snip | None = None
        self._buf = buf
        self._offset = offset

    def __iter__(self):
        snip = self
        seen = 0
        while snip is not None:
            yield snip
            snip = snip.next
            seen += 1
            if seen > MAX_CHAIN:
                raise RuntimeError("snip chain cycle")

    def __repr__(self):
        return (f"<Snip proto={self.proto.name} size={self.size} "
                f"users={self.users}>")


@dataclass
class PacketChain:
    """A packet: chain of snips, outermost header first."""

    head: Snip

    @property
    def total_size(self) -> int:
        size = seen = 0
        snip = self.head
        while snip is not None:
            size += snip.size
            snip = snip.next
            seen += 1
            if seen > MAX_CHAIN:
                raise RuntimeError("snip chain cycle")
        return size

    def to_bytes(self) -> bytes:
        """Serialize the chain contents.  Not a counted payload copy by
        itself; call sites tag the movement via metrics."""
        head = self.head
        if head.next is None:
            return bytes(head.data)
        return b"".join([s.data for s in head])

    def __len__(self):
        return self.total_size


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

    def __init__(self, capacity: int, reserve_frac: float = RESERVE_FRAC,
                 locked: bool = True):
        self.capacity = capacity
        self.reserve = int(capacity * reserve_frac)
        self.used = 0
        self.peak = 0
        self.failed_allocs = {p: 0 for p in AllocPriority}
        if locked:
            lock_methods(self, threading.RLock(), self._LOCKED)

    # -- backend hooks --------------------------------------------------
    def _acquire(self, cost: int):
        """Return backend-specific placement or None if no room."""
        raise NotImplementedError

    def _release_block(self, snip: Snip, cost: int):
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
        cost = SNIP_OVERHEAD + ((size + ALIGN - 1) & ~(ALIGN - 1))
        cap = self.capacity
        if prio == _SEND_APP:
            cap -= self.reserve
        used = self.used + cost
        if used > cap:
            self.failed_allocs[prio] += 1
            raise NoBufferSpace(
                f"{size} B at {prio.name}: used={self.used}/{self.capacity}")
        placement = self._acquire(cost)
        if placement is None:  # arena fragmentation
            self.failed_allocs[prio] += 1
            raise NoBufferSpace(
                f"{size} B at {prio.name}: no contiguous block")
        self.used = used
        if used > self.peak:
            self.peak = used
        snip = self._make_snip(placement, size, proto)
        if payload is not None:
            snip.data[:size] = payload
        return snip

    def _make_snip(self, placement, size, proto) -> Snip:
        raise NotImplementedError

    def hold(self, snip: Snip) -> None:
        """Add one holder to every snip in the chain, or to none when one
        of them is already freed."""
        if snip.next is None:  # one-snip chain: no walk, no list
            if snip.users == 0:
                raise ReleaseUnheld("hold on freed snip")
            snip.users += 1
            return
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
                cost = SNIP_OVERHEAD + ((snip.size + ALIGN - 1)
                                        & ~(ALIGN - 1))
                self._release_block(snip, cost)
                self.used -= cost
            return
        for s in _checked_chain(snip, "release"):
            s.users -= 1
            if s.users == 0:
                cost = _block_cost(s.size)
                self._release_block(s, cost)
                self.used -= cost

    def prepend_header(self, pkt: PacketChain, header_size: int,
                       proto=ProtocolType.UNDEF,
                       prio=AllocPriority.SEND_APP) -> PacketChain:
        """Grow the chain head-ward without touching payload snips.

        On failure the original chain is left intact.  A shared head
        (users > 1) is never mutated; only the new snip's link points at it.
        """
        if header_size <= 0:
            raise InvalidSize("header size must be > 0")
        snip = self.alloc_snip(size=header_size, proto=proto, prio=prio)
        snip.next = pkt.head
        return PacketChain(snip)

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

    Free blocks coalesce immediately on release; snip data starts
    ``SNIP_OVERHEAD`` bytes into its block and stays 4-byte aligned.
    """

    _LOCKED = PacketBuffer._LOCKED + ("free_list",)

    def __init__(self, capacity, reserve_frac=RESERVE_FRAC, locked=True):
        if capacity < MIN_ARENA_CAPACITY:
            raise CapacityTooSmall(
                f"arena needs >= {MIN_ARENA_CAPACITY} B, got {capacity}")
        super().__init__(capacity, reserve_frac, locked)
        self._arena = bytearray(capacity)
        self._view = memoryview(self._arena)  # sliced per snip
        self._free: list[list[int]] = [[0, capacity]]  # [offset, length]

    def _acquire(self, cost):
        for i, (off, length) in enumerate(self._free):
            if length >= cost:
                if length == cost:
                    del self._free[i]
                else:
                    self._free[i] = [off + cost, length - cost]
                return off
        return None

    def _release_block(self, snip, cost):
        off = snip._offset
        self._insert_free(off, cost)

    def _insert_free(self, off, length):
        free = self._free
        lo = 0
        while lo < len(free) and free[lo][0] < off:
            lo += 1
        free.insert(lo, [off, length])
        # coalesce with successor then predecessor
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            free[lo][1] += free[lo + 1][1]
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            free[lo - 1][1] += free[lo][1]
            del free[lo]

    def _largest_free_block(self):
        return max((length for _, length in self._free), default=0)

    def _make_snip(self, placement, size, proto):
        start = placement + SNIP_OVERHEAD
        return Snip(self._view[start:start + size], size, proto, self,
                    placement)

    def free_list(self):
        """Snapshot of (offset, length) free blocks, for oracle checks."""
        return [tuple(b) for b in self._free]


class DynamicBuffer(PacketBuffer):
    """Heap-backed backend under the same byte cap and accounting rules."""

    def _acquire(self, cost):
        return cost  # accounting alone; no placement

    def _release_block(self, snip, cost):
        pass

    def _largest_free_block(self):
        return self.capacity - self.used

    def _make_snip(self, placement, size, proto):
        return Snip(bytearray(size), size, proto, self)


def buffer_create(capacity: int, backend: Backend = Backend.STATIC_ARENA,
                  reserve_frac: float = RESERVE_FRAC,
                  locked: bool = True) -> PacketBuffer:
    if backend == Backend.STATIC_ARENA:
        return ArenaBuffer(capacity, reserve_frac, locked)
    return DynamicBuffer(capacity, reserve_frac, locked)
