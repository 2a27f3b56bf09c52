"""Unified inter-module message protocol and the receive registry.

Every stack layer services the same small message set: data down
(``MSG_SND``), data up (``MSG_RCV``), option request/reply (``MSG_SET`` /
``MSG_GET`` answered by ``MSG_ACK``).  A module implements whatever subset
it wants and answers everything else with ``ENOTSUP`` -- the conformance
suite fuzzes exactly this rule.

Upward packet flow is composed through the registry: modules and sockets
bind (protocol, demux context) pairs to their mailboxes and ``dispatch``
fans packets out to every match, taking one buffer hold per receiver.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from .pktbuf import PacketChain


class MsgKind(enum.IntEnum):
    MSG_SND = 1
    MSG_RCV = 2
    MSG_SET = 3
    MSG_GET = 4
    MSG_ACK = 5


# Reading a member off an enum class costs about three function calls on
# CPython 3.11, so the per-message paths read these aliases instead.
_MSG_RCV, _MSG_ACK = MsgKind.MSG_RCV, MsgKind.MSG_ACK
_CMD_KINDS = (MsgKind.MSG_SET, MsgKind.MSG_GET)


class OptionKey(enum.IntEnum):
    ADDRESS = 1
    ADDRESS_LONG = 2
    MTU = 3
    HOP_LIMIT = 4
    CHANNEL = 5
    LOSS_RATE = 6
    PROTO_ENABLE = 7


OK = 0
ENOTSUP = -95  # POSIX "operation not supported", negated result-code style
EINVAL = -22

DEMUX_ALL = 0xFFFFFFFF
DEMUX_RAW = 0  # adaptation-layer ingress to the network layer


class NetapiError(Exception):
    pass


class RegistryFull(NetapiError):
    pass


class CmdTimeout(NetapiError):
    """MSG_SET/MSG_GET went unanswered -- a non-conforming module."""


class NetMessage:
    """One inter-module message.  Hand-rolled rather than a dataclass:
    construction sits on the measured IPC round-trip."""

    __slots__ = ("kind", "pkt", "option", "reply_to", "status", "value",
                 "meta")

    def __init__(self, kind: MsgKind, pkt: PacketChain | None = None,
                 option: tuple[int, bytes] | None = None,
                 reply_to: "ReplyBox | None" = None, status: int = 0,
                 value: bytes | None = None, meta: dict | None = None):
        self.kind = kind
        self.pkt = pkt
        self.option = option  # (OptionKey or raw int, value)
        self.reply_to = reply_to
        self.status = status
        self.value = value  # MSG_ACK payload for MSG_GET
        self.meta = {} if meta is None else meta

    def __repr__(self):
        return (f"NetMessage(kind={self.kind!r}, status={self.status}, "
                f"option={self.option!r})")

    def ack(self, status: int, value: bytes | None = None):
        """Answer a MSG_SET/MSG_GET.  Safe to call when nobody listens."""
        if self.reply_to is not None:
            # built by hand: this sits on the measured command round-trip
            reply = NetMessage.__new__(NetMessage)
            reply.kind = _MSG_ACK
            reply.pkt = None
            reply.option = None
            reply.reply_to = None
            reply.status = status
            reply.value = value
            reply.meta = {}
            self.reply_to.complete(reply)


class ReplyBox:
    """One-shot rendezvous for a command reply; works for both the
    deterministic scheduler (polled) and real threads (event wait).

    The event is created lazily so the common polled path pays nothing
    for it.
    """

    __slots__ = ("msg", "_event")

    def __init__(self):
        self.msg: NetMessage | None = None
        self._event: threading.Event | None = None

    @property
    def done(self) -> bool:
        return self.msg is not None

    def complete(self, msg: NetMessage):
        if self.msg is None:
            self.msg = msg
            event = self._event
            if event is not None:
                event.set()

    def wait(self, timeout_s: float) -> bool:
        if self.msg is not None:
            return True
        event = self._event = threading.Event()
        if self.msg is not None:
            return True
        return event.wait(timeout_s)


@dataclass(frozen=True)
class RegistryEntry:
    proto: int
    demux_ctx: int
    target: object  # module context


class Registry:
    """Fixed-capacity table binding (proto, demux) to module mailboxes.

    Multiple targets per key are allowed; exact triples are unique.
    Registration changes take effect for packets dispatched after the call
    returns; dispatch takes a consistent snapshot under the same lock.
    Lookups are cached per (proto, demux) key, and every change clears the
    cache under that lock.
    """

    CACHE_KEYS = 256  # demux values come from received packets: bound them

    def __init__(self, capacity: int = 32):
        self.capacity = capacity
        self._entries: list[RegistryEntry] = []
        self._cache: dict[tuple, tuple] = {}
        self._lock = threading.RLock()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def register(self, proto, demux_ctx, target):
        entry = RegistryEntry(proto, demux_ctx, target)
        with self._lock:
            if entry in self._entries:
                return
            if len(self._entries) >= self.capacity:
                raise RegistryFull(f"registry capacity {self.capacity} reached")
            self._entries.append(entry)
            self._cache.clear()

    def unregister(self, proto, demux_ctx, target):
        entry = RegistryEntry(proto, demux_ctx, target)
        with self._lock:
            try:
                self._entries.remove(entry)
            except ValueError:
                pass  # idempotent
            self._cache.clear()

    def unregister_target(self, target):
        with self._lock:
            self._entries = [e for e in self._entries if e.target is not target]
            self._cache.clear()

    def lookup(self, proto, demux_ctx) -> list:
        key = (proto, demux_ctx)
        with self._lock:
            targets = self._cache.get(key)
            if targets is None:
                targets = tuple(
                    e.target for e in self._entries
                    if e.proto == proto
                    and (e.demux_ctx == demux_ctx
                         or e.demux_ctx == DEMUX_ALL
                         or demux_ctx == DEMUX_ALL))
                if len(self._cache) >= self.CACHE_KEYS:
                    self._cache.clear()
                self._cache[key] = targets
            return list(targets)

    def apply(self, edits):
        """Apply a batch of (un)register edits atomically w.r.t. dispatch."""
        with self._lock:
            for edit in edits:
                op, proto, demux_ctx, target = edit
                if op == "register":
                    self.register(proto, demux_ctx, target)
                elif op == "unregister":
                    self.unregister(proto, demux_ctx, target)
                else:
                    raise ValueError(f"unknown registry edit {op!r}")


def dispatch(node, proto, demux_ctx, pkt: PacketChain, meta=None) -> int:
    """Fan a packet out to every registered receiver.

    Each delivery holds the chain once; with zero matches the caller keeps
    sole ownership and must release the packet itself.
    """
    targets = node.registry.lookup(proto, demux_ctx)
    for target in targets:
        node.pktbuf.hold(pkt.head)
        node.sched.post(target, NetMessage(
            kind=_MSG_RCV, pkt=pkt,
            meta=dict(meta) if meta else {}))
    return len(targets)


def send_cmd(sched, target, msg: NetMessage, timeout_us: int = 1_000_000):
    """Deliver a MSG_SET/MSG_GET and wait for the matching MSG_ACK.

    Returns the ack message (status plus optional value).  Must not be
    called from a module's own handler targeting itself.
    """
    if msg.kind not in _CMD_KINDS:
        raise ValueError("send_cmd is for MSG_SET/MSG_GET only")
    current = sched.current_ctx()
    if current is target:
        raise AssertionError(
            f"send_cmd from {getattr(target, 'name', target)} to itself "
            "would self-deadlock")
    box = ReplyBox()
    msg.reply_to = box
    sched.post(target, msg)
    if not sched.wait_for(None, timeout_us, box):
        raise CmdTimeout(
            f"no MSG_ACK from {getattr(target, 'name', target)} within "
            f"{timeout_us} us")
    return box.msg
