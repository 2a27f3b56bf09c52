"""Unified inter-module message protocol, the module skeleton and the
receive registry.

Every stack layer services the same four message kinds: data down
(``MSG_SND``), data up (``MSG_RCV``) and option commands (``MSG_SET`` /
``MSG_GET``).  A data message's ``pkt`` is the packet: the head snip of
its chain, as GNRC passes a ``gnrc_pktsnip_t *``.  A command is answered
in place: the handler's ``ack`` writes ``status`` and ``value`` onto the
command itself, which the caller of ``send_cmd`` is waiting on.  A module
implements whatever subset it wants and answers everything else with
``ENOTSUP`` -- the conformance suite fuzzes exactly this rule.

``Module`` is that rule as a base class.  Its ``__call__`` routes
``MSG_SND`` to ``on_snd``, ``MSG_RCV`` to ``on_rcv`` and every other kind
to ``on_option``.  The data defaults count unexpected data as
``<layer>_unexpected_snd`` or ``_rcv`` and release it.  ``on_option`` is
every layer's one reader of a command: it unpacks the option as one
``(key, value)`` tuple and acks ``OK`` with what ``get_option(key)`` or
``set_option(key, value)`` returns.  A malformed command, ``Unsupported``,
or a ``ValueError``, ``TypeError`` or ``OverflowError`` from a value that
does not parse is answered ``ENOTSUP``.  Both hooks raise ``Unsupported``
by default, so a layer names only the options it serves.  ``drop``,
``recopy`` and ``dispatch`` hold the code layers share; each, like ``post``,
takes the caller's reference to its packet.  Any plain
``handler(ctx, msg)`` callable still works as a module.

Upward packet flow is composed through the registry: modules and sockets
bind (protocol, demux context) pairs to their mailboxes and ``dispatch``
fans packets out to every match.  As in GNRC, n matches cost n - 1
holds: the caller's own reference goes to a receiver, or is released as
a counted miss.  A packet dispatched under (proto, demux) matches the
targets registered under that exact key, then those registered under
(proto, ``DEMUX_ALL``), each in registration order; dispatching under
``DEMUX_ALL`` itself matches the wildcard targets once.
Downward, a layer posts to the context below it, which ``simnet`` hands
it when it builds the node.

A data message's ``meta`` carries exactly the keys its receiver reads, and
no receiver writes it:

    sock -> udp, offload     src_port dst_port dst_ip packet_id
    udp -> ipv6              dst_ip packet_id
    ipv6 -> 6lo              next_hop_link iface packet_id prio
    6lo -> link              dst_link packet_id (one dict per datagram)
    link -> 6lo              src_link dst_link packet_id
    6lo -> ipv6              packet_id
    ipv6 -> udp              src_ip dst_ip packet_id hop_limit
    udp -> sock              src_ip src_port dst_port packet_id hop_limit
    offload -> sock          src_ip src_port dst_port packet_id
    offload -> peer offload  raw src_ip src_port dst_port (and no chain)
"""

from __future__ import annotations

import enum
import threading

from .metrics import CopySite, lock_methods
from .pktbuf import _RECEIVE, NoBufferSpace, Snip


class MsgKind(enum.IntEnum):
    MSG_SND = 1
    MSG_RCV = 2
    MSG_SET = 3
    MSG_GET = 4


# Reading a member off an enum class costs about three function calls on
# CPython 3.11, so the per-message paths read these aliases instead.
_MSG_SND, _MSG_RCV = MsgKind.MSG_SND, MsgKind.MSG_RCV
_MSG_SET, _MSG_GET = MsgKind.MSG_SET, MsgKind.MSG_GET


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

DEMUX_ALL = 0xFFFFFFFF
DEMUX_RAW = 0  # adaptation-layer ingress to the network layer


class RegistryFull(Exception):
    pass


class Unsupported(Exception):
    """An option key or value the receiver does not serve."""


class CmdTimeout(Exception):
    """MSG_SET/MSG_GET went unanswered -- a non-conforming module."""


class NetMessage:
    """One inter-module message.  Hand-rolled rather than a dataclass:
    construction sits on the measured IPC round-trip.  ``status`` stays
    None until a command's first ``ack``."""

    __slots__ = ("kind", "pkt", "option", "status", "value", "meta")

    def __init__(self, kind: MsgKind, pkt: Snip | None = None,
                 option: tuple[int, bytes] | None = None,
                 meta: dict | None = None):
        self.kind = kind
        self.pkt = pkt
        self.option = option  # (OptionKey or raw int, value)
        self.status = None
        self.value = None  # a MSG_GET's answer
        self.meta = {} if meta is None else meta

    def __repr__(self):
        return (f"NetMessage(kind={self.kind!r}, status={self.status}, "
                f"option={self.option!r})")

    def ack(self, status: int, value=None):
        """Answer a MSG_SET/MSG_GET in place.  The first answer wins, and
        an answer nobody waits for any more is harmless."""
        if self.status is None:
            self.value = value  # before status, which a waiter watches
            self.status = status


class Registry:
    """A table of at most ``CAPACITY`` (proto, demux, target) registrations,
    indexed by (proto, demux).

    Multiple targets per key are allowed; exact triples are unique.  Only
    ``register`` adds a key, and a key whose last target leaves is deleted,
    so the table holds exactly the registered keys.  ``lookup`` returns a
    fresh list of the matches, by the rule in the module docstring.
    Changes take effect for packets dispatched after the call returns.

    Locked only for the par pool (``locked``): there a lookup sees a
    consistent snapshot.  The det scheduler's one thread cannot interleave
    two calls.  The lock is not reentrant, so no locked method calls
    another.
    """

    CAPACITY = 32
    _LOCKED = ("register", "unregister", "unregister_target", "lookup")

    def __init__(self, locked: bool = True):
        self._table: dict[tuple, list] = {}  # (proto, demux) -> targets
        self._count = 0
        if locked:
            lock_methods(self, threading.Lock(), self._LOCKED)

    def __len__(self):  # reads one int: atomic, even under par
        return self._count

    def register(self, proto, demux_ctx, target):
        key = (proto, demux_ctx)
        if target in self._table.get(key, ()):
            return
        if self._count >= self.CAPACITY:
            raise RegistryFull(f"registry capacity {self.CAPACITY} reached")
        self._table.setdefault(key, []).append(target)
        self._count += 1

    def unregister(self, proto, demux_ctx, target):
        key = (proto, demux_ctx)
        if target in self._table.get(key, ()):  # else a no-op: idempotent
            self._remove(key, target)

    def unregister_target(self, target):
        for key in [k for k, ts in self._table.items() if target in ts]:
            self._remove(key, target)

    def _remove(self, key, target):
        targets = self._table[key]
        targets.remove(target)
        if not targets:
            del self._table[key]
        self._count -= 1

    def lookup(self, proto, demux_ctx) -> list:
        get = self._table.get
        if demux_ctx == DEMUX_ALL:
            return list(get((proto, DEMUX_ALL), ()))
        return [*get((proto, demux_ctx), ()), *get((proto, DEMUX_ALL), ())]


def dispatch(node, proto, demux_ctx, pkt: Snip, meta, miss_counter) -> int:
    """Fan a packet out to every registered receiver; returns how many.

    All holds come before any post, so a refused post releases only its
    receiver's reference.  With zero matches the caller's reference is
    released, counted as ``miss_counter``.  Every receiver gets the
    caller's ``meta`` dict itself, so no receiver may write it.
    """
    targets = node.registry.lookup(proto, demux_ctx)
    if not targets:
        node.pktbuf.release(pkt)
        node.metrics.count(miss_counter)
        return 0
    for _ in range(len(targets) - 1):
        node.pktbuf.hold(pkt)
    for target in targets:
        node.sched.post(target, NetMessage(_MSG_RCV, pkt, None, meta))
    return len(targets)


def send_cmd(sched, target, msg: NetMessage, timeout_us: int = 1_000_000):
    """Deliver a MSG_SET/MSG_GET and wait for its answer.

    Returns ``msg`` itself, answered: its ``status`` and ``value``.  Must
    not be called from a module's own handler targeting itself.
    """
    if msg.kind not in (_MSG_SET, _MSG_GET):
        raise ValueError("send_cmd is for MSG_SET/MSG_GET only")
    if sched.current is target:
        raise AssertionError(
            f"send_cmd from {getattr(target, 'name', target)} to itself "
            "would self-deadlock")
    sched.post(target, msg)
    if not sched.wait_for(msg, timeout_us):
        raise CmdTimeout(
            f"no answer from {getattr(target, 'name', target)} within "
            f"{timeout_us} us")
    return msg


def drop(ctx, pkt: Snip | None, counter: str):
    """Count a dropped message and release its chain, if it carries one."""
    node = ctx.node
    node.metrics.count(counter)
    if pkt is not None:
        node.pktbuf.release(pkt)


def recopy(ctx, pkt: Snip, payload: bytes, proto, pid,
           nobuf_counter: str) -> Snip | None:
    """Release a received chain and copy ``payload``, the part the next
    layer takes, into a fresh RECEIVE snip.  Returns None, counted as
    ``nobuf_counter``, when the buffer refuses."""
    node = ctx.node
    node.pktbuf.release(pkt)  # the bytes survive in payload
    try:
        snip = node.pktbuf.alloc_snip(payload=payload, proto=proto,
                                      prio=_RECEIVE)
    except NoBufferSpace:
        node.metrics.count(nobuf_counter)
        return None
    if node.metrics.recording:
        node.metrics.record_copy(CopySite.BUF_INTERNAL, pid, len(payload))
    return snip


class Module:
    """Base of a stack layer: override the hooks the layer implements,
    and ``get_option``/``set_option`` for the options it serves."""

    layer = "module"

    def on_shutdown(self, ctx):
        """Give back what the layer holds; ``Node.shutdown_module`` calls
        it after unregistering ``ctx``."""

    def __call__(self, ctx, msg):
        kind = msg.kind
        if kind is _MSG_SND:
            self.on_snd(ctx, msg)
        elif kind is _MSG_RCV:
            self.on_rcv(ctx, msg)
        else:
            self.on_option(ctx, msg)

    def on_snd(self, ctx, msg):
        drop(ctx, msg.pkt, f"{self.layer}_unexpected_snd")

    def on_rcv(self, ctx, msg):
        drop(ctx, msg.pkt, f"{self.layer}_unexpected_rcv")

    def on_option(self, ctx, msg):
        try:
            key, value = msg.option if msg.option.__class__ is tuple else ()
            if msg.kind == _MSG_GET:
                msg.ack(OK, self.get_option(key))
            elif msg.kind == _MSG_SET:
                msg.ack(OK, self.set_option(key, value))
        except (Unsupported, ValueError, TypeError, OverflowError):
            pass
        msg.ack(ENOTSUP)  # unless answered OK above: the first answer wins

    def get_option(self, key):
        raise Unsupported(f"{self.layer} option {key!r}")

    def set_option(self, key, value):
        raise Unsupported(f"{self.layer} option {key!r}")
