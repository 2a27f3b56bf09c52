"""Instrumentation: payload-copy ledger, drop counters, memory accounting
and the message-pass vs function-call overhead benchmark.

The copy ledger is the measurable form of the copy-twice discipline.  The
four boundary sites below record payload entering or leaving the buffer.
Copies inside it are tagged ``BUF_INTERNAL``: fragments, reassembly, and
each receiving layer's re-copy of what the next layer takes
(``netapi.recopy``).  They are reported separately and do not count
against the two-copies-per-direction budget.  The ledger does not see
every byte that moves: the ``to_bytes`` flattenings in ``udp``, ``ipv6``
and ``sixlowpan`` (to checksum, fragment and decode) record nothing
(ROADMAP item 1).
"""

from __future__ import annotations

import enum
import statistics
import threading
import time
from collections import Counter, defaultdict


class CopySite(enum.Enum):
    APP_TO_BUF = "app_to_buf"
    BUF_TO_DEV = "buf_to_dev"
    DEV_TO_BUF = "dev_to_buf"
    BUF_TO_APP = "buf_to_app"
    BUF_INTERNAL = "buf_internal"

BOUNDARY_SITES = (CopySite.APP_TO_BUF, CopySite.BUF_TO_DEV,
                  CopySite.DEV_TO_BUF, CopySite.BUF_TO_APP)


def lock_methods(obj, lock, names):
    """Shadow each named method of ``obj`` with one that runs the class's
    method, looked up per call, under ``lock``.  An object left alone calls
    its class's methods directly and never enters a ``with`` block."""
    cls = type(obj)

    def locked(name):
        def call(*args, **kwargs):
            with lock:
                return getattr(cls, name)(obj, *args, **kwargs)
        return call

    for name in names:
        setattr(obj, name, locked(name))


class Metrics:
    """Per-simulation counters, handed to every node so the ledger spans
    the whole topology.  Locked only for the par pool (``locked``): the det
    scheduler runs every handler on one thread, where a lock would cost
    more than the counter update it guards.

    Counters and packet ids are always kept.  The per-packet copy ledger is
    always a dict, empty unless something records into it; ``record=True``
    sets ``recording``, and the stack calls ``record_copy`` and
    ``merge_packet`` only while it is set, so an unrecorded run leaves the
    ledger empty."""

    _LOCKED = ("new_packet_id", "record_copy", "merge_packet", "copy_report",
               "copy_bytes", "packet_ids", "count", "get", "as_dict")

    def __init__(self, locked: bool = True, record: bool = False):
        self.recording = record
        self._copies = defaultdict(list)  # packet id -> [(site, nbytes)]
        self._next_packet_id = 1
        self.counters: dict[str, int] = {}  # a Counter's += costs twice
        if locked:
            lock_methods(self, threading.Lock(), self._LOCKED)

    # -- packet ids ------------------------------------------------------
    def new_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id = pid + 1
        return pid

    # -- copy ledger -----------------------------------------------------
    def record_copy(self, site: CopySite, packet_id: int, nbytes: int):
        self._copies[packet_id].append((site, nbytes))

    def merge_packet(self, into_id: int, from_id: int):
        """Fold one packet's records into another: a reassembly entry
        draws a fresh id, and each fragment's records fold into it."""
        if into_id != from_id:
            self._copies[into_id].extend(self._copies.pop(from_id, ()))

    def copy_report(self, packet_id: int) -> dict[CopySite, int]:
        report: Counter[CopySite] = Counter()
        for site, _ in self._copies.get(packet_id, ()):
            report[site] += 1
        return dict(report)

    def copy_bytes(self, packet_id: int) -> dict[CopySite, int]:
        out: Counter[CopySite] = Counter()
        for site, n in self._copies.get(packet_id, ()):
            out[site] += n
        return dict(out)

    def packet_ids(self):
        return list(self._copies)

    # -- generic counters ------------------------------------------------
    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "packets": {
                str(pid): {site.value: n
                           for site, n in Counter(s for s, _ in recs).items()}
                for pid, recs in self._copies.items()
            },
        }


REGISTRY_ENTRY_BYTES = 12  # proto(1) + demux(4) + target ref(4) + pad
REASSEMBLY_ENTRY_OVERHEAD = 32  # key + bitmap + deadline bookkeeping


def memory_report(node) -> dict:
    """RAM-budget analog for one node: central buffer plus declared module
    context budgets plus measured table overheads."""
    from .runtime import STACK_NOTE
    from .sixlowpan import ReassemblyTable

    stats = node.pktbuf.stats()
    stack_notes = STACK_NOTE * len(node.modules)
    registry_bytes = len(node.registry) * REGISTRY_ENTRY_BYTES
    reassembly_bytes = 0
    for ctx in node.modules.values():
        table = getattr(ctx.module, "reassembly_table", None)
        if table is not None:
            reassembly_bytes += table.memory_bytes()
    return {
        "buffer_capacity": stats.capacity,
        "buffer_used": stats.used,
        "buffer_peak": stats.peak,
        "stack_note_total": stack_notes,
        "module_count": len(node.modules),
        "registry_bytes": registry_bytes,
        "reassembly_bytes": reassembly_bytes,
        "total_budget": stats.capacity + stack_notes + registry_bytes
        + REASSEMBLY_ENTRY_OVERHEAD * ReassemblyTable.max_entries,
    }


def ipc_overhead_bench(iterations: int = 10_000) -> dict:
    """Compare a no-op procedure call against a mailbox round-trip between
    two module contexts on the deterministic scheduler.

    The architecture's claim is about relative cost, so only the ratio is
    asserted downstream; absolute nanoseconds are host-dependent.
    """
    from .runtime import DetScheduler, Node
    from .netapi import MsgKind, NetMessage, send_cmd

    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    def noop():
        return None

    sched = DetScheduler()
    node = Node("bench", sched, buffer=None)

    def ponger(ctx, msg):
        if msg.kind == MsgKind.MSG_GET:
            msg.ack(0)

    ctx = node.spawn_module("pong", ponger)
    # batched to keep timer overhead out of the medians; each call batch
    # runs right beside its message batch, so a change in host speed
    # during the run moves both sides of the ratio alike
    batch = 100
    call_samples, msg_samples = [], []
    for _ in range(max(1, iterations // batch)):
        t0 = time.perf_counter_ns()
        for _ in range(batch):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(batch):
            send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET, option=(0, b"")))
        call_samples.append((t1 - t0) / batch)
        msg_samples.append((time.perf_counter_ns() - t1) / batch)

    call_ns = statistics.median(call_samples)
    msg_ns = statistics.median(msg_samples)
    return {
        "call_ns_median": call_ns,
        "msg_rt_ns_median": msg_ns,
        "ratio": msg_ns / call_ns,
        "iterations": iterations,
    }
