"""Instrumentation: payload-copy ledger, drop counters, memory accounting
and the message-pass vs function-call overhead benchmark.

The copy ledger is the measurable form of the copy-twice discipline: every
payload byte movement in the stack passes one of the tagged sites below.
Header construction and fragmentation slicing happen inside the central
buffer and are tagged ``BUF_INTERNAL``; they are reported separately and do
not count against the two-copies-per-direction budget.
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
# aliases for the per-frame paths (see ``pktbuf``)
_APP_TO_BUF, _BUF_TO_DEV, _DEV_TO_BUF, _BUF_TO_APP = BOUNDARY_SITES
_BUF_INTERNAL = CopySite.BUF_INTERNAL


class Metrics:
    """Per-simulation counters.  Internally synchronized; handed to every
    node so the ledger spans the whole topology."""

    def __init__(self):
        self._lock = threading.Lock()
        self._copies: dict[int, list[tuple[CopySite, int]]] = defaultdict(list)
        self._next_packet_id = 1
        self.counters: Counter[str] = Counter()

    # -- packet ids ------------------------------------------------------
    def new_packet_id(self) -> int:
        with self._lock:
            pid = self._next_packet_id
            self._next_packet_id += 1
            return pid

    # -- copy ledger -----------------------------------------------------
    def record_copy(self, site: CopySite, packet_id: int, nbytes: int):
        with self._lock:
            self._copies[packet_id].append((site, nbytes))

    def merge_packet(self, into_id: int, from_id: int):
        """Fold one packet's records into another (reassembly adopts the
        first fragment's id)."""
        if into_id == from_id:
            return
        with self._lock:
            self._copies[into_id].extend(self._copies.pop(from_id, ()))

    def copy_report(self, packet_id: int) -> dict[CopySite, int]:
        with self._lock:
            report: Counter[CopySite] = Counter()
            for site, _ in self._copies.get(packet_id, ()):
                report[site] += 1
            return dict(report)

    def copy_bytes(self, packet_id: int) -> dict[CopySite, int]:
        with self._lock:
            out: Counter[CopySite] = Counter()
            for site, n in self._copies.get(packet_id, ()):
                out[site] += n
            return dict(out)

    def packet_ids(self):
        with self._lock:
            return list(self._copies)

    # -- generic counters ------------------------------------------------
    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counters[name] += n

    def get(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def as_dict(self) -> dict:
        with self._lock:
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
    stats = node.pktbuf.stats()
    stack_notes = sum(ctx.desc.stack_note for ctx in node.modules.values())
    registry_bytes = len(node.registry) * REGISTRY_ENTRY_BYTES
    reassembly_bytes = 0
    for ctx in node.modules.values():
        table = getattr(ctx.handler, "reassembly_table", None)
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
        + REASSEMBLY_ENTRY_OVERHEAD * 2,
    }


def ipc_overhead_bench(iterations: int = 10_000) -> dict:
    """Compare a no-op procedure call against a mailbox round-trip between
    two module contexts on the deterministic scheduler.

    The architecture's claim is about relative cost, so only the ratio is
    asserted downstream; absolute nanoseconds are host-dependent.
    """
    from .runtime import DetScheduler, ModuleDesc, Node
    from .netapi import MsgKind, NetMessage

    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    def noop():
        return None

    # direct calls, batched to keep timer overhead out of the medians
    batch = 100
    call_samples = []
    for _ in range(max(1, iterations // batch)):
        t0 = time.perf_counter_ns()
        for _ in range(batch):
            noop()
        call_samples.append((time.perf_counter_ns() - t0) / batch)

    sched = DetScheduler(metrics=Metrics(), trace_enabled=False)
    node = Node("bench", sched, buffer=None, metrics=sched.metrics)

    def ponger(ctx, msg):
        if msg.kind == MsgKind.MSG_GET:
            msg.ack(0)

    ctx = node.spawn_module(ModuleDesc("pong", ponger))
    msg_samples = []
    from .netapi import send_cmd
    for _ in range(max(1, iterations // batch)):
        t0 = time.perf_counter_ns()
        for _ in range(batch):
            send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET, option=(0, b"")))
        msg_samples.append((time.perf_counter_ns() - t0) / batch)

    call_ns = statistics.median(call_samples)
    msg_ns = statistics.median(msg_samples)
    return {
        "call_ns_median": call_ns,
        "msg_rt_ns_median": msg_ns,
        "ratio": msg_ns / call_ns,
        "iterations": iterations,
    }
