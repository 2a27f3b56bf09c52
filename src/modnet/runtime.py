"""Execution substrate for stack modules.

Each high-level module runs as an independently scheduled context with a
private bounded mailbox; modules interact only through messages (and the
shared packet buffer contents reachable from chains they hold).

Two schedulers implement the same surface:

* ``DetScheduler`` -- a single-threaded event loop over a simulated
  microsecond clock.  Contexts with mail wait in a FIFO of ready work; a
  heap holds only timers.  Every event takes a sequence number when it is
  queued, and events due at the same time run in sequence order, whichever
  queue holds them.  Identical inputs produce identical traces; this mode
  drives all reproducible tests.
* ``ThreadScheduler`` -- one OS thread per context plus a timer thread,
  used for race detection.  Traces are unordered.

Both record one trace entry per accepted message in a ``TraceLog``, which
keeps plain records and renders text lines only when they are read.
``DetScheduler.post`` builds its record inline and appends it without a
lock, since everything it runs is on one thread; ``ThreadScheduler``
appends under ``_trace_lock`` through ``_trace_msg``.

Mailbox policy: overflow drops data messages (MSG_SND/MSG_RCV, counted,
packet released) but never control messages -- option traffic back-pressures
the sender instead of disappearing, which keeps the control plane deadlock-
and loss-free.  Device notifications are treated as control.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass

from . import netapi
from .metrics import Metrics
from .netapi import _MSG_RCV, _MSG_SND, NetMessage


class RuntimeError_(Exception):
    pass


class DuplicateName(RuntimeError_):
    pass


@dataclass
class ModuleDesc:
    name: str
    handler: object  # callable(ctx, msg)
    mailbox_capacity: int = 8
    stack_note: int = 1024  # declared context budget in bytes, for accounting


class Mailbox:
    """Bounded FIFO for data messages plus an unbounded control lane.

    Deque append/popleft are atomic, so puts and gets need no lock; the
    event only wakes a blocked ``get`` (worker threads also poll with a
    short timeout, which covers the small wakeup race).
    """

    def __init__(self, capacity: int):
        assert capacity >= 1
        self.capacity = capacity
        self._data: deque = deque()
        self._ctrl: deque = deque()
        self._event = threading.Event()
        self._waiting = False

    def _wake(self):
        if self._waiting:
            self._event.set()

    def put_data(self, msg) -> bool:
        if len(self._data) >= self.capacity:
            return False
        self._data.append(msg)
        self._wake()
        return True

    def put_ctrl(self, msg):
        self._ctrl.append(msg)
        self._wake()

    def get_nowait(self):
        try:
            return self._ctrl.popleft()
        except IndexError:
            pass
        try:
            return self._data.popleft()
        except IndexError:
            return None

    def get(self, timeout: float | None = None):
        msg = self.get_nowait()
        if msg is not None:
            return msg
        self._waiting = True
        self._event.wait(timeout)
        self._event.clear()
        self._waiting = False
        return self.get_nowait()

    def drain(self) -> list:
        items = []
        while True:
            msg = self.get_nowait()
            if msg is None:
                return items
            items.append(msg)

    def __len__(self):
        return len(self._ctrl) + len(self._data)


class ModuleContext:
    """A spawned module: handler + mailbox + scheduling state."""

    def __init__(self, node, desc: ModuleDesc):
        self.node = node
        self.desc = desc
        self.name = desc.name
        self.handler = desc.handler
        self.mailbox = Mailbox(desc.mailbox_capacity)
        self.closed = False
        self._scheduled = False
        self._busy = False
        self._thread: threading.Thread | None = None

    def __repr__(self):
        return f"<ModuleContext {self.node.name}/{self.name}>"


def _release_pkt(msg):
    if isinstance(msg, NetMessage) and msg.pkt is not None:
        head = msg.pkt.head
        head._buf.release(head)


class Node:
    """One simulated device: registry, packet buffer, module contexts."""

    def __init__(self, name, sched, buffer, metrics=None, registry_capacity=32):
        self.name = name
        self.sched = sched
        self.pktbuf = buffer
        self.metrics = metrics if metrics is not None else sched.metrics
        self.registry = netapi.Registry(registry_capacity)
        self.modules: dict[str, ModuleContext] = {}
        self.aux: dict[str, ModuleContext] = {}  # non-protocol contexts
        self.devices: list = []
        self.wiring: dict[str, ModuleContext] = {}  # downward targets
        self.config: dict = {}

    def spawn_module(self, desc: ModuleDesc, aux: bool = False) -> ModuleContext:
        if desc.name in self.modules or desc.name in self.aux:
            raise DuplicateName(f"{self.name}/{desc.name}")
        ctx = ModuleContext(self, desc)
        (self.aux if aux else self.modules)[desc.name] = ctx
        self.sched.attach(ctx)
        if hasattr(desc.handler, "on_spawn"):
            desc.handler.on_spawn(ctx)
        return ctx

    def shutdown_module(self, ctx: ModuleContext):
        if ctx.closed:
            return  # idempotent
        ctx.closed = True
        self.registry.unregister_target(ctx)
        for msg in ctx.mailbox.drain():
            _release_pkt(msg)
        self.modules.pop(ctx.name, None)
        self.aux.pop(ctx.name, None)
        self.sched.detach(ctx)

    def rewire(self, edits):
        """Apply registry edits atomically; ('wire', key, ctx) edits retarget
        downward sends."""
        registry_edits = [e for e in edits if e[0] in ("register", "unregister")]
        self.registry.apply(registry_edits)
        for edit in edits:
            if edit[0] == "wire":
                _, key, ctx = edit
                self.wiring[key] = ctx

    def all_contexts(self):
        yield from self.modules.values()
        yield from self.aux.values()


_TRACE_LINE = "t=%s node=%s %s->%s kind=%s proto=%s size=%s"
_TRACE_WIDTH = 7  # fields per record


class TraceLog:
    """One record per accepted message: ``(t, node, src, dst, kind, proto,
    size)``, where kind and proto are the names the enum members carry.

    Reads render the records to text lines; indexing, slicing and iteration
    give the same strings the lines always had.  ``size`` is taken when the
    message is posted, since handlers later grow and shrink the chain.

    The fields of all records sit in one flat list of ints and strings.  A
    list of record tuples would leave one live object per message for the
    garbage collector to count, and the extra collections showed up as host
    latency outliers.
    """

    __slots__ = ("_fields", "append")

    def __init__(self):
        self._fields: list = []
        self.append = self._fields.extend  # append(record) adds one record

    def __len__(self):
        return len(self._fields) // _TRACE_WIDTH

    def _line(self, start: int) -> str:
        return _TRACE_LINE % tuple(self._fields[start:start + _TRACE_WIDTH])

    def __iter__(self):
        for start in range(0, len(self._fields), _TRACE_WIDTH):
            yield self._line(start)

    def __getitem__(self, index):
        starts = range(0, len(self._fields), _TRACE_WIDTH)[index]
        if isinstance(index, slice):
            return [self._line(start) for start in starts]
        return self._line(starts)


class _SchedulerBase:
    def __init__(self, metrics: Metrics | None = None, trace_enabled=True):
        self.metrics = metrics if metrics is not None else Metrics()
        self.trace = TraceLog()
        self.trace_enabled = trace_enabled
        self._trace_lock = threading.Lock()

    def current_ctx(self):
        raise NotImplementedError

    def _trace_msg(self, target: ModuleContext, msg):
        if not self.trace_enabled:
            return
        src = self.current_ctx()
        src_name = src.name if src is not None else "ext"
        node_name = target.node.name if target.node is not None else "-"
        if isinstance(msg, NetMessage):
            kind = msg.kind._name_  # a plain attribute; .name is a property
            pkt = msg.pkt
            if pkt is not None:
                proto = pkt.head.proto._name_
                size = pkt.total_size
            else:
                proto, size = "-", 0
        else:
            kind, proto, size = type(msg).__name__, "-", 0
        record = (self.now_us, node_name, src_name, target.name, kind, proto,
                  size)
        with self._trace_lock:
            self.trace.append(record)


class DetScheduler(_SchedulerBase):
    """Single-threaded deterministic event loop over simulated microseconds.

    A context that receives mail joins the ready FIFO; timers go on a heap.
    Both take a number from one sequence when queued.  Ready work is always
    due now, so a timer due now runs before the ready head exactly when its
    sequence number is lower: events at the same timestamp run in the order
    they were queued, and later timers wait until no ready work is left.
    One mailbox message is serviced per event, so module interleaving is
    fair and reproducible.  Supports nested stepping for the synchronous
    command helper.
    """

    def __init__(self, metrics=None, trace_enabled=True):
        super().__init__(metrics, trace_enabled)
        self.now_us = 0
        self._heap: list = []  # (t_us, seq, fn) timers
        self._ready: deque = deque()  # (seq, ctx) contexts due now
        self._seq = itertools.count()
        self._ctx_stack: list[ModuleContext] = []
        self.steps = 0
        self.handler_invocations = 0

    # -- time & events ---------------------------------------------------
    def call_at(self, t_us: int, fn):
        heapq.heappush(self._heap, (max(int(t_us), self.now_us),
                                    next(self._seq), fn))

    def call_later(self, dt_us: int, fn):
        self.call_at(self.now_us + dt_us, fn)

    def step(self) -> bool:
        ready, heap = self._ready, self._heap
        # ready work is due now: it waits only for a due timer queued first
        if ready and not (heap and heap[0][0] <= self.now_us
                          and heap[0][1] < ready[0][0]):
            self.steps += 1
            self._service(ready.popleft()[1])
            return True
        if not heap:
            return False
        t, _, fn = heapq.heappop(heap)
        if t > self.now_us:
            self.now_us = t
        self.steps += 1
        fn()
        return True

    def pending_events(self) -> int:
        return len(self._heap) + len(self._ready)

    def run_until(self, t_us: int | None = None) -> int:
        """Run events up to simulated time ``t_us``, or until none are
        left when no bound is given; returns the number run."""
        processed = 0
        ready, heap = self._ready, self._heap
        while ready or heap:
            if t_us is not None and (
                    self.now_us if ready else heap[0][0]) > t_us:
                break
            self.step()
            processed += 1
        if t_us is not None:
            self.now_us = max(self.now_us, t_us)
        return processed

    def wait_for(self, pred, timeout_us: int, box=None) -> bool:
        deadline = self.now_us + timeout_us
        ready, heap = self._ready, self._heap
        if box is not None:  # fast path for command replies
            service = self._service
            while box.msg is None:
                # step()'s ready branch, inlined for the round trip
                if ready and not (heap and heap[0][0] <= self.now_us
                                  and heap[0][1] < ready[0][0]):
                    self.steps += 1
                    service(ready.popleft()[1])
                elif not heap or heap[0][0] > deadline:
                    return False
                else:
                    self.step()
            return True
        while not pred():
            if not ready and (not heap or heap[0][0] > deadline):
                return pred()
            self.step()
        return True

    def current_ctx(self):
        return self._ctx_stack[-1] if self._ctx_stack else None

    # -- context plumbing ------------------------------------------------
    def attach(self, ctx):
        pass

    def detach(self, ctx):
        pass

    def post(self, ctx: ModuleContext, msg) -> bool:
        if ctx.closed:
            _release_pkt(msg)
            return False
        kind = getattr(msg, "kind", None)
        if kind is _MSG_SND or kind is _MSG_RCV:
            if not ctx.mailbox.put_data(msg):
                self.metrics.count("mailbox_drops")
                _release_pkt(msg)
                return False
        else:
            ctx.mailbox.put_ctrl(msg)
        if self.trace_enabled:  # _trace_msg inline: one thread, no lock
            stack, node, pkt = self._ctx_stack, ctx.node, None
            if isinstance(msg, NetMessage):
                kind, pkt = kind._name_, msg.pkt
            else:
                kind = type(msg).__name__
            self.trace.append((
                self.now_us, node.name if node is not None else "-",
                stack[-1].name if stack else "ext", ctx.name, kind,
                "-" if pkt is None else pkt.head.proto._name_,
                0 if pkt is None else pkt.total_size))
        # the mailbox is non-empty by construction here
        if not ctx._scheduled:
            ctx._scheduled = True
            self._ready.append((next(self._seq), ctx))
        return True

    def _service(self, ctx):
        ctx._scheduled = False
        if ctx.closed or ctx._busy:
            return  # rescheduled when the running handler finishes
        msg = ctx.mailbox.get_nowait()
        if msg is None:
            return
        ctx._busy = True
        self._ctx_stack.append(ctx)
        self.handler_invocations += 1
        try:
            ctx.handler(ctx, msg)
        finally:
            self._ctx_stack.pop()
            ctx._busy = False
            mailbox = ctx.mailbox
            if not ctx._scheduled and (mailbox._ctrl or mailbox._data):
                ctx._scheduled = True
                self._ready.append((next(self._seq), ctx))

    def stop(self):
        pass


class ThreadScheduler(_SchedulerBase):
    """One worker thread per context plus a timer thread.

    Quiescence is tracked by a counter of outstanding work items (queued
    messages, scheduled timer events, running handlers).
    """

    GRACE_S = 0.05

    def __init__(self, metrics=None):
        super().__init__(metrics)
        self._t0 = time.perf_counter()
        self._local = threading.local()
        self._stop = False
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._timer_heap: list = []
        self._timer_seq = itertools.count()
        self._timer_cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self.errors: list[BaseException] = []
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="modnet-timer", daemon=True)
        self._timer_thread.start()
        self.handler_invocations = 0

    @property
    def now_us(self) -> int:
        return int((time.perf_counter() - self._t0) * 1e6)

    def current_ctx(self):
        return getattr(self._local, "ctx", None)

    def _work_added(self):
        with self._pending_lock:
            self._pending += 1

    def _work_done(self):
        with self._pending_lock:
            self._pending -= 1

    # -- timers ----------------------------------------------------------
    def call_at(self, t_us: int, fn):
        self._work_added()
        with self._timer_cond:
            heapq.heappush(self._timer_heap,
                           (int(t_us), next(self._timer_seq), fn))
            self._timer_cond.notify()

    def call_later(self, dt_us: int, fn):
        self.call_at(self.now_us + dt_us, fn)

    def _timer_loop(self):
        while not self._stop:
            with self._timer_cond:
                if not self._timer_heap:
                    self._timer_cond.wait(0.02)
                    continue
                t_us, _, fn = self._timer_heap[0]
                delay = (t_us - self.now_us) / 1e6
                if delay > 0:
                    self._timer_cond.wait(min(delay, 0.02))
                    continue
                heapq.heappop(self._timer_heap)
            try:
                fn()
            except BaseException as exc:  # surfaced by run_until
                self.errors.append(exc)
            finally:
                self._work_done()

    # -- contexts --------------------------------------------------------
    def attach(self, ctx: ModuleContext):
        thread = threading.Thread(target=self._worker, args=(ctx,),
                                  name=f"modnet-{ctx.node.name}-{ctx.name}",
                                  daemon=True)
        ctx._thread = thread
        self._threads.append(thread)
        thread.start()

    def detach(self, ctx: ModuleContext):
        pass  # worker observes ctx.closed and exits

    def _worker(self, ctx: ModuleContext):
        self._local.ctx = ctx
        while not self._stop and not ctx.closed:
            msg = ctx.mailbox.get(timeout=0.02)
            if msg is None:
                continue
            self.handler_invocations += 1
            try:
                ctx.handler(ctx, msg)
            except BaseException as exc:
                self.errors.append(exc)
            finally:
                self._work_done()

    def post(self, ctx: ModuleContext, msg) -> bool:
        if ctx.closed:
            _release_pkt(msg)
            return False
        self._work_added()
        kind = getattr(msg, "kind", None)
        if kind is _MSG_SND or kind is _MSG_RCV:
            if not ctx.mailbox.put_data(msg):
                self._work_done()
                self.metrics.count("mailbox_drops")
                _release_pkt(msg)
                return False
        else:
            ctx.mailbox.put_ctrl(msg)
        self._trace_msg(ctx, msg)
        return True

    def wait_for(self, pred, timeout_us: int, box=None) -> bool:
        if box is not None:
            box.wait(timeout_us / 1e6)
            return box.done
        deadline = time.perf_counter() + timeout_us / 1e6
        while not pred():
            if time.perf_counter() > deadline:
                return pred()
            time.sleep(0.001)
        return True

    def run_until(self, t_us: int | None = None) -> int:
        """Wait until ``t_us`` on the wall clock, or, with no bound, until
        no work has been outstanding for ``GRACE_S``.  Returns 0: events
        run on the worker threads, which do not count them."""
        if t_us is not None:
            while self.now_us < t_us:
                time.sleep(0.001)
            return 0
        quiet_since = time.perf_counter()
        while time.perf_counter() - quiet_since < self.GRACE_S:
            time.sleep(0.005)
            with self._pending_lock:
                busy = self._pending
            if busy:
                quiet_since = time.perf_counter()
        return 0

    def stop(self):
        self._stop = True
        for t in self._threads:
            t.join(timeout=1.0)
        self._timer_thread.join(timeout=1.0)
