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
* ``ThreadScheduler`` -- a fixed pool of ``WORKERS`` threads over the
  wall clock, used for race detection.  The workers drain one queue of
  ready contexts and one timer heap, so the thread count does not grow
  with the topology.  Traces are unordered.

Under both, at most one handler of a context runs at a time, and a handler
runs one message.  Both record one trace entry per accepted message with
``TraceLog.record``, which keeps plain fields and renders text lines only
when they are read.  ``DetScheduler.post`` records without a lock, since
everything it runs is on one thread; ``ThreadScheduler.post`` records under
the pool's condition, together with the mailbox put.

Only ``ThreadScheduler`` is ``parallel``, and only then do the structures
contexts share (``Metrics``, each node's ``Registry`` and ``PacketBuffer``)
take a lock.  Under ``DetScheduler`` they take none: its handlers run on
one thread, and a CPython lock costs more than most calls it guards.

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


MAILBOX_CAPACITY = 8  # data messages a context's mailbox holds by default


@dataclass
class ModuleDesc:
    name: str
    handler: object  # callable(ctx, msg)
    mailbox_capacity: int = MAILBOX_CAPACITY
    stack_note: int = 1024  # declared context budget in bytes, for accounting


class Mailbox:
    """Bounded FIFO for data messages plus an unbounded control lane.

    Control messages are taken first.  The mailbox does no locking or
    waking: the schedulers decide who puts and takes, and when.
    """

    def __init__(self, capacity: int):
        assert capacity >= 1
        self.capacity = capacity
        self._data: deque = deque()
        self._ctrl: deque = deque()

    def put_data(self, msg) -> bool:
        if len(self._data) >= self.capacity:
            return False
        self._data.append(msg)
        return True

    def put_ctrl(self, msg):
        self._ctrl.append(msg)

    def get_nowait(self):
        try:
            return self._ctrl.popleft()
        except IndexError:
            pass
        try:
            return self._data.popleft()
        except IndexError:
            return None

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

    def __repr__(self):
        return f"<ModuleContext {self.node.name}/{self.name}>"


def _release_pkt(msg):
    if isinstance(msg, NetMessage) and msg.pkt is not None:
        head = msg.pkt.head
        head._buf.release(head)


class Node:
    """One simulated device: registry, packet buffer, module contexts."""

    def __init__(self, name, sched, buffer):
        self.name = name
        self.sched = sched
        self.pktbuf = buffer
        self.metrics = sched.metrics
        self.registry = netapi.Registry(locked=sched.parallel)
        self.modules: dict[str, ModuleContext] = {}
        self.aux: dict[str, ModuleContext] = {}  # non-protocol contexts
        self.devices: list = []
        self.wiring: dict[str, ModuleContext] = {}  # downward targets

    def spawn_module(self, desc: ModuleDesc, aux: bool = False) -> ModuleContext:
        if desc.name in self.modules or desc.name in self.aux:
            raise DuplicateName(f"{self.name}/{desc.name}")
        ctx = ModuleContext(self, desc)
        (self.aux if aux else self.modules)[desc.name] = ctx
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

    __slots__ = ("_fields",)

    def __init__(self):
        self._fields: list = []

    def record(self, now_us: int, src, target, msg):
        """Record ``msg`` as posted at ``now_us`` from context ``src``
        (None outside any handler) to context ``target``."""
        pkt = None
        if isinstance(msg, NetMessage):
            kind, pkt = msg.kind._name_, msg.pkt  # .name is a property
        else:
            kind = type(msg).__name__
        self._fields.extend((
            now_us, target.node.name, "ext" if src is None else src.name,
            target.name, kind, "-" if pkt is None else pkt.head.proto._name_,
            0 if pkt is None else pkt.total_size))

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
    parallel = False  # True when handlers of two contexts can run at once

    def __init__(self, trace_enabled=True):
        self.metrics = Metrics(locked=self.parallel)
        self.trace = TraceLog()
        self.trace_enabled = trace_enabled

    def current_ctx(self):
        raise NotImplementedError

    def call_later(self, dt_us: int, fn):
        self.call_at(self.now_us + dt_us, fn)


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

    def __init__(self, trace_enabled=True):
        super().__init__(trace_enabled)
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
        # kept beside the predicate loop: folding it in cost check 11 ~10%
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
        if self.trace_enabled:  # one thread: no lock
            stack = self._ctx_stack
            self.trace.record(self.now_us, stack[-1] if stack else None,
                              ctx, msg)
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
    """A fixed pool of ``WORKERS`` threads over the wall clock.

    The workers share one condition, one FIFO of ready contexts and one
    timer heap.  ``post`` puts the message in the mailbox, records the trace
    entry and queues the context in one hold of the condition.  A worker
    takes a due timer or the ready head and runs one event.  A context stays
    marked ``_scheduled`` while its handler runs, so no other worker can take
    it; when the handler returns, the context goes back in the queue if it
    has mail and is unmarked otherwise.  Idle workers wait on the condition
    until the next timer is due; every finished event notifies all waiters.

    The pool is idle when no context is queued, no timer is pending and no
    event is running; ``run_until()`` without a bound waits for that.  A
    handler waiting in ``send_cmd`` holds its worker, so command chains
    nested deeper than ``WORKERS - 1`` handlers time out.
    """

    WORKERS = 2
    parallel = True

    def __init__(self):
        super().__init__()
        self._t0 = time.perf_counter()
        self._local = threading.local()
        self._cond = threading.Condition()
        self._ready: deque = deque()  # contexts with mail, not running
        self._timers: list = []  # (t_us, seq, fn)
        self._seq = itertools.count()
        self._running = 0  # events taken by a worker and not finished
        self._stop = False
        self.errors: list[BaseException] = []
        self.handler_invocations = 0
        self._workers = [
            threading.Thread(target=self._work, name=f"modnet-worker{i}",
                             daemon=True)
            for i in range(self.WORKERS)]
        for worker in self._workers:
            worker.start()

    @property
    def now_us(self) -> int:
        return int((time.perf_counter() - self._t0) * 1e6)

    def current_ctx(self):
        return getattr(self._local, "ctx", None)

    def call_at(self, t_us: int, fn):
        with self._cond:
            heapq.heappush(self._timers, (int(t_us), next(self._seq), fn))
            self._cond.notify_all()

    def post(self, ctx: ModuleContext, msg) -> bool:
        if ctx.closed:
            _release_pkt(msg)
            return False
        kind = getattr(msg, "kind", None)
        with self._cond:
            if kind is _MSG_SND or kind is _MSG_RCV:
                accepted = ctx.mailbox.put_data(msg)
            else:
                ctx.mailbox.put_ctrl(msg)
                accepted = True
            if accepted:
                if self.trace_enabled:
                    self.trace.record(self.now_us, self.current_ctx(), ctx,
                                      msg)
                if not ctx._scheduled:
                    ctx._scheduled = True
                    self._ready.append(ctx)
                    self._cond.notify_all()
        if not accepted:
            self.metrics.count("mailbox_drops")
            _release_pkt(msg)
        return accepted

    def _take(self):
        """Under the condition: wait for a due timer or a context with mail
        and return ``(ctx, event)``, ``ctx`` None for a timer; None once
        stopped."""
        ready, timers = self._ready, self._timers
        while not self._stop:
            now = self.now_us
            if timers and timers[0][0] <= now:
                return None, heapq.heappop(timers)[2]
            if ready:
                ctx = ready.popleft()
                msg = None if ctx.closed else ctx.mailbox.get_nowait()
                if msg is not None:
                    self.handler_invocations += 1
                    return ctx, msg
                ctx._scheduled = False
                continue
            self._cond.wait((timers[0][0] - now) / 1e6 if timers else None)
        return None

    def _work(self):
        cond, local = self._cond, self._local
        while True:
            with cond:
                job = self._take()
                if job is None:
                    return
                self._running += 1
            ctx, event = job
            local.ctx = ctx
            try:
                if ctx is None:
                    event()
                else:
                    ctx.handler(ctx, event)
            except BaseException as exc:  # surfaced by the caller
                self.errors.append(exc)
            finally:
                local.ctx = None
                with cond:
                    self._running -= 1
                    if ctx is not None:
                        if ctx.mailbox and not ctx.closed:
                            self._ready.append(ctx)
                        else:
                            ctx._scheduled = False
                    cond.notify_all()

    def wait_for(self, pred, timeout_us: int, box=None) -> bool:
        done = pred if box is None else (lambda: box.msg is not None)
        with self._cond:
            return self._cond.wait_for(done, timeout_us / 1e6)

    def run_until(self, t_us: int | None = None) -> int:
        """Wait until ``t_us`` on the wall clock, or, with no bound, until
        the pool is idle.  Returns 0: events run on the workers, which do
        not count them."""
        if t_us is not None:
            while (delay := (t_us - self.now_us) / 1e6) > 0:
                time.sleep(delay)
            return 0
        with self._cond:
            self._cond.wait_for(
                lambda: not (self._ready or self._timers or self._running))
        return 0

    def stop(self):
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=1.0)
