"""Execution substrate for stack modules.

Each high-level module runs as an independently scheduled context with a
private bounded mailbox; modules interact only through messages (and the
shared packet buffer contents reachable from the head snips they hold).

Both schedulers share one core, ``_SchedulerBase``: a FIFO of ready
contexts, a heap of timers, one sequence both take a number from when an
event is queued, and the two ways in.  ``post`` is the one place a
message is admitted: it puts the message in its mailbox lane, appends its
trace line when recording, and queues the context unless it is queued
already.  ``call_at`` queues a timer, never earlier than ``now_us``.  The
two schedulers differ only in who takes the events:

* ``DetScheduler`` -- a single-threaded event loop over a simulated
  microsecond clock.  Events due at the same time run in sequence order,
  whichever queue holds them.  ``step`` runs one event: a timer, or the
  next message of the ready head, whose handler it calls itself.
  Identical inputs produce identical traces; this mode drives all
  reproducible tests.
* ``ThreadScheduler`` -- a fixed pool of ``WORKERS`` threads over the
  same simulated clock, used for race detection.  Its ``post`` and
  ``call_at`` run the shared ones under the pool's condition and wake the
  workers.  Handlers of two contexts run at once, so traces are
  unordered, but a timer runs only once no context is ready and no event
  is running, so time moves as under ``det``.  The thread count does not
  grow with the topology.

Both run a context by one rule.  It stays marked ``_scheduled`` from the
post that queues it until its handler, which runs one message, returns;
then it is queued again if it has mail and unmarked otherwise.  So at most
one handler of a context runs at a time, and a post to a running context
does not queue it twice.  A scheduler built with ``record=True`` keeps
``trace``, a list with one text line per accepted message, rendered at the
post, and its ``Metrics`` keeps the per-packet copy ledger; otherwise
``trace`` is None and neither record is kept, so a run pays for them only
when a caller asks.  Both expose the context whose handler runs as
``current`` (None outside any handler).

Only a command's answer is waited for: ``wait_for(cmd, timeout_us)``, which
``send_cmd`` calls, returns once ``cmd.status`` is set, or False at the
timeout.  ``DetScheduler`` calls ``step`` nested inside the caller until
then; ``ThreadScheduler`` waits on the pool's condition.  Data never waits.

Only ``ThreadScheduler`` is ``parallel``, and only then do the structures
contexts share (``Metrics``, each node's ``Registry`` and ``PacketBuffer``)
take a lock.  Under ``DetScheduler`` they take none: its handlers run on
one thread, and a CPython lock costs more than most calls it guards.  No
code holding one of those locks takes the pool's condition, so ``post``
may count and release a dropped message's chain under the condition.

Mailbox policy: overflow drops data messages (MSG_SND/MSG_RCV) as
``mailbox_drops``, never control messages -- option traffic back-pressures
the sender instead of disappearing, which keeps the control plane deadlock-
and loss-free.  Device notifications are treated as control.  A closed
context's refused and drained messages are ``closed_drops``.  Both go
through ``netapi.drop``, which releases the packet.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque

from . import netapi
from .metrics import Metrics
from .netapi import _MSG_RCV, _MSG_SND, NetMessage


class DuplicateName(Exception):
    pass


MAILBOX_CAPACITY = 8  # data messages a context's mailbox holds by default
STACK_NOTE = 1024  # declared budget in bytes of a protocol module's context


class ModuleContext:
    """A spawned module with its mailbox and scheduling state.  ``module``
    is the spawned object, the one way into its state; ``handler`` is what
    the schedulers call, ``module`` unless a tool wraps it.  Mail waits in
    two lanes: ``_data``, a FIFO of at most ``capacity`` data messages, and
    ``_ctrl``, an unbounded control lane taken first.  ``post`` admits it."""

    def __init__(self, node, name: str, module, mailbox_capacity: int):
        assert mailbox_capacity >= 1
        self.node = node
        self.name = name
        self.module = module
        self.handler = module  # callable(ctx, msg)
        self.capacity = mailbox_capacity
        self._data: deque = deque()
        self._ctrl: deque = deque()
        self.closed = False
        self._scheduled = False  # queued, or its handler runs

    # read only by perfbench/tracer.py, for its mailbox high-water mark
    mailbox = property(lambda self: [*self._ctrl, *self._data])

    def __repr__(self):
        return f"<ModuleContext {self.node.name}/{self.name}>"


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

    def spawn_module(self, name: str, module,
                     mailbox_capacity: int = MAILBOX_CAPACITY,
                     aux: bool = False) -> ModuleContext:
        if name in self.modules or name in self.aux:
            raise DuplicateName(f"{self.name}/{name}")
        ctx = ModuleContext(self, name, module, mailbox_capacity)
        (self.aux if aux else self.modules)[name] = ctx
        if hasattr(module, "on_spawn"):
            module.on_spawn(ctx)
        return ctx

    def shutdown_module(self, ctx: ModuleContext):
        if ctx.closed:
            return  # idempotent
        ctx.closed = True
        self.registry.unregister_target(ctx)
        if hasattr(ctx.module, "on_shutdown"):
            ctx.module.on_shutdown(ctx)
        for lane in (ctx._ctrl, ctx._data):
            while lane:
                netapi.drop(ctx, getattr(lane.popleft(), "pkt", None),
                            "closed_drops")
        self.modules.pop(ctx.name, None)
        self.aux.pop(ctx.name, None)

    def all_contexts(self):
        yield from self.modules.values()
        yield from self.aux.values()


_TRACE_LINE = "t=%s node=%s %s->%s kind=%s proto=%s size=%s"


def _trace_line(now_us: int, src, target, msg) -> str:
    """The trace line of ``msg`` posted at ``now_us`` from context ``src``
    (None outside any handler) to context ``target``.  ``size`` is taken
    at the post, since handlers later grow and shrink the chain."""
    pkt = None
    if isinstance(msg, NetMessage):
        kind, pkt = msg.kind._name_, msg.pkt  # .name is a property
    else:
        kind = type(msg).__name__
    return _TRACE_LINE % (
        now_us, target.node.name, "ext" if src is None else src.name,
        target.name, kind, "-" if pkt is None else pkt.proto._name_,
        0 if pkt is None else pkt.total_size)


class _SchedulerBase:
    """The core both schedulers share: the ready FIFO, the timer heap, the
    sequence both queues number their events from, ``post`` and
    ``call_at``.  Subclasses decide who takes the events and when."""

    parallel = False  # True when handlers of two contexts can run at once

    def __init__(self, record: bool = False):
        self.metrics = Metrics(locked=self.parallel, record=record)
        self.trace: list[str] | None = [] if record else None
        self.now_us = 0  # simulated; only the scheduler moves it
        self._heap: list = []  # (t_us, seq, fn) timers
        self._ready: deque = deque()  # (seq, ctx) contexts with mail
        self._seq = itertools.count()

    def call_at(self, t_us: int, fn):
        t_us, now = int(t_us), self.now_us
        heapq.heappush(self._heap, (t_us if t_us > now else now,
                                    next(self._seq), fn))

    def call_later(self, dt_us: int, fn):
        self.call_at(self.now_us + dt_us, fn)

    def pending_events(self) -> int:
        return len(self._heap) + len(self._ready)

    def post(self, ctx: ModuleContext, msg) -> bool:
        if ctx.closed:
            netapi.drop(ctx, getattr(msg, "pkt", None), "closed_drops")
            return False
        kind = getattr(msg, "kind", None)
        if kind is not _MSG_SND and kind is not _MSG_RCV:
            ctx._ctrl.append(msg)
        elif len(ctx._data) < ctx.capacity:
            ctx._data.append(msg)
        else:
            netapi.drop(ctx, msg.pkt, "mailbox_drops")
            return False
        if self.trace is not None:  # par calls this under its condition
            self.trace.append(
                _trace_line(self.now_us, self.current, ctx, msg))
        # the mailbox is non-empty by construction here
        if not ctx._scheduled:
            ctx._scheduled = True
            self._ready.append((next(self._seq), ctx))
        return True


class DetScheduler(_SchedulerBase):
    """Single-threaded deterministic event loop over simulated microseconds.

    Ready work is always due now, so a timer due now runs before the ready
    head exactly when its sequence number is lower: events at the same
    timestamp run in the order they were queued, and later timers wait
    until no ready work is left.  ``step`` runs one event, for a ready
    context the handler on one message (control lane first) with
    ``current`` set to that context and the outer one restored after.  A
    handler waiting in ``send_cmd`` steps nested while its context stays
    marked, so every step runs a handler or a timer.  ``run_until`` and
    ``wait_for`` loop on ``step``.
    """

    # in det's own class dict, where perfbench/tracer.py patches it
    post = _SchedulerBase.post

    def __init__(self, record: bool = False):
        super().__init__(record)
        self.current: ModuleContext | None = None  # whose handler runs
        self.steps = 0

    # -- time & events ---------------------------------------------------
    def step(self) -> bool:
        ready, heap = self._ready, self._heap
        # ready work is due now: it waits only for a due timer queued first
        if ready and not (heap and heap[0][0] <= self.now_us
                          and heap[0][1] < ready[0][0]):
            self.steps += 1
            ctx = ready.popleft()[1]
            ctrl, data = ctx._ctrl, ctx._data
            if ctx.closed or not (ctrl or data):  # drained by a shutdown
                ctx._scheduled = False
                return True
            msg = ctrl.popleft() if ctrl else data.popleft()
            outer, self.current = self.current, ctx
            try:
                ctx.handler(ctx, msg)
            finally:
                self.current = outer
                if ctrl or data:  # a post while it ran did not queue it
                    ready.append((next(self._seq), ctx))
                else:
                    ctx._scheduled = False
            return True
        if not heap:
            return False
        t, _, fn = heapq.heappop(heap)
        if t > self.now_us:
            self.now_us = t
        self.steps += 1
        fn()
        return True

    def run_until(self, t_us: int | None = None):
        """Run events up to simulated time ``t_us``, or until none are
        left when no bound is given; ``steps`` counts them."""
        ready, heap, step = self._ready, self._heap, self.step
        if t_us is None:  # a drain tests no bound per event
            while ready or heap:
                step()
            return
        while (ready or heap) and (
                self.now_us if ready else heap[0][0]) <= t_us:
            step()
        self.now_us = max(self.now_us, t_us)

    def wait_for(self, cmd, timeout_us: int) -> bool:
        """Step until ``cmd`` is answered; False when no event due by
        ``timeout_us`` from now is left to run."""
        deadline = self.now_us + timeout_us
        ready, heap = self._ready, self._heap
        while cmd.status is None:
            if not ready and (not heap or heap[0][0] > deadline):
                return False
            self.step()
        return True

    def stop(self):
        pass


class ThreadScheduler(_SchedulerBase):
    """A fixed pool of ``WORKERS`` threads over det's simulated clock.

    The workers share one condition, under which every touch of the shared
    ready FIFO and timer heap happens: ``post`` and ``call_at`` run the
    shared ones under it and wake the workers.  A worker takes the ready
    head first, and from it the context's next message, control lane first.
    Only when no context is ready and no event is running does it pop the
    earliest timer and move ``now_us`` to it, and never one later than the
    bound of the last ``run_until``: as under ``det``, timers run only
    inside ``run_until``.  A context runs by the rule in the module
    docstring, so no other worker can take one whose handler runs.

    A handler waiting in ``send_cmd`` holds its worker and, as a running
    event, holds back every timer; command chains nested deeper than
    ``WORKERS - 1`` handlers time out.
    """

    WORKERS = 2
    parallel = True

    def __init__(self, record: bool = False):
        super().__init__(record)
        self._bound = -1  # no timer later than this is taken
        self._local = threading.local()
        self._cond = threading.Condition()
        self._running = 0  # events taken by a worker and not finished
        self._stop = False
        self.errors: list[BaseException] = []
        self._workers = [
            threading.Thread(target=self._work, name=f"modnet-worker{i}",
                             daemon=True)
            for i in range(self.WORKERS)]
        for worker in self._workers:
            worker.start()

    @property
    def current(self):
        return getattr(self._local, "ctx", None)

    def call_at(self, t_us: int, fn):
        with self._cond:
            super().call_at(t_us, fn)
            self._cond.notify_all()

    def post(self, ctx: ModuleContext, msg) -> bool:
        with self._cond:
            accepted = super().post(ctx, msg)
            self._cond.notify_all()
        return accepted

    def _take(self):
        """Under the condition: wait for an event this worker may take; return
        ``(ctx, event)``, ``ctx`` None for a timer, or None once stopped."""
        ready, heap = self._ready, self._heap
        while not self._stop:
            if ready:
                ctx = ready.popleft()[1]
                ctrl, data = ctx._ctrl, ctx._data
                if not ctx.closed and (ctrl or data):
                    return ctx, ctrl.popleft() if ctrl else data.popleft()
                ctx._scheduled = False
                continue
            if not self._running and heap and heap[0][0] <= self._bound:
                # call_at clamps, so no timer is earlier than now_us
                self.now_us, _, fn = heapq.heappop(heap)
                return None, fn
            self._cond.wait()
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
                        if (ctx._ctrl or ctx._data) and not ctx.closed:
                            self._ready.append((next(self._seq), ctx))
                        else:
                            ctx._scheduled = False
                    cond.notify_all()

    def wait_for(self, cmd, timeout_us: int) -> bool:
        """Wait on the pool's condition until ``cmd`` is answered; False
        after ``timeout_us`` on the wall clock."""
        with self._cond:
            return self._cond.wait_for(lambda: cmd.status is not None,
                                       timeout_us / 1e6)

    def run_until(self, t_us: int | None = None):
        """Let the workers take the timers due by ``t_us`` (all of them with
        no bound), wait until none is left and no event is ready or running,
        then move ``now_us`` to ``t_us``."""
        bound = float("inf") if t_us is None else t_us
        with self._cond:
            self._bound = bound
            self._cond.notify_all()
            self._cond.wait_for(lambda: not (
                self._ready or self._running
                or self._heap and self._heap[0][0] <= bound))
            self.now_us = max(self.now_us, t_us or 0)

    def stop(self):
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=1.0)


SCHEDULERS = {"det": DetScheduler, "par": ThreadScheduler}
