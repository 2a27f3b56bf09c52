"""A run-to-completion scheduler: a message to an idle context is a call.

``RunToCompletion`` is ``DetScheduler`` with one change.  A post to an
idle context runs that context's handler at once, inside the post, as
lwIP and uIP pass a packet between layers by a function call; it counts
as a step.  A post to a context that is queued or whose handler runs
queues, as under ``DetScheduler``, so at most one handler of a context
runs at a time.  Timers, lanes, trace lines and the refusal rules are
``DetScheduler``'s own.  It is a fixed depth-first interleaving of the
rule that modules interact only through messages: a run under it that
gives other stats than under ``det`` depends on the order of its mail.

Tools install it from outside, as the benchmark's tracer installs its
patches, with ``installed()``, which names it as ``det`` in
``runtime.SCHEDULERS``, the table every build picks its scheduler from.
``scripts/arch_cost.py`` prices the message queue with it.
"""

from __future__ import annotations

from unittest import mock

from modnet.runtime import SCHEDULERS, DetScheduler


class RunToCompletion(DetScheduler):
    """``DetScheduler`` whose post to an idle context runs its handler;
    ``inline`` counts those posts."""

    def __init__(self, record: bool = False):
        super().__init__(record)
        self.inline = 0

    def post(self, ctx, msg) -> bool:
        idle = not ctx._scheduled
        accepted = DetScheduler.post(self, ctx, msg)
        if not (accepted and idle):
            return accepted
        self._ready.pop()  # the entry the post just queued: run it here
        self.steps += 1
        self.inline += 1
        ctrl, data = ctx._ctrl, ctx._data
        msg = ctrl.popleft() if ctrl else data.popleft()
        outer, self.current = self.current, ctx
        try:
            ctx.handler(ctx, msg)
        finally:
            self.current = outer
            if ctrl or data:  # posts while it ran: queue it, as det does
                self._ready.append((next(self._seq), ctx))
            else:
                ctx._scheduled = False
        return True


def installed():
    """Within the block, det mode builds ``RunToCompletion``."""
    return mock.patch.dict(SCHEDULERS, det=RunToCompletion)
