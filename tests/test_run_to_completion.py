"""The stack gives the same run when messages are function calls: every
shipped scenario's stats under ``det`` and under run-to-completion."""

import pathlib

import pytest

from modnet.netapi import MsgKind, NetMessage
from modnet.pktbuf import ArenaBuffer
from modnet.runtime import Node
from modnet.scenario import load_scenario_file, run_scenario
from rtc import RunToCompletion, installed

SCENARIOS = sorted(
    (pathlib.Path(__file__).parent.parent / "scenarios").glob("*.json"))


def test_a_post_to_an_idle_context_runs_it_at_once():
    """A runs inside the outside post and posts to idle B, which runs at
    once, and to itself, which queues until A's handler has returned."""
    sched = RunToCompletion()
    node = Node("n0", sched, ArenaBuffer(2048))
    order = []

    def a(ctx, msg):
        order.append(("a", msg.option))
        if msg.option == 1:
            sched.post(b_ctx, NetMessage(MsgKind.MSG_SET, option=2))
            sched.post(ctx, NetMessage(MsgKind.MSG_SET, option=3))
            order.append(("a returns", 1))

    a_ctx = node.spawn_module("a", a)
    b_ctx = node.spawn_module("b", lambda ctx, msg: order.append(
        ("b", msg.option)))
    assert sched.post(a_ctx, NetMessage(MsgKind.MSG_SET, option=1))
    assert order == [("a", 1), ("b", 2), ("a returns", 1)]
    assert (sched.steps, sched.inline) == (2, 2)
    assert a_ctx._scheduled and not b_ctx._scheduled
    sched.run_until()
    assert order[-1] == ("a", 3)
    assert (sched.steps, sched.inline) == (3, 2)
    assert not a_ctx._scheduled


def run(path, seed, rtc):
    scenario = load_scenario_file(str(path))
    if seed is not None:
        scenario.topology.seed = seed
    if not rtc:
        return run_scenario(scenario, record=True)
    with installed():
        return run_scenario(scenario, record=True)


@pytest.mark.parametrize("seed", [None, 9], ids=["own-seed", "seed9"])
@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_every_scenario_gives_the_same_stats_under_run_to_completion(
        path, seed):
    _, det = run(path, seed, rtc=False)
    sim, rtc = run(path, seed, rtc=True)
    assert type(sim.sched) is RunToCompletion and sim.sched.inline > 0
    assert rtc == det
