"""Driver-interface semantics and the lossy medium's statistics."""

import math
import random
from types import SimpleNamespace

import pytest

from modnet.metrics import Metrics
from modnet.netapi import MsgKind, NetMessage, OptionKey
from modnet.netdev import (DevNotify, DevStatus, NoFrame,
                           OwnershipViolation, SimRadioDevice, Unsupported)
from modnet.pktbuf import ArenaBuffer
from modnet.runtime import DetScheduler, Node
from modnet.simnet import Medium


def owned_dev(dev_id=0):
    """A radio as a stack holds it: a stub scheduler collects the (context,
    event) posts of the radio, and a stub medium carries its frames
    nowhere."""
    markers = []
    sched = SimpleNamespace(post=lambda ctx, msg: markers.append((ctx, msg)),
                            current=None)
    dev = SimRadioDevice(dev_id, bytes([0, dev_id]),
                         bytes(7) + bytes([dev_id + 1]))
    dev.owner = SimpleNamespace(closed=False,
                                node=SimpleNamespace(sched=sched))
    dev.medium = SimpleNamespace(transmit=lambda dev, frame: None)
    return dev, markers


def make_dev(dev_id=0):
    return owned_dev(dev_id)[0]


def test_send_too_large():
    dev = make_dev()
    assert dev.dev_send(b"x" * 128) == DevStatus.TOO_LARGE
    assert dev.dev_send(b"x" * 127) == DevStatus.OK


def test_busy_until_tx_done():
    dev, markers = owned_dev()
    assert dev.dev_send(b"one") == DevStatus.OK
    assert dev.dev_send(b"two") == DevStatus.BUSY
    assert markers == []
    dev._tx_done()
    assert markers == [(dev.owner, DevNotify.TX_DONE)]
    assert dev.dev_send(b"two") == DevStatus.OK


def test_rx_fifo_and_empty():
    dev, markers = owned_dev()
    dev._rx_frame(b"first")
    dev._rx_frame(b"second")
    assert markers == [(dev.owner, DevNotify.RX_READY)] * 2
    assert dev.dev_recv() == b"first"
    assert dev.dev_recv() == b"second"
    with pytest.raises(NoFrame):
        dev.dev_recv()


def test_options():
    dev = make_dev()
    assert dev.dev_get(OptionKey.MTU) == 127
    assert dev.dev_get(OptionKey.ADDRESS_LONG) == bytes(7) + b"\x01"
    dev.dev_set(OptionKey.CHANNEL, 15)
    assert dev.dev_get(OptionKey.CHANNEL) == 15
    with pytest.raises(Unsupported):
        dev.dev_set(OptionKey.LOSS_RATE, 1.5)
    with pytest.raises(Unsupported):
        dev.dev_get(OptionKey.PROTO_ENABLE)
    for channel in (10, 27, -7, 200, True):  # outside the 2.4 GHz band
        with pytest.raises(Unsupported):
            dev.dev_set(OptionKey.CHANNEL, channel)
        assert dev.dev_get(OptionKey.CHANNEL) == 15
    for channel in (11, 26):
        dev.dev_set(OptionKey.CHANNEL, channel)
        assert dev.dev_get(OptionKey.CHANNEL) == channel
    # a loss rate is an int or float in [0, 1], never a bool or text
    for rate in (True, "0.5", b"0.5", float("nan"), 1.5, -0.1):
        with pytest.raises(Unsupported):
            dev.dev_set(OptionKey.LOSS_RATE, rate)
        assert dev.dev_get(OptionKey.LOSS_RATE) == 0.0
    for rate in (0, 1, 0.5):
        dev.dev_set(OptionKey.LOSS_RATE, rate)
        stored = dev.dev_get(OptionKey.LOSS_RATE)
        assert type(stored) is float and stored == rate


def test_ownership_enforced():
    sched = DetScheduler()
    node = Node("n0", sched, ArenaBuffer(2048))
    dev = make_dev()
    seen = []

    def owner_handler(ctx, msg):
        seen.append(dev.dev_send(b"ok"))

    def intruder_handler(ctx, msg):
        dev.dev_send(b"not mine")

    owner = node.spawn_module("owner", owner_handler)
    intruder = node.spawn_module("intruder", intruder_handler)
    dev.owner = owner
    sched.post(owner, NetMessage(kind=MsgKind.MSG_SND))
    sched.run_until()
    assert seen == [DevStatus.OK]
    sched.post(intruder, NetMessage(kind=MsgKind.MSG_SND))
    with pytest.raises(OwnershipViolation):
        sched.run_until()


def medium_pair(loss=0.0, delay_us=1, seed=7):
    sched = DetScheduler()
    metrics = Metrics()
    medium = Medium(sched, random.Random(seed), metrics)
    a, b = make_dev(0), make_dev(1)
    a.medium = medium
    b.medium = medium
    medium.link(a, b, loss=loss, delay_us=delay_us)
    return sched, metrics, a, b


def test_lossless_delivery_and_tx_done_first():
    sched, metrics, a, b = medium_pair(loss=0.0, delay_us=0)
    assert a.dev_send(b"frame") == DevStatus.OK
    sched.run_until()
    # TX_DONE was scheduled before the RX at equal time, so the sender is
    # free again by the time the peer sees the frame
    assert not a._tx_busy
    assert b._rx == [b"frame"]
    assert metrics.get("frames_delivered") == 1


def test_loss_rate_within_three_sigma():
    sched, metrics, a, b = medium_pair(loss=0.1, seed=5)
    n = 10_000
    for _ in range(n):
        assert a.dev_send(b"f") == DevStatus.OK
        sched.run_until()
    lost = metrics.get("frames_lost")
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert abs(lost - n * 0.1) <= 3 * sigma
    assert metrics.get("frames_delivered") == n - lost


def test_device_loss_combines_with_link_loss():
    sched, metrics, a, b = medium_pair(loss=0.1, seed=9)
    a.loss_rate = 0.2
    n = 10_000
    for _ in range(n):
        a.dev_send(b"f")
        sched.run_until()
    eff = 1 - 0.9 * 0.8
    lost = metrics.get("frames_lost")
    sigma = math.sqrt(n * eff * (1 - eff))
    assert abs(lost - n * eff) <= 3 * sigma


def test_same_seed_same_losses():
    outcomes = []
    for _ in range(2):
        sched, metrics, a, b = medium_pair(loss=0.3, seed=42)
        for _ in range(200):
            a.dev_send(b"f")
            sched.run_until()
        outcomes.append([f for f in b._rx])
    assert outcomes[0] == outcomes[1]
