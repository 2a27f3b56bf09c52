"""Synchronous driver interface plus the simulated radio device.

Unlike the inter-module message protocol, driver interaction is plain
procedure calls: each radio's link context (``owner``) owns it exclusively
and calls ``dev_send``/``dev_recv`` directly; another context's handler
calling them (the scheduler's ``current``) raises ``OwnershipViolation``.
An offload node has no radio, so every radio has an owner and a medium.
The device posts the event itself, a ``DevNotify`` member (RX_READY or
TX_DONE), to the owner's mailbox: the owner drives this one radio, so
the event needs no device beside it.  A radio holds only its received
frames.  A frame that reaches a radio whose owner is closed is dropped,
counted as ``dev_rx_drops_no_owner``.

The simulated radio is half-duplex with a single TX slot: a second
``dev_send`` before the TX_DONE event has been processed returns ``BUSY``,
which is exactly the path MAC code has to handle on real hardware.
"""

from __future__ import annotations

import enum

from .netapi import OptionKey, Unsupported


class DevStatus(enum.Enum):
    OK = 0
    TOO_LARGE = 1
    BUSY = 2


class DevNotify(enum.Enum):
    """A radio's event, posted as itself to its owner's mailbox; one
    mailbox may hold the same member more than once."""

    RX_READY = 1
    TX_DONE = 2


# aliases for the per-frame paths (see ``pktbuf``)
_DEV_OK, _TOO_LARGE, _BUSY = DevStatus.OK, DevStatus.TOO_LARGE, DevStatus.BUSY
_RX_READY, _TX_DONE = DevNotify.RX_READY, DevNotify.TX_DONE


class NoFrame(Exception):
    pass


class OwnershipViolation(AssertionError):
    """Device call from a context that does not own the device."""


BROADCAST_LONG = b"\xff" * 8
MAX_FRAME = 127  # 802.15.4 frame limit, the radio's MTU
CHANNELS = range(11, 27)  # 802.15.4's 2.4 GHz band


class SimRadioDevice:
    """802.15.4-lite radio: 127-byte MTU, short + long address, seeded
    per-device loss (sim-only, on top of link loss)."""

    mtu = MAX_FRAME
    _OPTIONS = {OptionKey.MTU: "mtu", OptionKey.ADDRESS: "addr_short",
                OptionKey.ADDRESS_LONG: "addr_long",
                OptionKey.CHANNEL: "channel", OptionKey.LOSS_RATE: "loss_rate"}

    def __init__(self, dev_id: int, addr_short: bytes, addr_long: bytes):
        assert len(addr_short) == 2 and len(addr_long) == 8
        self.id = dev_id
        self.addr_short = addr_short
        self.addr_long = addr_long
        self.owner = None  # its link context; it also takes the events
        self.medium = None  # the simulator's medium
        self.loss_rate = 0.0  # sim-only knob
        self.channel = 11
        self._rx: list[bytes] = []
        self._tx_busy = False

    # -- ownership contract ----------------------------------------------
    def _check_owner(self):
        current = self.owner.node.sched.current
        if current is not None and current is not self.owner:
            raise OwnershipViolation(
                f"device {self.id} owned by {self.owner.name}, "
                f"called from {current.name}")

    # -- driver calls ------------------------------------------------------
    def dev_send(self, frame: bytes) -> DevStatus:
        owner = self.owner
        if owner.node.sched.current is not owner:
            self._check_owner()
        if len(frame) > MAX_FRAME:
            return _TOO_LARGE
        if self._tx_busy:
            return _BUSY
        self._tx_busy = True
        self.medium.transmit(self, bytes(frame))
        return _DEV_OK

    def dev_recv(self) -> bytes:
        """Copy the oldest received frame out of the device (the one
        device-to-buffer copy of the RX path; the caller tags it)."""
        owner = self.owner
        if owner.node.sched.current is not owner:
            self._check_owner()
        if not self._rx:
            raise NoFrame(f"device {self.id}: RX queue empty")
        return bytes(self._rx.pop(0))

    def dev_get(self, key):
        self._check_owner()
        attr = self._OPTIONS.get(key)
        if attr is None:
            raise Unsupported(f"device option {key!r}")
        return getattr(self, attr)

    def dev_set(self, key, value):
        self._check_owner()
        if (key == OptionKey.CHANNEL and type(value) is int
                and value in CHANNELS):
            self.channel = value
        elif (key == OptionKey.LOSS_RATE and type(value) in (int, float)
                and 0 <= value <= 1):  # NaN compares false
            self.loss_rate = float(value)
        else:  # a channel outside the band, a loss rate not a number in [0, 1]
            raise Unsupported(f"device option {key!r} = {value!r}")

    # -- medium callbacks (scheduler context) ------------------------------
    def _tx_done(self):
        self._tx_busy = False
        owner = self.owner  # a closed owner refuses the event
        owner.node.sched.post(owner, _TX_DONE)

    def _rx_frame(self, frame: bytes):
        owner = self.owner
        if owner.closed:
            owner.node.metrics.count("dev_rx_drops_no_owner")
            return
        self._rx.append(frame)
        owner.node.sched.post(owner, _RX_READY)
