"""Synchronous driver interface plus the simulated radio device.

Unlike the inter-module message protocol, driver interaction is plain
procedure calls: the MAC/link module owns its device exclusively and calls
``dev_send``/``dev_recv`` directly; the device posts ``DevNotify`` markers
to the owner's mailbox when events (RX_READY, TX_DONE) are queued.

The simulated radio is half-duplex with a single TX slot: a second
``dev_send`` before the TX_DONE event has been processed returns ``BUSY``,
which is exactly the path MAC code has to handle on real hardware.
"""

from __future__ import annotations

import enum


class DevStatus(enum.Enum):
    OK = 0
    TOO_LARGE = 1
    BUSY = 2


class DevEventType(enum.Enum):
    NONE = 0
    RX_READY = 1
    TX_DONE = 2


# aliases for the per-frame paths (see ``pktbuf``)
_DEV_OK, _TOO_LARGE, _BUSY = DevStatus.OK, DevStatus.TOO_LARGE, DevStatus.BUSY
_EV_NONE, _RX_READY, _TX_DONE = (DevEventType.NONE, DevEventType.RX_READY,
                                 DevEventType.TX_DONE)


class NoFrame(Exception):
    pass


class Unsupported(Exception):
    """Option key the device does not implement."""


class OwnershipViolation(AssertionError):
    """Device call from a context that does not own the device."""


class DevNotify:
    """Mailbox marker: the named device has queued events to poll."""

    __slots__ = ("device",)

    def __init__(self, device):
        self.device = device


BROADCAST_LONG = b"\xff" * 8
MAX_FRAME = 127  # 802.15.4 frame limit, the radio's MTU by default


class SimRadioDevice:
    """802.15.4-lite radio: 127-byte MTU, short + long address, seeded
    per-device loss (sim-only, on top of link loss)."""

    def __init__(self, dev_id: int, addr_short: bytes, addr_long: bytes,
                 mtu: int = MAX_FRAME):
        assert len(addr_short) == 2 and len(addr_long) == 8
        self.id = dev_id
        self.mtu = mtu
        self.addr_short = addr_short
        self.addr_long = addr_long
        self.event_sink = None  # owner module context
        self.owner = None
        self.node = None
        self.medium = None
        self.loss_rate = 0.0  # sim-only knob
        self.channel = 11
        self._events: list[DevEventType] = []
        self._rx: list[bytes] = []
        self._tx_busy = False

    # -- ownership contract ----------------------------------------------
    def _check_owner(self):
        if self.owner is None or self.node is None:
            return  # not yet wired into a stack; direct use in tests
        current = self.node.sched.current_ctx()
        if current is not None and current is not self.owner:
            raise OwnershipViolation(
                f"device {self.id} owned by {self.owner.name}, "
                f"called from {current.name}")

    # -- driver calls ------------------------------------------------------
    def dev_send(self, frame: bytes) -> DevStatus:
        self._check_owner()
        if len(frame) > self.mtu:
            return _TOO_LARGE
        if self._tx_busy:
            return _BUSY
        self._tx_busy = True
        if self.medium is not None:
            self.medium.transmit(self, bytes(frame))
        return _DEV_OK

    def dev_poll_event(self) -> DevEventType:
        self._check_owner()
        if self._events:
            return self._events.pop(0)
        return _EV_NONE

    def dev_recv(self) -> bytes:
        """Copy the oldest received frame out of the device (the one
        device-to-buffer copy of the RX path; the caller tags it)."""
        self._check_owner()
        if not self._rx:
            raise NoFrame(f"device {self.id}: RX queue empty")
        return bytes(self._rx.pop(0))

    def dev_get(self, key):
        from .netapi import OptionKey
        self._check_owner()
        if key == OptionKey.MTU:
            return self.mtu
        if key == OptionKey.ADDRESS:
            return self.addr_short
        if key == OptionKey.ADDRESS_LONG:
            return self.addr_long
        if key == OptionKey.CHANNEL:
            return self.channel
        if key == OptionKey.LOSS_RATE:
            return self.loss_rate
        raise Unsupported(f"device option {key!r}")

    def dev_set(self, key, value):
        from .netapi import OptionKey, OK
        self._check_owner()
        if key == OptionKey.CHANNEL:
            self.channel = int(value)
            return OK
        if key == OptionKey.LOSS_RATE:
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise Unsupported(f"loss rate {rate} out of [0,1]")
            self.loss_rate = rate
            return OK
        raise Unsupported(f"device option {key!r}")

    # -- medium callbacks (scheduler context) ------------------------------
    def _tx_done(self):
        self._tx_busy = False
        self._push_event(_TX_DONE)

    def _rx_frame(self, frame: bytes):
        self._rx.append(frame)
        self._push_event(_RX_READY)

    def _push_event(self, ev: DevEventType):
        self._events.append(ev)
        if self.event_sink is not None and self.node is not None:
            self.node.sched.post(self.event_sink, DevNotify(self))
