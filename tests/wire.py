"""Wire digests: what a run puts on the air and hands to its apps.

For each case of ``tests/data/trace_digests.json`` (a shipped scenario run
as ``modnet run`` with the case's arguments, in det mode), this records,
in order:

* per device (``node:index``), the frames it transmitted;
* per socket (``node:port``), the payloads it received,

each as a count and the sha256 over every item, length-prefixed.  Both
are taken from outside ``src/modnet``, by wrapping ``Medium.transmit`` and
``Socket.recvfrom`` for the run; the stats collection drains what the
apps left queued through ``recvfrom`` too.  Unlike the trace digests,
these do not move when only the schedule or the accounting does.

    PYTHONPATH=src python tests/wire.py [--scenarios DIR]

prints every case's digests as JSON, in the shape of
``tests/data/wire_digests.json``; ``scripts/repin.py`` runs it this way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib

from modnet.cli import main as modnet_main
from modnet.simnet import Medium
from modnet.udp import Socket

DATA = pathlib.Path(__file__).resolve().parent / "data"
CASES = json.loads((DATA / "trace_digests.json").read_text())["runs"]
SCENARIOS = DATA.parent.parent / "scenarios"


class _Stream:
    """A count and a running sha256 of length-prefixed items."""

    def __init__(self):
        self.count = 0
        self.hash = hashlib.sha256()

    def add(self, item: bytes):
        self.count += 1
        self.hash.update(len(item).to_bytes(4, "big") + item)

    def digest(self) -> dict:
        return {"count": self.count, "sha256": self.hash.hexdigest()}


def wire_digests(entry: dict, scenarios: pathlib.Path = SCENARIOS) -> dict:
    """``{"devices": {...}, "sockets": {...}}`` for one case."""
    frames: dict[str, _Stream] = {}
    payloads: dict[str, _Stream] = {}
    transmit, recvfrom = Medium.transmit, Socket.recvfrom

    def recording_transmit(medium, dev, frame):
        key = f"{dev.owner.node.name}:{dev.id}"
        frames.setdefault(key, _Stream()).add(bytes(frame))
        return transmit(medium, dev, frame)

    def recording_recvfrom(sock):
        datagram = recvfrom(sock)
        key = f"{sock.layer.ctx.node.name}:{sock.port}"
        payloads.setdefault(key, _Stream()).add(datagram[2])
        return datagram

    Medium.transmit, Socket.recvfrom = recording_transmit, recording_recvfrom
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = modnet_main(["run", str(scenarios / entry["scenario"]),
                                  *entry["args"]])
    finally:
        Medium.transmit, Socket.recvfrom = transmit, recvfrom
    if status:
        raise RuntimeError(f"modnet run {entry['scenario']} exited {status}")
    return {side: {key: stream.digest()
                   for key, stream in sorted(streams.items())}
            for side, streams in (("devices", frames),
                                  ("sockets", payloads))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenarios", type=pathlib.Path, default=SCENARIOS,
                    help="directory of the scenario files (default: the "
                         "repository's)")
    args = ap.parse_args(argv)
    runs = {name: wire_digests(entry, args.scenarios)
            for name, entry in sorted(CASES.items())}
    print(json.dumps({"runs": runs}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
