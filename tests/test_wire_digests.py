"""Golden wire digests: what each det-mode case transmits and delivers.

``tests/data/wire_digests.json`` holds, for every case of
``tests/data/trace_digests.json``, the count and sha256 of the frames each
device transmitted and of the payloads each socket received, in order
(see ``wire.py``).  A change that moves only the schedule or the copy
ledger re-pins the trace digests and leaves these as they are; a change
here means a frame on the air or a payload an app read moved.
``scripts/repin.py --write-wire`` re-pins them.
"""

import json
import pathlib

import pytest

from wire import CASES, wire_digests

PINNED = json.loads((pathlib.Path(__file__).parent / "data"
                     / "wire_digests.json").read_text())["runs"]


def test_every_trace_case_has_wire_digests():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("run", sorted(CASES))
def test_det_run_matches_golden_wire(run):
    assert wire_digests(CASES[run]) == PINNED[run]
