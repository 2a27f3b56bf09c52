"""Golden digests: det-mode ``modnet run`` output stays byte-identical.

``tests/data/trace_digests.json`` holds the sha256 of the ``--trace`` and
``--stats`` files for every shipped scenario, run with default arguments
and with ``--seed 9 --until 3000``. A performance change that alters any
simulated result (event order, trace line, counter or copy record) shows
up here as a digest mismatch.
"""

import hashlib
import json
import pathlib

import pytest

from modnet.cli import main

ROOT = pathlib.Path(__file__).parent.parent
DIGESTS = json.loads(
    (ROOT / "tests" / "data" / "trace_digests.json").read_text())["runs"]


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_det_run_matches_golden_digest(run, tmp_path, capsys):
    entry = DIGESTS[run]
    trace, stats = tmp_path / "trace.txt", tmp_path / "stats.json"
    argv = ["run", str(ROOT / "scenarios" / entry["scenario"]),
            "--trace", str(trace), "--stats", str(stats), *entry["args"]]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == entry["trace"]
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == entry["stats"]
