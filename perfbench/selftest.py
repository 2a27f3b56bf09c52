#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny run (one round, no timed seconds) of every workload, untraced and
   traced, exits 0 and prints every metric it owes by name with its unit:
   the ``end_to_end`` set of ``BENCHMARK.json`` for the workloads listed
   there, the control-plane set for ``ctrl_plane``, and the ``per_layer``
   set when traced.
2. The correctness gate trips when one byte of one delivered payload is
   flipped: the round records a violation, and the benchmark command
   reports ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--rounds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)


def owed_metrics(bench: dict, workload: str, trace: int) -> dict:
    import run
    if trace:
        return {m["name"]: m["unit"] for m in bench["per_layer"]}
    if workload in {w["name"] for w in bench["workloads"]}:
        return {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return run.CTRL_METRICS


def check_metrics_printed(bench: dict) -> None:
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = tiny_run(workload, trace)
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n" \
                f"{proc.stdout}{proc.stderr}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, label
            assert result["correct"] is True and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            owed = owed_metrics(bench, workload, trace)
            assert set(result["metrics"]) == set(owed), \
                f"{label}: {set(result['metrics']) ^ set(owed)}"
            table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                     if line.startswith("  ") and len(line.split()) == 3}
            for name, unit in owed.items():
                assert result["metrics"][name]["unit"] == unit, (label, name)
                assert table.get(name) == unit, (label, name)
            print(f"ok  {label}: {len(owed)} metrics printed with units")


def check_gate_trips() -> None:
    import run
    from modnet import udp
    from tracer import Patches
    from workloads import WORKLOADS

    original = udp.Socket.recvfrom
    flipped = []

    def flip_first_payload(sock, *args, **kwargs):
        src_ip, src_port, payload = original(sock, *args, **kwargs)
        if not flipped:
            flipped.append(payload)
            payload = payload[:-1] + bytes([payload[-1] ^ 0x01])
        return src_ip, src_port, payload

    for name, wl in WORKLOADS.items():
        if not wl.data:
            continue
        index = next(i for i in range(50)
                     if wl.run(wl.make_round(7, i)).completed)
        rnd = wl.make_round(7, index)
        assert not wl.run(rnd).violations, name
        flipped.clear()
        with Patches() as patches:
            patches.set(udp.Socket, "recvfrom", flip_first_payload)
            out = wl.run(rnd)
            assert flipped and out.violations, f"{name}: gate did not trip"
            flipped.clear()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", name, "--seed", "7",
                                 "--seconds", "0", "--rounds",
                                 str(index + 1)])
        result = json.loads(stdout.getvalue().splitlines()[-1])
        assert code == 1 and result["correct"] is False, name
        print(f"ok  {name}: one flipped byte trips the gate "
              f"({out.violations[0]})")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics_printed(bench)
    check_gate_trips()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
