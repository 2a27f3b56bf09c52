#!/usr/bin/env python3
"""Report every simulated value that differs between a git revision and
the working tree, and re-pin the golden trace and wire digests.

    python3 scripts/repin.py [--base REF] [--write] [--write-wire]

``REF`` (default ``HEAD``) is exported with ``git archive`` into a
temporary directory, and the working tree is copied into another; both
runs below happen in those copies, so no file of the repository changes:

* every entry of ``tests/data/trace_digests.json`` runs as
  ``modnet run <scenario> --trace --stats <args>`` in det mode.  For each
  trace line that differs the script prints the ``key=value`` fields that
  differ, and for the stats file every key whose value differs;
* ``perfbench/replay.py --write`` records the exact benchmark values, and
  the script prints each workload/seed/metric that differs, old and new;
* the working tree's ``tests/wire.py`` computes each entry's wire digests
  (the frames each device sent and the payloads each socket received)
  against each tree's ``src``, and the script prints each device or
  socket whose count or digest differs.

The differences are counted in groups: ``wire`` (what is sent and
received), ``trace`` and ``stats`` (when and through which layers),
``replay`` (the benchmark's exact values) and ``run`` (a scenario run
that failed on one side).

``--write`` then rewrites ``tests/data/trace_digests.json`` with the
working tree's digests, and ``--write-wire`` rewrites
``tests/data/wire_digests.json``; each keeps its file's ``_about``.  A
change that moves the wire has to re-pin it on purpose.  Exit status 1
means a value differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path("tests") / "data" / "trace_digests.json"
WIRE = Path("tests") / "data" / "wire_digests.json"
REPLAY = Path("perfbench") / "replay.json"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_ref(ref: str, dest: Path):
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"repin: git archive {ref} failed")


def copy_working_tree(dest: Path):
    """Tracked and untracked files that git does not ignore, as they are
    on disk now."""
    for name in git("ls-files", "-z", "-co", "--exclude-standard").split(
            "\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_scenarios(tree: Path, runs: dict, out: Path) -> dict:
    """``{run: (trace lines, stats, trace bytes, stats bytes)}``, or an
    error string for a run that did not exit 0."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = {}
    for i, (name, entry) in enumerate(sorted(runs.items())):
        trace, stats = out / f"{i}.trace", out / f"{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "modnet.cli", "run",
             str(tree / "scenarios" / entry["scenario"]), "--trace",
             str(trace), "--stats", str(stats), *entry["args"]],
            cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode:
            results[name] = f"exit {proc.returncode}: {proc.stderr.strip()}"
            continue
        raw_trace, raw_stats = trace.read_bytes(), stats.read_bytes()
        results[name] = (raw_trace.decode().splitlines(),
                         json.loads(raw_stats), raw_trace, raw_stats)
    return results


def flatten(value, prefix="") -> dict:
    if isinstance(value, dict) and value:
        flat = {}
        for key, item in value.items():
            flat.update(flatten(item, f"{prefix}{key}."))
        return flat
    return {prefix.rstrip("."): value}


def trace_differences(old: list, new: list):
    """One line per differing trace line: its number and the fields that
    differ, or the whole lines when they do not pair up field by field."""
    for n, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        fa, fb = a.split(), b.split()
        keys = [f.partition("=")[0] for f in fa]
        if keys != [f.partition("=")[0] for f in fb]:
            yield f"line {n}: {a!r} -> {b!r}"
        else:
            yield f"line {n}: " + ", ".join(
                f"{x} -> {y}" for x, y in zip(fa, fb) if x != y)
    for n, line in enumerate(old[len(new):], len(new) + 1):
        yield f"line {n}: {line!r} -> (none)"
    for n, line in enumerate(new[len(old):], len(old) + 1):
        yield f"line {n}: (none) -> {line!r}"


def mapping_differences(old: dict, new: dict):
    missing = "(none)"
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, missing), new.get(key, missing)
        if a != b:
            yield f"{key}: {a!r} -> {b!r}"


def write_pinned(path: Path, runs: dict):
    """Set the fields ``runs`` gives each run in the pinned file ``path``,
    keeping the file's ``_about`` and each run's other fields."""
    pinned = json.loads((ROOT / path).read_text())
    for name, fields in runs.items():
        pinned["runs"].setdefault(name, {}).update(fields)
    (ROOT / path).write_text(json.dumps(pinned, indent=2, sort_keys=True)
                             + "\n")
    print(f"repin: wrote {len(runs)} runs to {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", metavar="REF",
                    help="git revision to compare with (default HEAD)")
    ap.add_argument("--write", action="store_true",
                    help="rewrite tests/data/trace_digests.json with the "
                         "working tree's digests")
    ap.add_argument("--write-wire", action="store_true",
                    help="rewrite tests/data/wire_digests.json with the "
                         "working tree's wire digests")
    args = ap.parse_args(argv)
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    digests = json.loads((ROOT / DIGESTS).read_text())
    print(f"repin: {args.base} ({base[:12]}) -> working tree")
    groups = dict.fromkeys(("wire", "trace", "stats", "replay", "run"), 0)

    def report(group, line):
        groups[group] += 1
        print(f"{group} {line}")

    with tempfile.TemporaryDirectory(prefix="repin-") as tmp:
        trees = {"base": Path(tmp) / "base", "work": Path(tmp) / "work"}
        for side, tree in trees.items():
            (Path(tmp) / f"{side}-out").mkdir()
            tree.mkdir()
        export_ref(base, trees["base"])
        copy_working_tree(trees["work"])
        replays = {side: subprocess.Popen(
            [sys.executable, str(REPLAY.parent / "replay.py"), "--write"],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for side, tree in trees.items()}
        old, new = (run_scenarios(tree, digests["runs"],
                                  Path(tmp) / f"{side}-out")
                    for side, tree in trees.items())
        for name in sorted(digests["runs"]):
            a, b = old[name], new[name]
            if isinstance(a, str) or isinstance(b, str):
                report("run", f"{name}: base "
                       f"{a if isinstance(a, str) else 'ok'}, work "
                       f"{b if isinstance(b, str) else 'ok'}")
                continue
            for line in trace_differences(a[0], b[0]):
                report("trace", f"{name} {line}")
            for line in mapping_differences(flatten(a[1]), flatten(b[1])):
                report("stats", f"{name} {line}")
        wire = {}
        for side, tree in trees.items():
            proc = subprocess.run(
                [sys.executable, str(trees["work"] / "tests" / "wire.py"),
                 "--scenarios", str(tree / "scenarios")],
                cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"repin: tests/wire.py failed in the {side} "
                         f"tree:\n{proc.stderr}")
            wire[side] = json.loads(proc.stdout)["runs"]
        for line in mapping_differences(flatten(wire["base"]),
                                        flatten(wire["work"])):
            report("wire", line)
        recorded = {}
        for side, proc in replays.items():
            _, err = proc.communicate()
            if proc.returncode:
                sys.exit(f"repin: replay.py --write failed in the {side} "
                         f"tree:\n{err}")
            recorded[side] = json.loads((trees[side] / REPLAY).read_text())
        for key in sorted(recorded["base"].keys() | recorded["work"].keys()):
            for line in mapping_differences(recorded["base"].get(key, {}),
                                            recorded["work"].get(key, {})):
                report("replay", f"{key} {line}")
        if args.write:
            failed = [name for name, r in new.items() if isinstance(r, str)]
            if failed:
                sys.exit(f"repin: not written, runs failed: {failed}")
            write_pinned(DIGESTS, {
                name: {"trace": hashlib.sha256(r[2]).hexdigest(),
                       "stats": hashlib.sha256(r[3]).hexdigest()}
                for name, r in new.items()})
        if args.write_wire:
            write_pinned(WIRE, wire["work"])
    differences = sum(groups.values())
    print(f"repin: {differences} difference(s): " + ", ".join(
        f"{group} {count}" for group, count in groups.items()))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
