#!/usr/bin/env python3
"""Compare the suite tables of two checkouts, byte for byte.

    python3 scripts/compare_outputs.py PARENT CHANGE

Each checkout's own `scripts/run_suite.py` runs in a fresh temporary
directory with `PYTHONPATH=<checkout>/src` (and `TMPDIR` inside it, so
config copies that an older suite leaves behind go away with it).  The two `out/suite` trees
are then compared file by file, skipping each CSV's leading timestamp
comment.  Every differing line is printed with its file, and so is every
file that only one side wrote.  Exit status is 1 on any difference, a
missing file or a different suite exit status, else 0.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_suite(checkout: Path, work: Path) -> int:
    """Run `checkout`'s suite with `work` as its working directory."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), TMPDIR=str(work))
    done = subprocess.run(
        [sys.executable, str(checkout / "scripts" / "run_suite.py")],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
    )
    return done.returncode


def body(path: Path) -> list[str]:
    """The file's lines, without a CSV's leading timestamp comment."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv" and lines and lines[0].startswith("# "):
        return lines[1:]
    return lines


def compare(old: Path, new: Path) -> int:
    """Print each difference between two trees; return how many."""
    names = sorted(
        {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
        | {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    )
    found = 0
    for name in names:
        if not (old / name).is_file() or not (new / name).is_file():
            side = "parent" if not (old / name).is_file() else "change"
            print(f"{name}: missing in {side}")
            found += 1
            continue
        diff = difflib.unified_diff(
            body(old / name), body(new / name), lineterm="", n=0
        )
        for line in diff:
            if line[:1] in "-+" and line[:3] not in ("---", "+++"):
                print(f"{name}: {line}")
                found += 1
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        codes = [run_suite(parent, Path(a)), run_suite(change, Path(b))]
        found = compare(Path(a) / "out" / "suite", Path(b) / "out" / "suite")
    if codes[0] != codes[1]:
        print(f"suite exit status: parent {codes[0]}, change {codes[1]}")
        found += 1
    print(f"{found} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
