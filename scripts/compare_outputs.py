#!/usr/bin/env python3
"""Compare the suite tables of two checkouts, byte for byte.

    python3 scripts/compare_outputs.py PARENT CHANGE

Each checkout's own `scripts/run_suite.py` runs in a fresh temporary
directory with `PYTHONPATH=<checkout>/src` (and `TMPDIR` inside it, so
config copies that an older suite leaves behind go away with it).  The two `out/suite` trees
are then compared file by file, skipping each CSV's leading timestamp
comment.  Every differing line is printed with its file, and so is every
file that only one side wrote.  After the count it prints the largest
relative change |new - old| / max(|old|, |new|) of any number on a
differing line pair (a line replaced by one line that differs from it
only in its numbers), with its file and both values, and how many
differing lines are not such a numeric change.  Two values both below
NOISE_FLOOR in magnitude are zeros at roundoff level, not a move, and
are never named.  Exit status is 1 on any difference, a missing file or
a different suite exit status, else 0.
"""

from __future__ import annotations

import difflib
import os
import re
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


# a decimal number, as the tables print them, or nan / inf
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
# below this magnitude a table value is roundoff around zero, such as a
# span error of 1e-34
NOISE_FLOOR = 1e-30


def compare(old: Path, new: Path) -> tuple[int, list]:
    """Print each difference between two trees; return how many, and each
    line replaced one for one as (file, old line, new line)."""
    names = sorted(
        {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
        | {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    )
    found, pairs = 0, []
    for name in names:
        if not (old / name).is_file() or not (new / name).is_file():
            side = "parent" if not (old / name).is_file() else "change"
            print(f"{name}: missing in {side}")
            found += 1
            continue
        a, b = body(old / name), body(new / name)
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b).get_opcodes():
            if tag == "equal":
                continue
            for line in a[i1:i2]:
                print(f"{name}: -{line}")
            for line in b[j1:j2]:
                print(f"{name}: +{line}")
            found += (i2 - i1) + (j2 - j1)
            if i2 - i1 == j2 - j1:
                pairs.extend((str(name), x, y) for x, y in zip(a[i1:i2], b[j1:j2]))
    return found, pairs


def largest_change(pairs: list) -> tuple[tuple | None, int]:
    """The (relative change, file, old, new) of the number that moved most
    over the line pairs that differ only in their numbers, and how many
    pairs do.  Values both below NOISE_FLOOR in magnitude are skipped."""
    best, numeric = None, 0
    for name, x, y in pairs:
        xs, ys = NUMBER.findall(x), NUMBER.findall(y)
        if NUMBER.sub("#", x) != NUMBER.sub("#", y) or len(xs) != len(ys):
            continue
        numeric += 1
        for u, v in zip(xs, ys):
            fu, fv = float(u), float(v)
            scale = max(abs(fu), abs(fv))
            if scale < NOISE_FLOOR:
                continue
            rel = abs(fu - fv) / scale
            if u != v and (best is None or rel > best[0]):
                best = (rel, name, u, v)
    return best, numeric


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        codes = [run_suite(parent, Path(a)), run_suite(change, Path(b))]
        found, pairs = compare(Path(a) / "out" / "suite", Path(b) / "out" / "suite")
    if codes[0] != codes[1]:
        print(f"suite exit status: parent {codes[0]}, change {codes[1]}")
        found += 1
    print(f"{found} difference(s)")
    best, numeric = largest_change(pairs)
    if best is not None:
        rel, name, u, v = best
        print(f"largest relative change {rel:.3g}: {name}: {u} -> {v}")
    print(f"{found - 2 * numeric} differing line(s) not a numeric change")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
