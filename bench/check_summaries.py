#!/usr/bin/env python3
"""Checks the bench summaries a run just wrote against the committed ones.

Run from the repository root after the benches have rewritten their
BENCH_*.json files:

    python3 bench/check_summaries.py [DIR]

Each BENCH_*.json committed at HEAD (read with `git show HEAD:<file>`) is
compared with DIR/<file> (DIR defaults to the current directory). Every
value whose clock is "virtual" is deterministic and must be present with
the same value; a virtual value that differs, is missing, or is new fails
the check and is named. Host (wall-clock) values and gate verdicts are not
compared. Exits 1 on any difference.
"""
import json
import os
import subprocess
import sys


def virtual_values(doc):
    return {k: v["value"] for k, v in doc["values"].items()
            if v["clock"] == "virtual"}


def compare(committed, fresh):
    """Returns one line per virtual value that differs between the two."""
    old, new = virtual_values(committed), virtual_values(fresh)
    problems = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            problems.append(f"{key}: missing (committed {old[key]!r})")
        elif key not in old:
            problems.append(f"{key}: not in the committed summary "
                            f"(now {new[key]!r})")
        elif old[key] != new[key]:
            problems.append(f"{key}: committed {old[key]!r}, now {new[key]!r}")
    return problems


def main():
    fresh_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", "HEAD"], check=True,
        capture_output=True, text=True).stdout.split()
    names = [n for n in names if n.startswith("BENCH_") and n.endswith(".json")]
    failed = False
    for name in names:
        committed = json.loads(subprocess.run(
            ["git", "show", f"HEAD:{name}"], check=True,
            capture_output=True, text=True).stdout)
        path = os.path.join(fresh_dir, name)
        if not os.path.exists(path):
            print(f"FAIL {name}: the run wrote no {path}")
            failed = True
            continue
        with open(path) as f:
            problems = compare(committed, json.load(f))
        for p in problems:
            print(f"FAIL {name}: {p}")
        failed = failed or bool(problems)
        if not problems:
            print(f"ok   {name}: {len(virtual_values(committed))} virtual "
                  "values match")
    if not names:
        print("FAIL: no BENCH_*.json is committed")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
