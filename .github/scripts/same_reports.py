"""Compare two JSON report lists (``repro sweep --output``) row for row.

Usage: ``python .github/scripts/same_reports.py A.json B.json``

Each row is a ``RunReport`` dict. ``wall_time_s`` is dropped from every
row, because it is the one field a rerun may change; the rest of each
row must render to the same sorted-key JSON. Exits 1 naming the first
differing row's index and ``cache_key`` (or the two row counts when they
differ), and otherwise prints the number of equal rows. Standard
library only.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)
    for row in rows:
        row.pop("wall_time_s", None)
    return [(row, json.dumps(row, sort_keys=True)) for row in rows]


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} A.json B.json", file=sys.stderr)
        return 2
    first, second = load(argv[1]), load(argv[2])
    if len(first) != len(second):
        print(
            f"{argv[1]} has {len(first)} rows, {argv[2]} has {len(second)}",
            file=sys.stderr,
        )
        return 1
    for index, ((row, a), (_, b)) in enumerate(zip(first, second)):
        if a != b:
            print(
                f"row {index} differs (cache_key {row.get('cache_key')}) "
                f"between {argv[1]} and {argv[2]}",
                file=sys.stderr,
            )
            return 1
    print(f"{len(first)} reports equal in {argv[1]} and {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
