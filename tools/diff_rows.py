#!/usr/bin/env python3
"""Check that every simulated row value of reference artifacts
reappears unchanged in a pvsim artifact.

    diff_rows.py NEW.json OLD.json...

NEW and every OLD are `pvsim run --json-out` artifacts, matched
scenario by scenario and row by row. Host fields (wall time,
records/s, worker counts) are skipped. `events` counts the
simulator's callbacks, not anything in the modelled machine, so it
is reported (old -> new and the ratio, for every row) instead of
compared. Every other field must be exactly equal. Exit 1 on any
mismatch.
"""

import json
import sys

HOST = {"wall_seconds", "records_per_sec", "jobs_effective"}
# Reported, never compared: a simulator change may do the same
# simulation with fewer callbacks.
DIAGNOSTIC = {"events"}


def load(path):
    with open(path) as f:
        return json.load(f)


def differing(old, new):
    return [k for k, v in old.items()
            if k not in HOST and k not in DIAGNOSTIC and new.get(k) != v]


def report_events(path, label, old, new):
    if "events" not in old or "events" not in new:
        return
    o, n = old["events"], new["events"]
    ratio = f"{n / o:.3f}" if o else "n/a"
    print(f"events {path}: {label}: {o} -> {n} (x{ratio})")


def expectations(old, new):
    """(label, old row, NEW row or None) for every row old records."""
    by_name = {sc["name"]: sc for sc in new["scenarios"]}
    for sc in old["scenarios"]:
        mine = by_name.get(sc["name"], {"rows": []})["rows"]
        for i, row in enumerate(sc["rows"]):
            yield (f"{sc['name']} row {i}", row,
                   mine[i] if i < len(mine) else None)


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    new = load(sys.argv[1])
    compared, failures, added = 0, 0, set()
    for path in sys.argv[2:]:
        for label, row, match in expectations(load(path), new):
            compared += 1
            diff = (differing(row, match) if match is not None
                    else "no NEW row")
            if diff:
                failures += 1
                print(f"MISMATCH {path}: {label}: {diff}")
            else:
                added |= match.keys() - row.keys()
                report_events(path, label, row, match)
    if added:
        print(f"fields only in NEW rows: {', '.join(sorted(added))}")
    print(f"diff_rows: {compared} rows compared, {failures} mismatched")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
