#!/usr/bin/env python3
"""Check that every simulated row value of reference artifacts
reappears unchanged in a pvsim artifact.

    diff_rows.py NEW.json OLD.json...

NEW is a `pvsim run --json-out` artifact. An OLD pvsim artifact is
matched scenario by scenario and row by row. An OLD single-sweep
artifact (top-level "rows", optional "prefetch" off/on sides of the
virtualized BTB and "heterogeneous" runs and clusters) is matched row
by row against every NEW row of the same kind and key. Host fields
(wall time, records/s, worker counts) are skipped. `events` counts
the simulator's callbacks, not anything in the modelled machine, so
it is reported (old -> new and the ratio, for every row) instead of
compared. Every other field must be exactly equal. Exit 1 on any
mismatch.
"""

import json
import sys

HOST = {"wall_seconds", "records_per_sec", "jobs_effective"}
# Reported, never compared: a simulator change may do the same
# simulation with fewer callbacks.
DIAGNOSTIC = {"events"}
# A prefetch side's fields under their fig9 row names.
PREFETCH_SIDE = {
    "ipc": "virtualized_ipc",
    "avail_redirect_pct": "virtualized_avail_redirect_pct",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def key(row):
    return tuple(row.get(k) for k in
                 ("mix", "edge_stability", "setting", "cluster"))


def differing(old, new, rename):
    return [k for k, v in old.items()
            if k not in HOST and k not in DIAGNOSTIC
            and new.get(rename.get(k, k)) != v]


def report_events(path, label, old, new):
    if "events" not in old or "events" not in new:
        return
    o, n = old["events"], new["events"]
    ratio = f"{n / o:.3f}" if o else "n/a"
    print(f"events {path}: {label}: {o} -> {n} (x{ratio})")


def expectations(old, new):
    """(label, old row, candidate NEW rows, field renames) for every
    row old records."""
    if "scenarios" in old:
        by_name = {sc["name"]: sc for sc in new["scenarios"]}
        for sc in old["scenarios"]:
            mine = by_name.get(sc["name"], {"rows": []})
            for i, row in enumerate(sc["rows"]):
                yield (f"{sc['name']} row {i}", row,
                       mine["rows"][i:i + 1], {})
            for side in ("reference", "protected"):
                if side in sc:
                    yield (f"{sc['name']} {side}", sc[side],
                           [mine.get(side, {})], {})
        return
    rows = [r for sc in new["scenarios"] for r in sc["rows"]]
    for row in old["rows"]:
        yield (f"row {key(row)}", row,
               [r for r in rows if key(r) == key(row)], {})
    pf = old.get("prefetch")
    if pf:
        mixed = [r for r in rows if r.get("mix") == pf["mix"]]
        for side in ("off", "on"):
            yield f"prefetch {side}", pf[side], mixed, PREFETCH_SIDE
    het = old.get("heterogeneous")
    if het:
        hets = [sc for sc in new["scenarios"]
                if sc["kind"] == "qos_hetero"]
        for side in ("reference", "protected"):
            yield (f"heterogeneous {side}", het[side],
                   [sc[side] for sc in hets], {})
        for c in het["clusters"]:
            yield (f"cluster {c['cluster']}", c,
                   [r for sc in hets for r in sc["rows"]], {})


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    new = load(sys.argv[1])
    compared, failures, added = 0, 0, set()
    for path in sys.argv[2:]:
        for label, row, candidates, rename in expectations(load(path),
                                                           new):
            compared += 1
            match = next((c for c in candidates
                          if not differing(row, c, rename)), None)
            if match is None:
                failures += 1
                diff = (differing(row, candidates[0], rename)
                        if candidates else "no candidate row")
                print(f"MISMATCH {path}: {label}: {diff}")
            elif not rename:
                added |= match.keys() - row.keys()
                report_events(path, label, row, match)
    if added:
        print(f"fields only in NEW rows: {', '.join(sorted(added))}")
    print(f"diff_rows: {compared} rows compared, {failures} mismatched")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
