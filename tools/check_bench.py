#!/usr/bin/env python3
"""Bench-regression gate over `pvsim run` artifacts.

Every sweep artifact is a `pvsim run` of fingerprinted scenarios
(BENCH_fig9.json is `pvsim run scenarios/bench/fig9`), so one pass
gates them all. Invariants, on every scenario of every artifact:

  - no scenario failed, and every IPC (`ipc`, `*_ipc`) is > 0;
  - fig9: dedicated hit rate >= 60% wherever edge stability >= 0.9;
  - qos: the first (baseline) setting has availability redirects,
    and the best setting protects the BTB by >= 10%;
  - qos_hetero: 4 cluster rows and the reference and protected run
    rows, BTB hits in every cluster, protection > 0 in a protected
    cluster;
  - a fig9 scenario `X-prefetch` and its `X` share a `mixed` row,
    on which the prefetch-on virtualized availability-redirect rate
    is strictly below the off side's, prefetch fills are > 0, and
    the on/off virtualized IPC change is >= -3%;
  - the paper ledger (tools/paper_anchors.json) on the scenario it
    names: every claim's measured value is printed next to the
    paper's with the signed gap, and a shape claim (an ordering or
    a ratio) fails the gate when it no longer holds, or no longer
    fails, as recorded. Magnitude claims (absolute values) are
    printed, never gated.

Every row is text fields, then values (one schema for every kind).
--baseline matches rows to a committed artifact by scenario name,
fingerprint and row key (figure/workload/config, cluster, setting,
run, or mix@edge_stability). A fingerprint
mismatch or a scenario on one side only fails: re-record the
baseline with
  PVSIM_JOBS=4 pvsim run scenarios \\
      --json-out tools/baselines/PVSIM_scenarios.smoke.json
Field rule: diff_rows.py's. The runs are deterministic for a tree, so
every simulated field must equal the baseline's exactly; host fields
(wall time, records/s, worker counts) are skipped, and `events` is
reported old -> new. Records/s is printed against the baseline,
never gated.
"""

import argparse
import json
import os
import sys

from diff_rows import differing, report_events

ANCHORS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "paper_anchors.json")


def load(path):
    with open(path) as f:
        return json.load(f)


class Gate:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def check(self, ok, msg):
        self.checks += 1
        if not ok:
            self.failures.append(msg)
            print(f"FAIL: {msg}")
        return ok


def is_ipc(field):
    return field == "ipc" or field.endswith("_ipc")


def row_key(row):
    if "figure" in row:
        return f"{row['figure']}/{row['workload']}/{row['config']}"
    for field in ("cluster", "setting", "run"):
        if field in row:
            return row[field]
    if "mix" in row:
        return f"{row['mix']}@{round(row['edge_stability'], 6)}"
    return "run"


def keyed_rows(sc):
    """A scenario's rows by key."""
    return {row_key(row): row for row in sc["rows"]}


def load_artifacts(gate, paths):
    """Every scenario of the artifacts at paths, by name."""
    scenarios = {}
    for path in paths:
        art = load(path)
        gate.check(art.get("failed") == 0 and art.get("scenarios"),
                   f"{path}: not a clean pvsim artifact")
        for sc in art.get("scenarios", []):
            name = sc["name"]
            gate.check(name not in scenarios,
                       f"{path}: scenario {name} given twice")
            gate.check(len(keyed_rows(sc)) == len(sc["rows"]),
                       f"{path}: {name} repeats a row key")
            scenarios[name] = sc
    return scenarios


def check_invariants(gate, scenarios):
    for name, sc in sorted(scenarios.items()):
        rows = sc["rows"]
        for key, row in keyed_rows(sc).items():
            for field, v in row.items():
                if is_ipc(field):
                    gate.check(v > 0, f"{name} {key}: {field} {v}")
        if sc["kind"] == "fig9":
            for r in rows:
                gate.check(r["edge_stability"] < 0.9 or
                           r["dedicated_hit_pct"] >= 60.0,
                           f"{name} {row_key(r)}: dedicated hit rate "
                           f"{r['dedicated_hit_pct']:.1f}% < 60% — "
                           f"the branch stream is no longer learnable")
            if name.endswith("-prefetch"):
                check_prefetch_pair(gate, scenarios, name)
        elif sc["kind"] == "qos":
            gate.check(rows and rows[0]["avail_redirect_pct"] > 0,
                       f"{name}: no availability redirects at the "
                       f"baseline setting — nothing to protect")
            best = max((r["avail_improvement_pct"] for r in rows),
                       default=0.0)
            gate.check(best >= 10.0,
                       f"{name}: best protection {best:.1f}% < 10%")
        elif sc["kind"] == "qos_hetero":
            clusters = [r for r in rows if "cluster" in r]
            runs = [r["run"] for r in rows if "run" in r]
            gate.check(len(clusters) == 4 and
                       runs == ["reference", "protected"],
                       f"{name}: want 4 clusters and both runs")
            for c in clusters:
                gate.check(c["btb_hit_pct"] > 0,
                           f"{name} {c['cluster']}: no BTB hits")
            best = max((c["avail_improvement_pct"] for c in clusters
                        if c["btb_weight"] > c["aggressor_weight"]
                        or c["contract"] == "equal+floor"),
                       default=0.0)
            gate.check(best > 0.0, f"{name}: no protected cluster "
                                   f"improves ({best:.1f}%)")


def check_prefetch_pair(gate, scenarios, name):
    off_name = name[: -len("-prefetch")]
    if not gate.check(off_name in scenarios,
                      f"{name}: its off side {off_name} is missing"):
        return
    off_rows = keyed_rows(scenarios[off_name])
    pairs = [(key, on, off_rows[key])
             for key, on in keyed_rows(scenarios[name]).items()
             if on["mix"] == "mixed" and key in off_rows]
    gate.check(pairs, f"{name}: no mixed row shared with {off_name}")
    for key, on, off in pairs:
        label = f"prefetch {off_name} -> {name} {key}"
        off_r = off["virtualized_avail_redirect_pct"]
        on_r = on["virtualized_avail_redirect_pct"]
        change = 100.0 * (on["virtualized_ipc"] /
                          off["virtualized_ipc"] - 1.0)
        print(f"{label}: redirects {off_r:.2f}% -> {on_r:.2f}%, "
              f"IPC {change:+.2f}%, fills {on['prefetch_fills']}, "
              f"victim hits {on['victim_hits']}")
        gate.check(on_r < off_r, f"{label}: on-side redirects not "
                                 f"strictly below off-side")
        gate.check(on["prefetch_fills"] > 0,
                   f"{label}: the stride detector never fired")
        gate.check(change >= -3.0,
                   f"{label}: IPC change {change:+.2f}% below -3%")


# ---- The paper ledger ------------------------------------------------

# Rows that are not one workload's: a figure's mean, or a
# workload-independent table.
AGGREGATE = {"average", "all"}


def select(rows, figure, pattern):
    """A claim's rows: `workload/config`, `*` = every workload."""
    workload, config = pattern.split("/", 1)
    return [r for r in rows if r["figure"] == figure and
            r["config"] == config and
            (r["workload"] == workload if workload != "*"
             else r["workload"] not in AGGREGATE)]


def one(rows, figure, pattern, field):
    found = select(rows, figure, pattern)
    if len(found) != 1 or field not in found[0]:
        raise KeyError(f"no single {figure}/{pattern} row with {field}")
    return found[0][field]


def measure(claim, rows):
    """(value, detail) of a claim over a paper scenario's rows."""
    fig, field, pats = claim["figure"], claim["field"], claim["rows"]
    kind = claim["measure"]
    if kind == "value":
        return one(rows, fig, pats[0], field), pats[0]
    if kind == "ratio":
        a, b = (one(rows, fig, p, field) for p in pats)
        return a / b, f"{a:.4g} / {b:.4g}"
    if kind in ("max", "min", "mean"):
        found = select(rows, fig, pats[0])
        if not found:
            raise KeyError(f"no {fig}/{pats[0]} rows")
        vals = {r["workload"]: r[field] for r in found}
        if kind == "mean":
            return sum(vals.values()) / len(vals), f"{len(vals)} rows"
        pick = (max if kind == "max" else min)(vals, key=vals.get)
        return vals[pick], pick
    if kind == "falls":
        # Smallest drop between successive configs, over workloads:
        # > 0 means the value falls along `rows` on every workload.
        series = {}
        for p in pats:
            for r in select(rows, fig, p):
                series.setdefault(r["workload"], []).append(r[field])
        series = {w: v for w, v in series.items() if len(v) == len(pats)}
        if not series:
            raise KeyError(f"no workload has every {fig} {pats} row")
        drops = [(v[i] - v[i + 1], w, i) for w, v in series.items()
                 for i in range(len(v) - 1)]
        d, w, i = min(drops)
        return d, (f"{len(series)} workloads, smallest drop {w} "
                   f"{pats[i].split('/')[1]} -> "
                   f"{pats[i + 1].split('/')[1]}")
    if kind == "lowest":
        # Margin of the first row below the lowest other workload:
        # > 0 means it is the lowest.
        target = one(rows, fig, pats[0], field)
        name = pats[0].split("/")[0]
        others = {r["workload"]: r[field] for r in select(rows, fig, pats[1])
                  if r["workload"] != name}
        if not others:
            raise KeyError(f"no {fig}/{pats[1]} rows besides {name}")
        nxt = min(others, key=others.get)
        return others[nxt] - target, f"{name} {target:.4g}, next {nxt} " \
                                     f"{others[nxt]:.4g}"
    raise KeyError(f"unknown measure {kind!r}")


def gap(value, paper):
    """Signed distance from the paper's value, or from its range
    ([low, high], null = open): 0 inside the range."""
    if paper is None:
        return None
    if isinstance(paper, list):
        lo, hi = paper
        if lo is not None and value < lo:
            return value - lo
        if hi is not None and value > hi:
            return value - hi
        return 0.0
    return value - paper


def holds(value, test):
    (op, bound), = test.items()
    return {"at_least": value >= bound, "above": value > bound,
            "below": value < bound}[op]


def fmt(v):
    return "-" if v is None else f"{v:+.4g}" if v else "0"


def check_anchors(gate, scenarios, path=ANCHORS):
    ledger = load(path)
    sc = scenarios.get(ledger["scenario"])
    if sc is None:
        return
    rows = sc["rows"]
    print(f"paper ledger {os.path.basename(path)} on {sc['name']}:")
    for c in ledger["claims"]:
        label = f"anchor {c['id']} [{c['figure']} {c['class']}]"
        try:
            value, detail = measure(c, rows)
        except (KeyError, ZeroDivisionError) as e:
            gate.check(False, f"{label}: cannot evaluate: {e}")
            continue
        paper = c.get("paper")
        line = (f"{label}: measured {value:.5g} ({detail}), paper "
                f"{json.dumps(paper)}, gap {fmt(gap(value, paper))}")
        if c["class"] == "magnitude":
            print(line)
            continue
        truth = holds(value, c["holds_if"])
        word = {True: "holds", False: "fails"}
        print(f"{line}, {word[truth]} {json.dumps(c['holds_if'])}")
        gate.check(truth == c["holds"],
                   f"{label}: the claim now {word[truth]}, recorded as "
                   f"{'holding' if c['holds'] else 'failing'} — fix "
                   f"the model, or re-record the claim and say why")


def check_baseline(gate, scenarios, path):
    base = {sc["name"]: sc for sc in load(path)["scenarios"]}
    gate.check(base.keys() == scenarios.keys(),
               f"scenarios only in the baseline "
               f"{sorted(base.keys() - scenarios.keys())}, only in "
               f"the artifacts {sorted(scenarios.keys() - base.keys())}"
               f" — re-record the baseline")
    for name in sorted(base.keys() & scenarios.keys()):
        b, c = base[name], scenarios[name]
        if not gate.check(b["fingerprint"] == c["fingerprint"],
                          f"{name}: fingerprint {c['fingerprint']} != "
                          f"baseline {b['fingerprint']} — re-record "
                          f"the baseline"):
            continue
        b_rows, c_rows = keyed_rows(b), keyed_rows(c)
        gate.check(b_rows.keys() == c_rows.keys(),
                   f"{name}: rows {sorted(c_rows)} != baseline "
                   f"{sorted(b_rows)}")
        for key in sorted(b_rows.keys() & c_rows.keys()):
            label = f"{name} {key}"
            cur, old = c_rows[key], b_rows[key]
            rate = cur.get("records_per_sec")
            if rate is not None and old.get("records_per_sec"):
                delta = 100.0 * (rate / old["records_per_sec"] - 1.0)
                print(f"{label}: {rate:,.0f} records/s "
                      f"({delta:+.1f}% vs baseline)")
            moved = differing(old, cur)
            if gate.check(not moved,
                          f"{label}: " + ", ".join(
                              f"{f} {old[f]} -> {cur.get(f)}"
                              for f in moved) +
                          " — a simulated value moved: fix it, or "
                          "re-record the baseline and say why"):
                report_events(path, label, old, cur)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("artifacts", nargs="+",
                    help="pvsim run artifacts (--json-out) to gate")
    ap.add_argument("--baseline", help="committed pvsim artifact the "
                    "artifacts' rows must reproduce")
    args = ap.parse_args()

    gate = Gate()
    scenarios = load_artifacts(gate, args.artifacts)
    check_invariants(gate, scenarios)
    check_anchors(gate, scenarios)
    if args.baseline:
        check_baseline(gate, scenarios, args.baseline)

    if gate.failures:
        print(f"check_bench: {len(gate.failures)} of {gate.checks} "
              f"checks FAILED")
        return 1
    print(f"check_bench: all {gate.checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
