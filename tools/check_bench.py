#!/usr/bin/env python3
"""Bench-regression gate for the CI smoke runs.

Compares freshly produced BENCH_*.json artifacts against the
committed baselines in tools/baselines/ with a tolerance band, and
fails (exit 1) on drift — so a PR that silently degrades the
dedicated-vs-virtualized deltas, the stepping harness, or the QoS
protection result breaks the build instead of only uploading a
different artifact.

What is gated, and why these tolerances:

* fig9 (BENCH_fig9.json): per-(mix, stability) row, the
  dedicated-vs-virtualized speedup delta must stay within
  --fig9-tol-pp percentage points of the baseline, hit rates within
  --hit-tol-pp, and IPCs within --ipc-rel-tol relative. The smoke
  run is deterministic for a given source tree (fixed seeds,
  matched pairs), so the band only needs to absorb
  compiler/platform floating-point wiggle.
* stepping (BENCH_stepping.json): the threaded harness must report
  bit_identical=true (the correctness property), every throughput
  must be positive, and the structural speedups that PRs 2/4 bought
  (bulk-fread trace replay, pooled payload allocation) must not
  collapse; wall-clock noise on shared CI runners is absorbed by
  generous floors on the *ratios*, never on absolute rates.
* qos (BENCH_qos.json): per-setting row, availability-redirect and
  protection percentages within --hit-tol-pp of the baseline, and
  the best protection across settings must stay positive — the
  experiment's reason to exist.
* fig9 prefetch section: the PVCache locality prefetch comparison
  (off-vs-on matched pair on the mixed preset) is gated within the
  fresh artifact itself, so it is host-independent: the prefetch-on
  side's availability-redirect rate must land strictly below the
  prefetch-off side's (the mechanism's reason to exist), the
  detector must actually have fired (nonzero prefetch fills), and
  the matched-seed IPC delta must not fall below
  --prefetch-ipc-tol-pp percent — locality prefetch is allowed to
  be IPC-neutral, never an IPC tax.
* simulator throughput: every fig9/qos row carries records_per_sec
  (measured trace records, summed over cores, per measure-phase
  wall second). It depends on the host, so it is printed with its
  delta against the committed baseline rather than gated.
* scenarios (--pvsim + --scenarios): the committed scenario corpus
  must pass `pvsim validate` (strict parse, unknown-key rejection,
  round-trip stability) and every file's fingerprint must match the
  committed scenarios/MANIFEST.json — a scenario edit without a
  manifest refresh (or a serialization change that silently moves
  canonical forms) fails the build. Regenerate with:
      pvsim fingerprint scenarios --json > scenarios/MANIFEST.json

Usage (CI runs this from build-release/):
  check_bench.py --baseline-dir ../tools/baselines \
      --fig9 BENCH_fig9.json --stepping BENCH_stepping.json \
      --qos BENCH_qos.json \
      --pvsim ./pvsim --scenarios ../scenarios \
      --scenario-manifest ../scenarios/MANIFEST.json
Any artifact flag may be omitted to skip that gate.
"""

import argparse
import json
import subprocess
import sys


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

    def close(self, band, tol, label):
        self.check(
            abs(band) <= tol,
            f"{label}: drift {band:+.4f} exceeds tolerance {tol}",
        )


def check_fig9(gate, current, baseline, tol_pp, hit_tol_pp, ipc_rel):
    base_rows = {
        (r["mix"], round(r["edge_stability"], 6)): r
        for r in baseline["rows"]
    }
    cur_rows = {
        (r["mix"], round(r["edge_stability"], 6)): r
        for r in current["rows"]
    }
    gate.check(
        set(base_rows) <= set(cur_rows),
        f"fig9: rows missing vs baseline: "
        f"{sorted(set(base_rows) - set(cur_rows))}",
    )
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            continue
        label = f"fig9 {key[0]}@{key[1]}"
        print_throughput(label, cur, base)
        gate.close(
            cur["speedup_pct"] - base["speedup_pct"],
            tol_pp,
            f"{label} speedup_pct",
        )
        for field in ("dedicated_hit_pct", "virtualized_hit_pct"):
            gate.close(
                cur[field] - base[field], hit_tol_pp,
                f"{label} {field}",
            )
        for field in ("dedicated_ipc", "virtualized_ipc"):
            b = base[field]
            gate.check(b > 0, f"{label} baseline {field} is zero")
            if b > 0:
                gate.close(
                    cur[field] / b - 1.0, ipc_rel,
                    f"{label} {field} (relative)",
                )


def check_fig9_prefetch(gate, current, ipc_tol_pp):
    """Gate the PVCache locality-prefetch comparison within the
    fresh artifact (off vs on is a matched pair produced by the same
    host and tree, so no committed baseline is needed)."""
    pf = current.get("prefetch")
    gate.check(
        isinstance(pf, dict),
        "fig9: prefetch section missing from artifact",
    )
    if not isinstance(pf, dict):
        return
    off = pf.get("off", {})
    on = pf.get("on", {})
    label = (
        f"fig9 prefetch ({pf.get('mix', '?')}, depth "
        f"{pf.get('depth', '?')}, victims "
        f"{pf.get('victim_entries', '?')})"
    )
    for side, run in (("off", off), ("on", on)):
        gate.check(
            run.get("ipc", 0) > 0, f"{label}: {side} side zero IPC"
        )
    gate.check(
        on.get("prefetch_fills", 0) > 0,
        f"{label}: stride detector never fired "
        f"(zero prefetch fills on the on side)",
    )
    off_redir = off.get("avail_redirect_pct", 0.0)
    on_redir = on.get("avail_redirect_pct", 100.0)
    gate.check(
        on_redir < off_redir,
        f"{label}: on-side availability redirects "
        f"{on_redir:.2f}% not strictly below off-side "
        f"{off_redir:.2f}% — the prefetcher buys nothing",
    )
    ipc_delta = pf.get("ipc_delta_pct", 0.0)
    gate.check(
        ipc_delta >= -ipc_tol_pp,
        f"{label}: matched-seed IPC delta {ipc_delta:+.2f}% below "
        f"-{ipc_tol_pp}% — prefetch has become an IPC tax",
    )
    print(
        f"{label}: redirects {off_redir:.2f}% -> {on_redir:.2f}% "
        f"({pf.get('avail_improvement_pct', 0.0):+.1f}% relative), "
        f"ipc {ipc_delta:+.2f}%, fills {on.get('prefetch_fills', 0)}, "
        f"useful {on.get('prefetch_useful', 0)}, victim hits "
        f"{on.get('victim_hits', 0)}"
    )


def print_throughput(label, cur, base=None):
    """Print a row's records/sec, with its delta against the baseline
    row when the baseline carries the field (host-dependent, so it is
    reported, never gated)."""
    rate = cur.get("records_per_sec", 0.0)
    line = f"{label}: {rate:,.0f} records/s"
    base_rate = (base or {}).get("records_per_sec", 0.0)
    if base_rate > 0:
        line += f" ({100.0 * (rate / base_rate - 1.0):+.1f}% vs baseline)"
    print(line)


def check_stepping(gate, current):
    pair = current.get("harness_matched_pair", {})
    gate.check(
        pair.get("bit_identical") is True,
        "stepping: threaded harness no longer bit-identical",
    )
    for section, rates in current.items():
        if not isinstance(rates, dict):
            continue
        for field, value in rates.items():
            if field.endswith("_per_s"):
                gate.check(
                    isinstance(value, (int, float)) and value > 0,
                    f"stepping: {section}.{field} is not positive",
                )
    # Structural wins (same-process base/fast ratios, so stable on
    # noisy runners): bulk-fread replay bought ~2.5x, pooled
    # payloads ~3.3x. Gate well below the measured values — these
    # floors catch a regression to the pre-optimization path, not
    # run-to-run noise.
    floors = {"trace_file_replay": 1.3, "payload_alloc": 1.5}
    for section, floor in floors.items():
        speedup = current.get(section, {}).get("speedup", 0)
        gate.check(
            speedup >= floor,
            f"stepping: {section}.speedup {speedup:.2f} below "
            f"floor {floor} — structural optimization regressed",
        )


def check_qos(gate, current, baseline, hit_tol_pp):
    base_rows = {r["setting"]: r for r in baseline["rows"]}
    cur_rows = {r["setting"]: r for r in current["rows"]}
    gate.check(
        set(base_rows) <= set(cur_rows),
        f"qos: settings missing vs baseline: "
        f"{sorted(set(base_rows) - set(cur_rows))}",
    )
    for label, base in base_rows.items():
        cur = cur_rows.get(label)
        if cur is None:
            continue
        gate.check(
            cur["ipc"] > 0, f"qos {label}: zero IPC"
        )
        print_throughput(f"qos {label}", cur, base)
        for field in ("avail_redirect_pct", "avail_improvement_pct"):
            gate.close(
                cur[field] - base[field], hit_tol_pp,
                f"qos {label} {field}",
            )
    best = max(
        (r["avail_improvement_pct"] for r in current["rows"]),
        default=0.0,
    )
    gate.check(
        best > 0.0,
        f"qos: no setting protects the BTB (best {best:.1f}%)",
    )
    het = current.get("heterogeneous")
    base_het = baseline.get("heterogeneous", {})
    if isinstance(het, dict):
        clusters = het.get("clusters", [])
        gate.check(
            len(clusters) == 4,
            f"qos heterogeneous: expected 4 cluster rows, got "
            f"{len(clusters)}",
        )
        for side in ("reference", "protected"):
            run = het.get(side, {})
            gate.check(
                run.get("ipc", 0) > 0,
                f"qos heterogeneous {side}: zero IPC",
            )
            print_throughput(
                f"qos heterogeneous {side}", run, base_het.get(side)
            )
        for c in clusters:
            gate.check(
                c.get("btb_hit_pct", 0) > 0,
                f"qos heterogeneous {c.get('cluster')}: BTB tenant "
                f"starved (zero hit rate)",
            )
            print(
                f"qos heterogeneous {c.get('cluster')}: protection "
                f"{c.get('avail_improvement_pct', 0):+.1f}%"
            )


def check_scenarios(gate, pvsim, scenarios_dir, manifest_path):
    """Validate the scenario corpus and pin its fingerprints."""
    res = subprocess.run(
        [pvsim, "validate", scenarios_dir],
        capture_output=True, text=True,
    )
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    gate.check(
        res.returncode == 0,
        f"scenarios: `pvsim validate {scenarios_dir}` failed "
        f"(exit {res.returncode})",
    )

    res = subprocess.run(
        [pvsim, "fingerprint", scenarios_dir, "--json"],
        capture_output=True, text=True,
    )
    gate.check(
        res.returncode == 0,
        f"scenarios: `pvsim fingerprint` failed "
        f"(exit {res.returncode}): {res.stderr.strip()}",
    )
    if res.returncode != 0:
        return
    live = json.loads(res.stdout)
    committed = load(manifest_path)
    gate.check(
        set(live) == set(committed),
        f"scenarios: corpus/manifest file sets differ "
        f"(only in corpus: {sorted(set(live) - set(committed))}, "
        f"only in manifest: {sorted(set(committed) - set(live))}) "
        f"— regenerate {manifest_path}",
    )
    for name in sorted(set(live) & set(committed)):
        gate.check(
            live[name] == committed[name],
            f"scenarios: {name} fingerprint drift "
            f"(manifest {committed[name]}, live {live[name]}) — "
            f"regenerate {manifest_path}",
        )


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline-dir", default="tools/baselines")
    ap.add_argument("--fig9", help="fresh BENCH_fig9.json")
    ap.add_argument("--stepping", help="fresh BENCH_stepping.json")
    ap.add_argument("--qos", help="fresh BENCH_qos.json")
    ap.add_argument("--pvsim", help="path to the pvsim binary")
    ap.add_argument(
        "--scenarios", help="scenario corpus directory to validate"
    )
    ap.add_argument(
        "--scenario-manifest",
        help="committed fingerprint manifest (MANIFEST.json)",
    )
    ap.add_argument(
        "--fig9-tol-pp", type=float, default=1.0,
        help="abs tolerance on fig9 speedup_pct (percentage points)",
    )
    ap.add_argument(
        "--hit-tol-pp", type=float, default=6.0,
        help="abs tolerance on hit/redirect percentages (points)",
    )
    ap.add_argument(
        "--ipc-rel-tol", type=float, default=0.15,
        help="relative tolerance on per-row IPC values",
    )
    ap.add_argument(
        "--prefetch-ipc-tol-pp", type=float, default=3.0,
        help="max matched-seed IPC loss of the prefetch-on side "
        "over prefetch-off (percent)",
    )
    args = ap.parse_args()

    gate = Gate()
    if args.fig9:
        fig9_cur = load(args.fig9)
        fig9_base = load(f"{args.baseline_dir}/BENCH_fig9.smoke.json")
        check_fig9(
            gate, fig9_cur, fig9_base,
            args.fig9_tol_pp, args.hit_tol_pp, args.ipc_rel_tol,
        )
        check_fig9_prefetch(gate, fig9_cur, args.prefetch_ipc_tol_pp)
    if args.stepping:
        check_stepping(gate, load(args.stepping))
    if args.pvsim and args.scenarios:
        manifest = (
            args.scenario_manifest
            or f"{args.scenarios}/MANIFEST.json"
        )
        check_scenarios(gate, args.pvsim, args.scenarios, manifest)
    if args.qos:
        check_qos(
            gate, load(args.qos),
            load(f"{args.baseline_dir}/BENCH_qos.smoke.json"),
            args.hit_tol_pp,
        )

    if not gate.checks:
        print("check_bench: nothing to check (pass --fig9/...)")
        return 1
    if gate.failures:
        print(
            f"check_bench: {len(gate.failures)} of {gate.checks} "
            f"checks FAILED"
        )
        return 1
    print(f"check_bench: all {gate.checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
