#!/usr/bin/env python3
"""pvsim benchmark: simulated records per host second, job time,
set-up time and memory on three workloads, with per-layer counters
from a traced run.

Usage, from the root of a pvsim checkout:

    python3 pvbench/run.py --workload many-core-plain \
        [--seed 1] [--seconds 35] [--trace 0|1]
    python3 pvbench/run.py --record-references

A run builds pvbench/job.cc with the simulator sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs jobs one after another
(a closed loop, one job in flight) for --seconds. Each job is its own
pvbench_job process, so a simulator panic fails that job only. The
jobs cycle, round after round, through the workload's generator seeds
derived from --seed, and the run stops only after a whole round. A job
fails on a non-zero exit, a broken invariant, or a statistics digest
that differs from the recorded reference for its seed or, for seeds
without a reference, from the run's other jobs on that seed.

Host contention from other programs only ever adds time to a job, and
every job of one seed does the same deterministic work. A job reports
the host time of each of its pieces: set-up, the warmup and measure
calls, and the steps between them. Each time metric sums, per seed,
every piece's fastest time over that seed's jobs, and averages over
the seeds. The summary above the result line also gives each time's
median over all jobs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced rounds, reports the per-layer metrics
and writes the spans as Chrome trace-event JSON into the build
directory. The last line of stdout is the result object. README.md in
this directory documents the workloads and every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCES = os.path.join(BENCH_DIR, "references.json")
# Generator seeds per run. pv-tenants draws its per-core control-flow
# graphs from the seed, and one seed's graphs move its host time by up
# to a fifth, so a run there averages over eight seeds.
WORKLOADS = {"many-core-plain": 1, "pv-tenants": 8, "functional-sms-pv": 1}
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
JOB_TIMEOUT_S = 150


def fail(msg, code=2):
    print("pvbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def sub_seeds(workload, seed):
    """The generator seeds a run of `workload` with --seed cycles
    through; distinct --seed values give disjoint sets."""
    k = WORKLOADS[workload]
    return [seed * k + i for i in range(k)]


def build():
    """Configure once, then bring pvbench_job up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "system.hh")):
        fail("no pvsim sources under %s/src" % ROOT)
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(min(4, os.cpu_count() or 1)),
                  "--target", "pvbench_job"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return bdir, os.path.join(bdir, "pvbench_job")


def run_job(binary, workload, seed, traced):
    """One isolated job; returns its parsed output, with 'error' set
    when it failed."""
    scenario = os.path.join(BENCH_DIR, "workloads", workload + ".json")
    cmd = [binary, scenario, str(seed), "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "traced": traced,
                "error": "timed out after %d s" % JOB_TIMEOUT_S}
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except ValueError:
        out = {}
    out.update(seed=seed, traced=traced)
    if p.returncode < 0:
        out["error"] = "killed by signal %d: %s" % (
            -p.returncode, p.stderr.strip()[-300:])
    elif p.returncode != 0:
        out["error"] = "exit %d: %s" % (
            p.returncode,
            "; ".join(out.get("errors", [])) or p.stderr.strip()[-300:])
    elif "digest" not in out:
        out["error"] = "no result printed"
    return out


def check_digests(jobs, references):
    """Fail jobs whose digest (or outcome) differs from the reference
    for their seed, or, without one, from the run's other jobs on that
    seed. Traced jobs also compare the generator pass checksum."""
    for seed in sorted({j["seed"] for j in jobs}):
        ok = [j for j in jobs if j["seed"] == seed and "error" not in j]
        reference = references.get(str(seed))
        if reference is not None:
            for j in ok:
                if j["digest"] != reference["digest"]:
                    j["error"] = "digest %s != reference %s" % (
                        j["digest"], reference["digest"])
                elif j["outcome"] != reference[j["outcome_name"]]:
                    j["error"] = "%s %r != reference %r" % (
                        j["outcome_name"], j["outcome"],
                        reference[j["outcome_name"]])
        for key in ("digest", "gen_checksum"):
            group = [j for j in ok if j["traced"] or key == "digest"]
            if len({j[key] for j in group}) > 1:
                for j in group:
                    j.setdefault("error", "%s differs between jobs of "
                                 "seed %d (nondeterminism)" % (key, seed))


def fastest_pieces(ok):
    """Per seed, each piece's fastest time over that seed's jobs."""
    best = {}
    for j in ok:
        cur = best.get(j["seed"], j["piece_s"])
        best[j["seed"]] = [min(a, b) for a, b in zip(cur, j["piece_s"])]
    return best


def self_times(job):
    """Self time of every span: its duration minus its children's."""
    spans = job["spans"]
    own = [(s["end_us"] - s["start_us"]) * 1e-6 for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= (s["end_us"] - s["start_us"]) * 1e-6
    return {("job.self" if s["parent"] < 0 else s["name"]) + "_s": t
            for s, t in zip(spans, own)}


def end_to_end(ok):
    pieces = fastest_pieces(ok)
    records = {j["seed"]: j["records"] for j in ok}
    measure = {j["seed"]: slice(*j["measure_pieces"]) for j in ok}
    outcome = {j["seed"]: j["outcome"] if j["outcome_name"] == "sim_ipc"
               else j["outcome"] / 100.0 for j in ok}
    # sim_outcome: aggregate IPC on timed workloads, the Figure 4
    # covered share (as a fraction) on the functional one, averaged
    # over the run's seeds.
    return {
        "records_per_s": sum(records.values()) /
        sum(sum(p[measure[s]]) for s, p in pieces.items()),
        "job_s": statistics.mean(sum(p) for p in pieces.values()),
        "setup_s": statistics.mean(p[0] for p in pieces.values()),
        "peak_rss_mib": statistics.median(j["peak_rss_mib"] for j in ok),
        "sim_outcome": statistics.mean(outcome.values()),
    }


def per_layer(jobs, rounds):
    """Per-layer medians over the traced jobs. Rounds alternate traced
    and untraced, so the tracing overhead is taken per pair of jobs on
    one seed in adjacent rounds, which keeps slow drift in host speed
    out of the difference."""
    values = {}
    for j in jobs:
        if "error" in j or not j["traced"]:
            continue
        row = dict(j["counters"])
        row.update(self_times(j))
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    out = {k: statistics.median(v) for k, v in values.items()}
    k = len(jobs) // rounds
    overhead = [100.0 * (t["job_s"] - u["job_s"]) / u["job_s"]
                for t, u in zip(jobs, jobs[k:])
                if t["traced"] and not u["traced"]
                and "error" not in t and "error" not in u]
    if overhead:
        out["bench.trace_overhead_pct"] = statistics.median(overhead)
    return out


def describe(values):
    """Median over all jobs, and the highest percentile with at least
    ten jobs beyond it, with the sample count."""
    v = sorted(values)
    text = "median %.4g s" % statistics.median(v)
    if len(v) >= 20:
        text += ", p%d %.4g s" % (100 * (len(v) - 10) // len(v), v[-11])
    return text + ", %d jobs" % len(v)


def write_chrome_trace(path, jobs, context):
    events = []
    for i, job in enumerate(jobs):
        tid = i + 1
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": tid, "args": {"name": "job %d" % i}})
        spans = job.get("spans", [])
        for s in spans:
            args = {"job": i, "seed": job["seed"],
                    "traced": bool(job["traced"]),
                    "parent": (spans[s["parent"]]["name"]
                               if s["parent"] >= 0 else None)}
            args.update(s["counts"])
            events.append({"name": s["name"], "cat": "pvbench",
                           "ph": "X", "pid": 1, "tid": tid,
                           "ts": s["start_us"],
                           "dur": s["end_us"] - s["start_us"],
                           "args": args})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": context}, f)


def load_references():
    try:
        with open(REFERENCES) as f:
            return json.load(f)["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def record_references(binary):
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for s in sub_seeds(w, seed):
                job = run_job(binary, w, s, False)
                if "error" in job:
                    fail("%s seed %d: %s" % (w, s, job["error"]), 1)
                digests[w][str(s)] = {"digest": job["digest"],
                                      job["outcome_name"]: job["outcome"]}
                print("%-18s seed %-5d %s %s=%r" % (
                    w, s, job["digest"], job["outcome_name"],
                    job["outcome"]))
    with open(REFERENCES, "w") as f:
        json.dump({"seeds": {"default": DEFAULT_SEED,
                             "held_out": HELD_OUT_SEED},
                   "digests": digests}, f, indent=2)
        f.write("\n")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=spec.get("run_seconds", 30))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="rewrite references.json for the default and "
                         "held-out seeds")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.record_references and not args.workload:
        ap.error("--workload is required")

    bdir, binary = build()
    if args.record_references:
        record_references(binary)
        return 0

    seeds = sub_seeds(args.workload, args.seed)
    jobs = []
    rounds = 0
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and rounds % 2 == 0
        for seed in seeds:
            job = run_job(binary, args.workload, seed, traced)
            jobs.append(job)
            print("pvbench: job %d seed %d%s: %s" % (
                len(jobs) - 1, seed, " traced" if traced else "",
                job.get("error") or "job_s %.3f measure_s %.3f" % (
                    job["job_s"], job["measure_s"])), file=sys.stderr)
        rounds += 1
        elapsed = time.monotonic() - start
        if (rounds >= 1 + args.trace and
                elapsed * (rounds + 1) / rounds > args.seconds):
            break
    check_digests(jobs, load_references().get(args.workload, {}))
    ok = [j for j in jobs if "error" not in j]
    failed = len(jobs) - len(ok)
    for i, j in enumerate(jobs):
        if "error" in j:
            print("pvbench: job %d failed: %s" % (i, j["error"]),
                  file=sys.stderr)

    context = {
        "workload": args.workload, "seed": args.seed, "seeds": seeds,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "build_type": ok[0]["build_type"] if ok else None,
        "compiler": ok[0]["compiler"] if ok else None,
        "PVSIM_JOBS": os.environ.get("PVSIM_JOBS"),
        "timing_shards": [j.get("timing_shards") for j in jobs],
    }
    section = "per_layer" if args.trace else "end_to_end"
    wanted = spec[section]
    values = {}
    if ok:
        values = per_layer(jobs, rounds) if args.trace else end_to_end(ok)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failed:
        fail("metrics not produced: " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    print("pvbench %s seed=%d trace=%d: %d jobs over %d seeds, %d failed "
          "(%.1f%%)" % (args.workload, args.seed, args.trace, len(jobs),
                        len(seeds), failed, 100.0 * failed / len(jobs)))
    if ok and not args.trace:
        name = ok[0]["outcome_name"]
        print("  %-20s %.6g %s (mean over seeds)" % (
            name, statistics.mean({j["seed"]: j["outcome"]
                                   for j in ok}.values()),
            "instr/cycle" if name == "sim_ipc" else "%"))
        for key in ("measure_s", "job_s", "setup_s"):
            print("  %-20s %s" % (key, describe([j[key] for j in ok])))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    if args.trace:
        path = os.path.join(bdir, "traces", "%s-seed%d.json" % (
            args.workload, args.seed))
        write_chrome_trace(path, jobs, context)
        print("  trace: " + os.path.relpath(path, ROOT))
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
