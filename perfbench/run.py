#!/usr/bin/env python3
"""CrowdER benchmark: records in to clusters out, end to end and per layer.

    python3 perfbench/run.py --workload batch-join --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The script builds crowder_perfbench
and the crowder_shardd worker from the checkout (CMake, Release) into
.bench_build/perfbench, then runs the workload's steps, each in a fresh
process so that every peak RSS reading belongs to one step:

  setup      generate the Product records from --seed and write the CSV,
             several times (setup_s is their median);
  run        (--trace 0) one warm-up pass, then timed passes for --seconds;
  trace      (--trace 1) a warm-up and an untraced pass, one traced pass,
             the layer probes, and a Chrome trace-event JSON (open it in
             Perfetto);
  reference  what the outputs must equal, computed by an independent path.

It prints every end-to-end metric by name and unit with its sample count,
then every output check, then, as the last line, one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. It
exits 1 when any check fails and 2 when a step cannot run.

Workloads, their reasons, and default-seed work counters: perfbench/LEDGER.json.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("batch-join", "sharded-join", "crowd-heavy", "serve")
# All steps of one invocation together stay well under three minutes.
STEP_BUDGET_S = 165.0
# serve: a rate holds when its insert p999 and its end-of-phase backlog
# both stay within this limit.
INSERT_P999_LIMIT_MS = 100.0

# (name, unit) of the metrics the last line reports; BENCHMARK.json lists
# the same names with their direction and bound.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hits", "count"),
    ("crowd_cost_usd", "USD"),
    ("cluster_f1", "ratio"),
]
# Printed, not part of the last line: they exist on one workload only
# (serve), or are 0 whenever the run is correct (error_rate).
SERVE_ONLY = [
    ("insert_p50_ms", "ms"),
    ("insert_p999_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p999_ms", "ms"),
    ("match_lag_p99_ms", "ms"),
    ("max_insert_rate", "records/s"),
]
PER_LAYER = [
    ("data.read_csv_s", "s"),
    ("text.tokenize_s", "s"),
    ("similarity.join_s", "s"),
    ("similarity.verifications", "count"),
    ("similarity.candidates", "count"),
    ("similarity.candidates_per_mverif", "1/Mverif"),
    ("exec.join_speedup", "ratio"),
    ("graph.build_s", "s"),
    ("graph.largest_component", "count"),
    ("hitgen.generate_s", "s"),
    ("hitgen.hits", "count"),
    ("hitgen.pairs_per_hit", "ratio"),
    ("crowd.post_s", "s"),
    ("crowd.poll_s", "s"),
    ("crowd.rounds", "count"),
    ("crowd.assignments", "count"),
    ("aggregate.dawid_skene_s", "s"),
    ("aggregate.em_iterations", "count"),
    ("core.start_s", "s"),
    ("core.step_s", "s"),
    ("core.resolve_s", "s"),
    ("core.spilled_bytes", "bytes"),
    ("core.partitions", "count"),
    ("core.pairs_asked", "count"),
    ("core.pairs_inferred", "count"),
    ("shard.plan_ms", "ms"),
    ("shard.ship_ms", "ms"),
    ("shard.gather_ms", "ms"),
    ("shard.slowest_worker_s", "s"),
    ("shard.worker_cpu_s", "s"),
    ("shard.verification_spread", "ratio"),
    ("serve.insert_busy_s", "s"),
    ("serve.index_rebuilds", "count"),
    ("serve.candidates", "count"),
    ("serve.rounds", "count"),
    ("serve.flush_s", "s"),
    ("serve.query_busy_s", "s"),
    ("serve.epochs", "count"),
    ("serve.generator_late_max_ms", "ms"),
    ("process.cpu_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]


class StepError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_command(argv, deadline, env=None):
    """Runs argv in its own process group, output to stderr; kills the whole
    group (shard workers included) if it outlives the deadline."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise StepError(f"{' '.join(map(str, argv[:2]))}: timed out")
    if code != 0:
        raise StepError(f"{' '.join(map(str, argv[:2]))}: exit code {code}")


def build(deadline):
    """Configures (once) and builds the benchmark binaries in Release."""
    cache = BUILD / "CMakeCache.txt"
    source = ROOT / "perfbench"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}" not in cache.read_text():
        shutil.rmtree(BUILD)
    if not cache.exists():
        run_command(["cmake", "-S", str(source), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_command(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "crowder_perfbench",
                 "crowder_shardd"], deadline)
    return BUILD / "crowder_perfbench", BUILD / "crowder" / "tools" / "crowder_shardd"


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def describe(values):
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it."""
    text = f"n={len(values)}, median {statistics.median(values):.6g}"
    for p in (99.99, 99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return text + f", p{p:g} {percentile(values, p):.6g}"
    return text + ", no tail percentile below 20 samples"


def serve_metrics(run):
    """The serve-only end-to-end metrics, each with its samples."""
    base = run["base"]
    out = {
        "insert_p50_ms": (percentile(base["insert_ms"], 50), base["insert_ms"]),
        "insert_p999_ms": (percentile(base["insert_ms"], 99.9), base["insert_ms"]),
        "query_p50_ms": (percentile(base["query_ms"], 50), base["query_ms"]),
        "query_p999_ms": (percentile(base["query_ms"], 99.9), base["query_ms"]),
        "match_lag_p99_ms": (percentile(base["lag_ms"], 99), base["lag_ms"]),
    }
    held = [0.0]
    phases = [run[k] for k in sorted(k for k in run if k.startswith("phase"))]
    for phase in phases:
        p999 = percentile(phase["insert_ms"], 99.9)
        ok = phase["failures"] == 0 and p999 <= INSERT_P999_LIMIT_MS and \
            phase["backlog_ms"] <= INSERT_P999_LIMIT_MS
        log(f"  serve rate {phase['rate']:.0f}/s ({phase['share']:g} x the closed-loop "
            f"{run['capacity']:.0f}/s): insert p999 {p999:.3f} ms, backlog "
            f"{phase['backlog_ms']:.3f} ms -> {'holds' if ok else 'misses'} the "
            f"{INSERT_P999_LIMIT_MS:g} ms limit")
        if ok:
            held.append(phase["rate"])
    out["max_insert_rate"] = (max(held), None)
    return out


def same_work(service, batch):
    """BatchResolve asks pair by pair and posts no HITs, so HITs are left out."""
    return all(service[k] == batch[k] for k in ("candidates", "crowd_pairs", "assignments"))


def checks_for(workload, trace, run, ref):
    """(name, passed) for every output check of this invocation."""
    checks = []
    if trace is None:
        if workload == "batch-join":
            checks.append(("candidates == serial AllPairsJoin",
                           run["digests"]["candidates"] == ref["candidates"]))
        elif workload == "sharded-join":
            for key in ("candidates", "ranked", "clusters"):
                checks.append((f"{key} == batch-join at the same seed",
                               run["digests"][key] == ref["digests"][key]))
        elif workload == "crowd-heavy":
            checks.append(("candidate count == materialized MachinePass",
                           run["counters"]["candidates"] == ref["num_candidates"]))
        else:
            checks.append(("every pass's partition and accounting == BatchResolve",
                           all(d == ref["serve_digest"] for d in run["serve_digests"])))
            checks.append(("every pass's service counters equal",
                           all(c == run["serve_counters"][0] for c in run["serve_counters"])))
            checks.append(("service candidates, crowd pairs, assignments == BatchResolve",
                           same_work(run["counters"], ref["counters"])))
        return checks

    probe = trace["probe"]
    untraced = trace["untraced"]
    checks.append(("join: 1 thread == 4 threads (pairs)",
                   probe["serial_candidates"] == probe["parallel_candidates"]))
    checks.append(("join: 1 thread == 4 threads (verifications)",
                   probe["serial_verifications"] == probe["parallel_verifications"]))
    if workload == "serve":
        checks.append(("untraced pass == traced pass",
                       untraced["serve_digest"] == trace["serve_digest"]))
        checks.append(("closed loop == BatchResolve", trace["serve_digest"] == ref["serve_digest"]))
        checks.append(("open loop == BatchResolve",
                       trace["serve_probe"] == json.loads(ref["serve_digest"])))
        checks.append(("service candidates, crowd pairs, assignments == BatchResolve",
                       same_work(trace["serve_counters"], ref["counters"])))
    else:
        checks.append(("untraced pass == traced pass (counters)",
                       untraced["counters"] == trace["counters"]))
        checks.append(("untraced pass == traced pass (outputs)",
                       untraced["digests"] == trace["digests"]))
    if workload in ("batch-join", "sharded-join", "serve"):
        checks.append(("two-tiered probe HITs == HITs posted",
                       probe["hits"] == trace["counters"]["hits"]))
        checks.append(("join probe pairs == workflow candidates",
                       probe["parallel_candidates"] == trace["digests"]["candidates"]))
    if workload == "batch-join":
        checks.append(("candidates == serial AllPairsJoin",
                       trace["digests"]["candidates"] == ref["candidates"]))
    elif workload == "sharded-join":
        for key in ("candidates", "ranked", "clusters"):
            checks.append((f"{key} == batch-join at the same seed",
                           trace["digests"][key] == ref["digests"][key]))
    elif workload == "crowd-heavy":
        checks.append(("candidate count == materialized MachinePass",
                       trace["counters"]["candidates"] == ref["num_candidates"]))
        checks.append(("join probe count == materialized MachinePass",
                       trace["similarity.candidates"] == ref["num_candidates"]))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        perfbench, shardd = build(time.monotonic() + 900.0)
    except (StepError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    deadline = time.monotonic() + STEP_BUDGET_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))  # spill files stay in the checkout
    csv = work / "records.csv"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--csv", str(csv)]

    def step(command, *extra):
        out = work / f"{command}.json"
        run_command([str(perfbench), command, *common, "--out", str(out), *map(str, extra)],
                    deadline, env)
        return json.loads(out.read_text())

    trace_file = work / "chrome_trace.json"
    try:
        setup = step("setup")
        if args.trace:
            trace = step("trace", "--shardd", shardd, "--trace-out", trace_file)
            run = None
        else:
            trace = None
            run = step("run", "--seconds", args.seconds, "--shardd", shardd)
        ref = step("reference")
    except (StepError, OSError, ValueError) as err:
        log(f"step failed: {err}")
        return 2

    checks = checks_for(args.workload, trace, run, ref)
    attempted = len(checks) + (run["attempted"] if run else 3)
    failed = sum(1 for _, ok in checks if not ok) + (run["failed"] if run else 0)
    errors = run["errors"] if run else []

    print(f"crowder benchmark: workload {args.workload}, seed {args.seed}, "
          f"{setup['records']:,} records, trace {args.trace}, {os.cpu_count()} cores")
    rows = {"setup_s": (statistics.median(setup["setup_s"]), setup["setup_s"])}
    if run:
        rows.update({
            "wall_s": (statistics.median(run["wall_s"]), run["wall_s"]),
            "peak_rss_mb": (run["peak_rss_mb"], None),
            "hits": (run["hits"], None),
            "crowd_cost_usd": (run["crowd_cost_usd"], None),
            "cluster_f1": (run["cluster_f1"], None),
        })
        if args.workload == "serve":
            rows.update(serve_metrics(run))
        for name, unit in END_TO_END + SERVE_ONLY:
            if name not in rows:
                print(f"  {name:<22} n/a ({unit}; serve workload only)")
                continue
            value, samples = rows[name]
            detail = describe(samples) if samples else "one value per run"
            print(f"  {name:<22} {value:<14.6g} {unit:<10} {detail}")
        print(f"  {'error_rate':<22} {failed / attempted:<14.6g} {'ratio':<10} "
              f"{failed} failed of {attempted} attempted")
        metrics = {name: {"value": rows[name][0], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = dict(trace)
        layer["process.cpu_s"] = trace["untraced"]["cpu_s"]
        layer["trace.overhead"] = trace["traced_wall_s"] / trace["untraced"]["wall_s"] - 1.0
        for name, unit in PER_LAYER:
            print(f"  {name:<34} {layer[name]:<16.6g} {unit}")
        print(f"  {'setup_s':<34} {rows['setup_s'][0]:<16.6g} s ({describe(setup['setup_s'])})")
        print(f"  chrome trace: {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}

    for name, ok in checks:
        print(f"  check {name}: {'PASS' if ok else 'FAIL'}")
    for error in errors:
        print(f"  error: {error}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
