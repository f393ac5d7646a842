#!/usr/bin/env python3
"""AStream repository benchmark.

Builds the engine from ../src and the benchmark from this directory
(under .bench_build/), runs one workload through the public
astream::Client API and prints its metrics by name and unit on standard
error; the last line of standard output is one JSON object:

    python3 perfbench/run.py --workload agg_churn --seed 7 --seconds 20 --trace 0

Per run (--trace 0), each kind of pass runs in its own perfbench_pass
process, all of them on the same seeded script:
  reference  one unthreaded shard, no memory budget; its order-insensitive
             output hash and count gate every other pass
  capacity   5 closed-loop passes (median capacity) and 8 set-up-only
             passes (set-up time is the median of all 13)
  open loop  the script on a wall schedule at the workload's offered rate
             (perfbench/workloads.json), lasting 0.4 of --seconds: result
             and deploy latency, and this process's peak RSS

With --trace 1 the passes repeat with spans around every engine call and
sampled engine counters, written as gzipped NDJSON under
.bench_build/perfbench/traces/, and the per-layer metrics are printed
instead. Every run also writes its full record (metrics, effective
JobConfig, thread counts, nproc, per-pass results) under
.bench_build/perfbench/results/.

Other modes:
    python3 perfbench/run.py --summary TRACE.ndjson[.gz]
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --test      (builds and runs the oracle test)
"""

import argparse
import glob
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench-cmake")
OUT = os.path.join(WORK, "perfbench")
PASS_BIN = os.path.join(BUILD, "perfbench_pass")
TMP = os.path.join(OUT, "tmp")
CAPACITY_REPS = 5
SETUP_REPS = 8


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def bench_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def workload_notes():
    return load_json(os.path.join(HERE, "workloads.json"))


# --------------------------------------------------------------------------
# Build


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no engine sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4",
                  "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(2)


# --------------------------------------------------------------------------
# Passes


def run_pass(workload, seed, timed_tuples, deployment, loop, label,
             reps=1, setup_reps=0, rate=0.0, trace=False, trace_out=None):
    """Runs one perfbench_pass process; returns (rep records, peak RSS MiB)."""
    cmd = [PASS_BIN, "--workload", workload, "--seed", str(seed),
           "--timed-tuples", str(timed_tuples), "--deployment", deployment,
           "--loop", loop, "--reps", str(reps), "--label", label,
           "--setup-reps", str(setup_reps),
           "--trace", "1" if trace else "0"]
    if rate > 0:
        cmd += ["--rate", repr(rate)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # Budgeted engines spill into fresh directories under TMPDIR, which
    # keeps every file the benchmark writes inside the checkout.
    os.makedirs(TMP, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, TMPDIR=TMP))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or len(records) != reps + setup_reps:
        errors = [r.get("error") for r in records if r.get("error")]
        log("perfbench: pass", label, "failed with exit", proc.returncode,
            errors)
        sys.exit(1)
    return records, usage.ru_maxrss / 1024.0


def timed_tuples_for(notes, seconds):
    # The open-loop pass replays the timed part in 0.4 of the run's
    # seconds; the capacity passes, at two to eight times the offered
    # rate, take about as long together.
    return int(notes["offered_rate"] * seconds * 0.4)


def check_outputs(reference, passes):
    """Every pass must reproduce the reference hash and output count."""
    want = (reference["hash"], reference["outputs"])
    bad = [(p["label"], p["rep"], p["hash"], p["outputs"]) for p in passes
           if (p["hash"], p["outputs"]) != want]
    for label, rep, h, n in bad:
        log("perfbench: output mismatch in %s rep %d: hash %s count %d, "
            "reference hash %s count %d" % (label, rep, h, n, want[0],
                                             want[1]))
    return not bad


def median(values):
    return statistics.median(values) if values else 0.0


def middle_mean(values):
    """Mean of the middle half: a whole-pass summary of per-segment
    percentiles that a few stalled segments cannot swing."""
    values = sorted(values)
    quarter = len(values) // 4
    middle = values[quarter:len(values) - quarter] or values
    return statistics.mean(middle) if middle else 0.0


def end_to_end(args, notes):
    n = timed_tuples_for(notes, args.seconds)
    ref, _ = run_pass(args.workload, args.seed, n, "reference", "closed",
                      "reference")
    cap, _ = run_pass(args.workload, args.seed, n, "measured", "closed",
                      "capacity", reps=CAPACITY_REPS, setup_reps=SETUP_REPS)
    ol, rss = run_pass(args.workload, args.seed, n, "measured", "open",
                       "open_loop", rate=notes["offered_rate"])
    passes = ref + cap + ol
    full = [p for p in cap if p["label"] == "capacity"]
    correct = check_outputs(ref[0], full + ol)
    o = ol[0]
    metrics = {
        # The open-loop pass paces its warm-up, so its set-up is no sample.
        "setup_s": (median([p["setup_s"] for p in cap]), "s"),
        "capacity_tuples_per_s":
            (median([p["tuples_per_s"] for p in full]), "tuples/s"),
        "result_latency_p50_ms":
            (middle_mean(o["result_latency_ms"]["segment_p50"]), "ms"),
        "result_latency_p99_ms":
            (middle_mean(o["result_latency_ms"]["segment_p99"]), "ms"),
        "deploy_latency_p50_ms": (o["deploy_latency_ms"]["p50"], "ms"),
        "deploy_latency_p90_ms": (o["deploy_latency_ms"]["p90"], "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return passes, correct, metrics


# --------------------------------------------------------------------------
# Traced run and its summary


def traced(args, notes):
    """The traced run: untraced reference and capacity passes for the
    overhead and speed-up baselines, then every pass again with spans."""
    n = timed_tuples_for(notes, args.seconds)
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    trace_out = os.path.join(OUT, "traces", "%s-seed%d.ndjson" %
                             (args.workload, args.seed))
    for stale in (trace_out, trace_out + ".gz"):
        if os.path.exists(stale):
            os.remove(stale)
    ref, _ = run_pass(args.workload, args.seed, n, "reference", "closed",
                      "reference")
    cap, _ = run_pass(args.workload, args.seed, n, "measured", "closed",
                      "capacity")
    traced_passes = []
    for deployment, loop, label in (("reference", "closed", "reference"),
                                    ("measured", "closed", "capacity"),
                                    ("measured", "open", "open_loop")):
        records, _ = run_pass(args.workload, args.seed, n, deployment, loop,
                              label + "_traced", rate=notes["offered_rate"]
                              if loop == "open" else 0.0, trace=True,
                              trace_out=trace_out)
        traced_passes += records
    correct = check_outputs(ref[0], cap + traced_passes)
    layer = summarize(trace_out, ref[0]["tuples_per_s"],
                      cap[0]["tuples_per_s"])
    with open(trace_out, "rb") as src, \
            gzip.open(trace_out + ".gz", "wb", compresslevel=1) as dst:
        shutil.copyfileobj(src, dst)
    os.remove(trace_out)
    log("perfbench: trace written to", trace_out + ".gz")
    return ref + cap + traced_passes, correct, layer


def percentile(values, p):
    """Nearest-rank percentile, as the pass binary computes it."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = -(-p * len(values) // 100)  # ceil
    return values[min(len(values), max(1, int(rank))) - 1]


def read_trace(path):
    """label -> {"spans", "samples", "final", "result"} of one NDJSON trace."""
    passes = {}
    with (gzip.open(path, "rt") if path.endswith(".gz") else
          open(path)) as f:
        for line in f:
            rec = json.loads(line)
            p = passes.setdefault(rec["pass"], {"spans": [], "samples": []})
            if rec["type"] == "span":
                p["spans"].append(rec)
            elif rec["type"] == "sample":
                p["samples"].append(rec["sample"])
            else:
                p["final"] = rec["final"]
                p["result"] = rec["result"]
    return passes


def self_times(spans):
    """(name, self ns) per control-thread span: its duration minus the
    busy time of its child spans (folded callbacks count their busy_ns)."""
    child = {}
    for s in spans:
        if s["parent"] >= 0 and s["thread"] == 0:
            busy = s.get("busy_ns", s["end_ns"] - s["start_ns"])
            child[s["parent"]] = child.get(s["parent"], 0) + busy
    return [(s["name"], s["end_ns"] - s["start_ns"] - child.get(s["id"], 0))
            for s in spans if s["thread"] == 0]


def ratio(num, den):
    return num / den if den else 0.0


def stage_role(stage):
    """Per-layer spe metrics group the runner's stages by role."""
    if stage.startswith("shared-selection"):
        return "selection"
    return "router" if stage == "router" else "window"


def summarize(path, inline_tps=None, untraced_tps=None):
    """Every per-layer metric of BENCHMARK.json from one traced run.

    Sources: the inline reference pass splits CPU time by layer (Push =
    batching, selection and slicer/store insert; PushWatermark = triggers,
    router fan-out and sink; Submit/Cancel/Pump = control plane); the
    closed-loop capacity pass gives push costs, sampled gauges and the
    engine's final counters; the open-loop pass gives the submit and
    deploy-acknowledgement costs below capacity. Without the untraced
    throughputs (--summary), the traced ones stand in for them."""
    passes = read_trace(path)
    ref = passes["reference_traced"]
    cap = passes["capacity_traced"]
    ol = passes["open_loop_traced"]
    inline_tps = inline_tps or ref["result"]["tuples_per_s"]
    untraced_tps = untraced_tps or cap["result"]["tuples_per_s"]
    final, st = cap["final"], cap["final"]["stats"]
    shards = [sh for smp in cap["samples"] for sh in smp["shards"]]
    m = {}

    def durations(p, name, scale=1.0):
        return [(s["end_ns"] - s["start_ns"]) / scale for s in p["spans"]
                if s["name"] == name]

    def peak_sum(key):
        """Peak over samples of `key` summed across shards."""
        return max([sum(sh.get(key, 0) for sh in smp["shards"])
                    for smp in cap["samples"]] or [0])

    # shard
    push = durations(cap, "Push")
    m["shard.push_ns_p50"] = percentile(push, 50)
    m["shard.push_ns_p99"] = percentile(push, 99)
    submit = durations(ol, "Submit", 1e3)
    m["shard.submit_us_p50"] = percentile(submit, 50)
    m["shard.submit_us_p99"] = percentile(submit, 99)
    m["shard.ingress_backlog_max"] = max(
        [sh["ingress_backlog"] for sh in shards] or [0])
    per_shard = final["shard_records_in"]
    m["shard.records_in_skew"] = ratio(max(per_shard),
                                       statistics.mean(per_shard))
    m["shard.speedup_vs_inline"] = ratio(untraced_tps, inline_tps)

    # spe: the threaded runner's sampled stage gauges, by stage role.
    roles = ("selection", "window", "router")
    depth = {r: [] for r in roles}
    ring = {r: [0] for r in roles}
    batch = {r: [0] for r in roles}
    for sh in shards:
        per_role = dict.fromkeys(roles, 0)
        for k, v in sh.items():
            if k.startswith("stage.") and k.endswith(".queue_depth"):
                per_role[stage_role(k[len("stage."):-len(".queue_depth")])] \
                    += v
            elif k.startswith("edge.") and k.endswith(".ring_occupancy_bp"):
                ring[stage_role(k[len("edge."):-len(".ring_occupancy_bp")])] \
                    .append(v)
        for r in roles:
            depth[r].append(per_role[r])
    for name, h in final["histograms"].items():
        if name.startswith("edge.") and name.endswith(".batch_size"):
            batch[stage_role(name[len("edge."):-len(".batch_size")])] \
                .append(h["p50"])
    for r in roles:
        m["spe.queue_depth_mean." + r] = statistics.mean(depth[r] or [0])
        m["spe.queue_depth_max." + r] = max(depth[r] or [0])
        m["spe.ring_occupancy_bp_max." + r] = max(ring[r])
        m["spe.batch_size_p50." + r] = max(batch[r])
    m["spe.push_ns_p99"] = percentile(durations(ol, "Push"), 99)

    # core.session
    m["core.session.submit_us_p50"] = percentile(
        durations(ref, "Submit", 1e3), 50)
    m["core.session.cancel_us_p50"] = percentile(
        durations(ref, "Cancel", 1e3), 50)
    m["core.session.pump_us_p50"] = percentile(durations(ref, "Pump", 1e3),
                                               50)
    ack = durations(ol, "WaitForDeployment", 1e3)
    m["core.session.ack_wait_us_p50"] = percentile(ack, 50)
    m["core.session.ack_wait_us_p90"] = percentile(ack, 90)
    m["core.session.slots_peak"] = max(
        [sh.get("session.num_slots", 0) for sh in shards] or [0])
    m["core.session.factor_reuse_ratio"] = ratio(
        st["factor_reuses"],
        st["factor_rewrites"] + st["factor_reuses"] + st["factor_fallbacks"])

    # core.selection: every input stream's selection stage.
    sel_in = sum(v for k, v in final["gauges"].items()
                 if k.startswith("stage.shared-selection")
                 and k.endswith(".records_in"))
    sel_out = sum(v for k, v in final["gauges"].items()
                  if k.startswith("stage.shared-selection")
                  and k.endswith(".records_out"))
    m["core.selection.records_in"] = sel_in
    m["core.selection.pass_ratio"] = ratio(sel_out, sel_in)
    m["core.selection.ns_per_record"] = ratio(st["queryset_nanos"], sel_in)

    # core.window
    ref_self = self_times(ref["spans"])
    push_self = [t for name, t in ref_self if name == "Push"]
    m["core.window.insert_ns_per_tuple"] = ratio(sum(push_self),
                                                 len(push_self))
    m["core.window.trigger_ms"] = sum(
        t for name, t in ref_self if name == "PushWatermark") / 1e6
    m["core.window.bitset_ops"] = st["bitset_ops"]
    m["core.window.join_pairs_computed"] = st["join_pairs_computed"]
    m["core.window.join_pair_reuse_ratio"] = ratio(
        st["join_pairs_reused"],
        st["join_pairs_computed"] + st["join_pairs_reused"])
    m["core.window.memo_hit_ratio"] = ratio(
        st["arrange_memo_hits"],
        st["arrange_memo_hits"] + st["arrange_memo_misses"])
    m["core.window.chain_reuse_ratio"] = ratio(
        st["mjoin_chains_reused"],
        st["mjoin_chains_computed"] + st["mjoin_chains_reused"])
    m["core.window.subjoins_attached"] = st["subjoins_attached"]
    m["core.window.arena_mib_peak"] = peak_sum("state.arena_bytes") / 2**20

    # core.router
    m["core.router.records_out"] = st["router_records_out"]
    m["core.router.fanout_ns_per_record"] = ratio(st["fanout_nanos"],
                                                  st["router_records_out"])
    m["core.router.rows_shared_ratio"] = ratio(
        st["router_rows_shared"],
        st["router_rows_shared"] + st["router_rows_copied"])

    # storage: zero on the unbudgeted workloads.
    hist, gauges = final["histograms"], final["gauges"]
    spill = hist.get("storage.spill_ms", {"count": 0, "sum": 0})
    m["storage.spills"] = spill["count"]
    m["storage.spill_ms"] = spill["sum"]
    m["storage.reload_ms"] = hist.get("storage.reload_ms", {"sum": 0})["sum"]
    m["storage.spill_mib"] = peak_sum("storage.spill_bytes") / 2**20
    for key in ("compaction_runs", "compaction_ms", "reload_saves"):
        m["storage." + key] = gauges.get("storage." + key, 0)
    # A ratio gauge: the merged snapshot sums it over shards, so average
    # the shards' own values from the final sample instead.
    ratios = [sh["storage.compressed_ratio_bp"]
              for sh in cap["samples"][-1]["shards"]
              if sh.get("storage.compressed_ratio_bp")] if cap["samples"] \
        else []
    m["storage.compressed_ratio_bp"] = statistics.mean(ratios or [0])
    m["storage.resident_mib_peak"] = peak_sum("storage.resident_bytes") / \
        2**20

    # obs
    m["obs.query_series"] = final["num_query_series"]
    m["obs.gauges"] = final["num_gauges"]

    # bench: the benchmark's own cost and health.
    results = [p["result"] for p in passes.values()]
    m["bench.sink_ns_p50"] = cap["result"]["sink_ns_p50"]
    m["bench.outputs"] = cap["result"]["outputs"]
    m["bench.gen_lag_p99_ms"] = ol["result"]["gen_lag_ms"]["p99"]
    m["bench.gen_lag_max_ms"] = ol["result"]["gen_lag_ms"]["max"]
    m["bench.inline_tuples_per_s"] = inline_tps
    m["bench.trace_overhead_pct"] = 100.0 * (
        1.0 - ratio(cap["result"]["tuples_per_s"], untraced_tps))
    m["bench.failed_ops_ratio"] = ratio(sum(r["failed"] for r in results),
                                        sum(r["attempted"] for r in results))
    return m


# --------------------------------------------------------------------------
# Compare mode


def load_results(directory):
    """workload -> metric -> [values] from the run records in `directory`."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        rec = load_json(path)
        if rec.get("trace") != 0 or not rec.get("correct"):
            continue
        w = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(parent_dir, change_dir):
    """Per workload and end-to-end metric: each side's quartiles and a
    verdict against the metric's bound. The spread is the wider side's
    interquartile range over its median; a spread above the bound leaves
    the verdict unresolved unless every change run beats every parent
    run."""
    spec = bench_spec()
    parent = load_results(parent_dir)
    change = load_results(change_dir)
    print("%-14s %-24s %33s %33s  %s" % ("workload", "metric",
                                         "parent q1/median/q3",
                                         "change q1/median/q3", "verdict"))
    for w in sorted(set(parent) | set(change)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = parent.get(w, {}).get(name, [])
            b = change.get(w, {}).get(name, [])
            if not a or not b:
                print("%-14s %-24s missing on one side" % (w, name))
                continue
            pa, pb = quartiles(a), quartiles(b)
            spread = max((pa[2] - pa[0]) / pa[1] if pa[1] else 0,
                         (pb[2] - pb[0]) / pb[1] if pb[1] else 0)
            delta = (pb[1] - pa[1]) / pa[1] if pa[1] else 0.0
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if spread <= bound and abs(delta) <= bound:
                verdict = "within bound (%+.1f%%)" % (100 * delta)
            elif spread > bound and not all_better:
                verdict = "unresolved (spread %.1f%% > bound)" % (
                    100 * spread)
            else:
                worse = delta > 0 if lower else delta < 0
                verdict = "%s (%+.1f%%)" % ("worse" if worse else "better",
                                            100 * delta)
            print("%-14s %-24s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g  %s"
                  % (w, name, pa[0], pa[1], pa[2], pb[0], pb[1], pb[2],
                     verdict))


# --------------------------------------------------------------------------


def print_metrics(metrics, units):
    for name in sorted(metrics):
        log("  %-40s %16.6g %s" % (name, metrics[name], units.get(name, "")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", metavar="TRACE")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    spec = bench_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    if args.compare:
        compare(*args.compare)
        return 0
    if args.summary:
        print_metrics(summarize(args.summary), units)
        return 0
    if args.test:
        build("perfbench_oracle_test")
        os.makedirs(TMP, exist_ok=True)
        return subprocess.run([os.path.join(BUILD, "perfbench_oracle_test")],
                              env=dict(os.environ, TMPDIR=TMP)).returncode

    notes = workload_notes()["workloads"].get(args.workload)
    if notes is None:
        log("perfbench: unknown workload", args.workload)
        return 2
    build("perfbench_pass")
    if args.trace:
        passes, correct, values = traced(args, notes)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        passes, correct, measured = end_to_end(args, notes)
        values = {k: v for k, (v, _) in measured.items()}
        names = [m["name"] for m in spec["end_to_end"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {} if not correct else {
        n: {"value": values[n], "unit": units[n]} for n in names}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "nproc": passes[0]["nproc"],
        "threads": max(p["threads_observed"] for p in passes),
        "threads_expected": max(p["threads_expected"] for p in passes),
        "config": passes[-1]["config"],
        "reference_config": passes[0]["config"],
        "offered_rate": notes["offered_rate"],
        "passes": [{k: v for k, v in p.items() if k != "config"}
                   for p in passes],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    if correct:
        print_metrics(values, units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
