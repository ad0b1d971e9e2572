#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/runner.cc together with the
simulator libraries under ../src into .bench_build/ (RelWithDebInfo, the
repository's default), runs it for one workload, checks every
operation's outputs, prints a human-readable report, and prints one JSON
result object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the report adds the
attribution table. The full result, with its machine context, is also
written to .bench_build/perfbench/results/.

Output checks. Every op must pass the runner's invariant and accounting
checks, and ops with the same inputs must produce the same output digest.
For the default seed (1) each op's digest must also match
perfbench/reference.json. Any failure makes "correct" false.

Other entry points:
    --self-test          test the percentile and ratio helpers
    --write-reference    regenerate perfbench/reference.json for --workload
                         at the default seed (only after a deliberate change
                         of simulated behaviour)
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RESULTS_DIR = os.path.join(BUILD_DIR, "perfbench", "results")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
WORKLOADS = ("campaign", "fleet_burst", "storm_churn")
# Every run must end within 180 s of the (already built) runner starting.
RUN_DEADLINE_S = 165.0
# bytes_per_vm is the median over this many fresh processes, each probing
# another distinct op, because one op's footprint follows its seed.
MEMPROBES = 3


# ---------------------------------------------------------------------------
# Statistics helpers (covered by --self-test).

def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default), q in [0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num, den):
    """num / den, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0


def beyond(n, q):
    """Samples strictly above the q-th percentile of n samples."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def self_test():
    rng = random.Random(7)
    for n in (1, 2, 3, 10, 101):
        values = [rng.uniform(0, 100) for _ in range(n)]
        if n >= 2:
            quartiles = statistics.quantiles(values, n=4, method="inclusive")
            for q, want in zip((0.25, 0.5, 0.75), quartiles):
                got = percentile(values, q)
                assert math.isclose(got, want), (n, q, got, want)
        assert percentile(values, 0.5) == statistics.median(values) or \
            math.isclose(percentile(values, 0.5), statistics.median(values))
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 1.0) == max(values)
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([1.0, 2.0], 0.9) == 1.9
    for bad in ((-0.1,), (1.1,)):
        try:
            percentile([1.0], bad[0])
            raise AssertionError("accepted q=%r" % bad)
        except ValueError:
            pass
    try:
        percentile([], 0.5)
        raise AssertionError("accepted empty input")
    except ValueError:
        pass
    assert ratio(3, 4) == 0.75 and ratio(1, 0) == 0.0 and ratio(0, 0) == 0.0
    assert beyond(100, 0.9) == 10 and beyond(112, 0.9) == 12
    assert beyond(10, 0.9) == 1 and beyond(0, 0.5) == 0
    print("self-test passed: percentile, ratio, beyond")
    return 0


# ---------------------------------------------------------------------------
# Build and run the workload runner.

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log,
                              timeout=300).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed (is ../src present?)")
        if subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                           "perfbench_runner", "-j", jobs], stdout=log,
                          stderr=log, timeout=840).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed; full log in " + log_path)


def run_workload(args, deadline, extra):
    cmd = [RUNNER, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds] + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("no time left for " + " ".join(extra or ["the timed run"]))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("runner exceeded the run deadline: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("runner exited with %d" % proc.returncode)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail("runner printed no parsable record")


# ---------------------------------------------------------------------------
# Output checks.

def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def check_ops(ops, workload, seed):
    """Returns (attempted, failed, reasons)."""
    reference = load_reference().get(workload, {}) if seed == DEFAULT_SEED else None
    if reference is not None and not reference:
        fail("no reference digests for %s in %s" % (workload, REFERENCE))
    first_digest = {}
    failed = 0
    reasons = {}
    for op in ops:
        reason = op["error"]
        if not reason:
            seen = first_digest.setdefault(op["id"], op["digest"])
            if seen != op["digest"]:
                reason = "output differs from an earlier op with the same inputs"
            elif reference is not None and reference.get(op["id"]) != op["digest"]:
                reason = "output digest differs from reference.json"
        if reason:
            failed += 1
            key = "%s: %s" % (op["id"], reason)
            reasons[key] = reasons.get(key, 0) + 1
    return len(ops), failed, reasons


# ---------------------------------------------------------------------------
# Context.

def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_context(record):
    ctx = dict(record["context"])
    ctx.update({
        "commit": git_commit(),
        "source_digest": source_digest(),
        "machine": platform.node(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    })
    unreliable = []
    if not ctx["optimized"] or ctx["build_type"] not in ("Release", "RelWithDebInfo"):
        unreliable.append("unoptimized build (%s)" % ctx["build_type"])
    if ctx["sanitized"]:
        unreliable.append("sanitizer build")
    ctx["reliable"] = not unreliable
    ctx["unreliable_reasons"] = unreliable
    return ctx


# ---------------------------------------------------------------------------
# Metrics.

def untraced_window(record):
    passes = [p for p in record["passes"] if not p["traced"]]
    ops = [o for o in record["ops"] if not o["traced"]]
    return sum(p["wall_s"] for p in passes), ops


def end_to_end(record):
    """{name: (value, unit, samples)} measured with tracing off."""
    wall_s, ops = untraced_window(record)
    ms = [o["ms"] for o in ops]
    setups = [s["total_s"] for s in record["setups"]]
    return {
        "cells_per_s": (ratio(len(ops), wall_s), "1/s", len(ops)),
        "cell_ms_p50": (percentile(ms, 0.5), "ms", len(ms)),
        "cell_ms_p90": (percentile(ms, 0.9), "ms", len(ms)),
        "events_per_s": (ratio(sum(o["events"] for o in ops), wall_s), "1/s", len(ops)),
        "sim_vm_hours_per_s": (ratio(sum(o["vm_hours"] for o in ops), wall_s),
                               "vm-h/s", len(ops)),
        "vms_per_s": (ratio(sum(o["vms"] for o in ops), wall_s), "1/s", len(ops)),
        "bytes_per_vm": (statistics.median(record["memprobe_bytes_per_vm"]), "B",
                         len(record["memprobe_bytes_per_vm"])),
        "peak_rss_mb": (record["peak_rss_bytes"] / 1e6, "MB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }


# Which end-to-end metric each per-layer metric should move, and on which
# workload (written down before measuring, from the layer's role).
TARGETS = {
    "sim": "events_per_s, cells_per_s -> storm_churn, fleet_burst; flat on campaign",
    "market": "setup_s, cells_per_s -> campaign; ~0 on fleet_burst",
    "cloud": "cells_per_s -> storm_churn",
    "core": "vms_per_s -> fleet_burst; cells_per_s -> storm_churn",
    "grid": "cells_per_s, cell_ms_p50 -> campaign",
    "backup": "vms_per_s, events_per_s -> fleet_burst; releases -> storm_churn",
    "virt": "cell_ms_p50 -> campaign, storm_churn",
    "policy": "cell_ms_p50, cell_ms_p90 -> campaign",
    "chaos": "work count -> storm_churn",
    "obs": "cells_per_s -> campaign",
}
POLICIES = ("1p-m", "2p-ml", "4p-ed", "4p-cost", "4p-st", "index", "adapt-ed",
            "adapt-idx")
# How each per-layer value is obtained.
EXACT, SAMPLED, TIMED, DERIVED = ("exact count", "est. 1-in-64 sampled ns",
                                  "host-timed", "derived")


def per_layer(record):
    """{name: (value, unit, samples, kind)} from the traced run."""
    traced = [o for o in record["ops"] if o["traced"]]
    _, plain = untraced_window(record)
    if not traced:
        fail("traced run recorded no traced ops")
    n = len(traced)

    def total(key):
        return sum(o["layers"][key] for o in traced)

    def per_op(key):
        return total(key) / n

    def cell_ms(field, value):
        # Op ids read "<policy>/<mechanism>/<seed>".
        ms = [o["ms"] for o in plain if o["id"].split("/")[field] == value]
        return (percentile(ms, 0.5) if ms else 0.0), len(ms)

    scalars = record["scalars"]
    setups = record["setups"]
    request_us = record["request_us"]
    # Each cell's time under the grid's workers over its time on one worker.
    inflation = [statistics.median(o["ms"] for o in traced if o["id"] == cell) / solo
                 for cell, solo in record["solo_ms"].items() if solo > 0]
    grid = record["context"]["workers"] > 1
    traced_ms = [o["ms"] for o in traced]
    # Tracing overhead compares each traced op with untraced ops of the same
    # inputs, so a different mix of cells cannot pass for overhead.
    plain_by_id = {}
    for o in plain:
        plain_by_id.setdefault(o["id"], []).append(o["ms"])
    overhead = [o["ms"] / statistics.mean(plain_by_id[o["id"]]) - 1.0
                for o in traced if o["id"] in plain_by_id]
    if "core.settle_s" in traced[0]["layers"]:
        settle = (statistics.median(o["layers"]["core.settle_s"] for o in traced),
                  "s", n, TIMED)
    else:
        settle = (scalars["core.settle_s"], "s", 1, TIMED)
    m = {
        "sim.events": (per_op("sim.events"), "count", n, EXACT),
        "sim.ns_per_event": (ratio(sum(o["ms"] for o in plain) * 1e6,
                                   sum(o["events"] for o in plain)), "ns",
                             len(plain), TIMED),
        "sim.stream_event_frac": (ratio(total("sim.stream_events"),
                                        total("sim.events")), "frac", n, EXACT),
        "sim.lazy_sorted_per_event": (ratio(total("sim.lazy_sorted"),
                                            total("sim.events")), "ratio", n, EXACT),
        "sim.bucket_sort_ms": (per_op("sim.bucket_sort_ns") / 1e6, "ms", n, SAMPLED),
        "market.trace_gen_ms": (statistics.median(s["trace_gen_ms"] for s in setups),
                                "ms", len(setups), TIMED),
        "market.traces": (setups[0]["traces"], "count", 1, EXACT),
        "market.catalog_hit_frac": (
            ratio(scalars.get("market.catalog_hits", 0.0),
                  scalars.get("market.catalog_hits", 0.0) +
                  scalars.get("market.catalog_misses", 0.0)), "frac", n, EXACT),
        "market.lock_wait_ms": (per_op("market.lock_wait_ns") / 1e6, "ms", n, TIMED),
        "market.stream_dispatch_ms": (per_op("market.stream_dispatch_ns") / 1e6,
                                      "ms", n, SAMPLED),
        "market.price_changes_fired": (per_op("market.price_changes_fired"),
                                       "count", n, EXACT),
        "cloud.launches": (per_op("cloud.launches"), "count", n, EXACT),
        "cloud.terminations": (per_op("cloud.terminations"), "count", n, EXACT),
        "cloud.revocation_warnings": (per_op("cloud.revocation_warnings"), "count",
                                      n, EXACT),
        "core.request_us_p50": (percentile(request_us, 0.5), "us",
                                len(request_us), TIMED),
        "core.request_us_p99": (percentile(request_us, 0.99), "us",
                                len(request_us), TIMED),
        "core.settle_s": settle,
        "core.pool_index_ms": (per_op("core.pool_index_ns") / 1e6, "ms", n, SAMPLED),
        "core.index_ops": (per_op("core.index_ops"), "count", n, EXACT),
        "core.dispatch_callback_ms": (per_op("core.dispatch_callback_ns") / 1e6,
                                      "ms", n, SAMPLED),
        "core.evacuations": (per_op("core.evacuations"), "count", n, EXACT),
        "core.repatriations": (per_op("core.repatriations"), "count", n, EXACT),
        "core.vms_lost": (per_op("core.vms_lost"), "count", n, EXACT),
        "grid.workers": (record["context"]["workers"], "count", 1, EXACT),
        "grid.busy_frac": (scalars.get("grid.busy_frac", 1.0), "frac", n, TIMED),
        "grid.cell_inflation": (statistics.median(inflation) if inflation else 1.0,
                                "ratio", len(inflation) or 1, TIMED),
        "grid.prewarm_ms": (scalars.get("grid.prewarm_ms", 0.0), "ms", 1, TIMED),
        "backup.assigns": (per_op("backup.assigns"), "count", n, EXACT),
        "backup.probes_per_assign": (ratio(total("backup.probes"),
                                           total("backup.assigns")), "ratio", n, EXACT),
        "backup.assign_ms": (per_op("backup.assign_ns") / 1e6, "ms", n, SAMPLED),
        "backup.releases": (per_op("backup.releases"), "count", n, EXACT),
        "virt.evacuations": (per_op("virt.evacuations"), "count", n, EXACT),
        "virt.restore_bytes_mb": (per_op("virt.restore_bytes_mb"), "MB", n, EXACT),
        "chaos.faults_injected": (per_op("chaos.faults_injected"), "count", n, EXACT),
        "obs.report_build_ms": (per_op("obs.report_build_ns") / 1e6, "ms", n, TIMED),
        "obs.trace_overhead_frac": (percentile(overhead, 0.5) if overhead else 0.0,
                                    "frac", len(overhead), DERIVED),
        "obs.unattributed_frac": (1.0 - ratio(total("attributed_ns"),
                                              sum(traced_ms) * 1e6),
                                  "frac", n, DERIVED),
    }
    for mech in ("full", "lazy"):
        value, samples = cell_ms(1, mech)
        m["virt.cell_ms." + mech] = (value, "ms", samples, TIMED)
    for policy in POLICIES:
        value, samples = cell_ms(0, policy)
        m["policy.cell_ms." + policy] = (value, "ms", samples, TIMED)
    if not grid:
        for name in ("grid.busy_frac", "grid.cell_inflation", "grid.prewarm_ms"):
            value, unit, samples, _ = m[name]
            m[name] = (value, unit, samples, "no grid: serial workload")
    return m


# ---------------------------------------------------------------------------
# Report.

def declared_metrics(kind):
    """The metric names BENCHMARK.json declares under `kind`, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def print_context(ctx):
    print("context:")
    for key in ("workload", "seed", "seconds", "trace", "nproc", "workers",
                "build_type", "compiler", "commit", "source_digest", "machine",
                "log_level", "log_lines", "reliable"):
        print("  %-14s %s" % (key, ctx[key]))
    if not ctx["reliable"]:
        print("  WARNING: unreliable timings: " + "; ".join(ctx["unreliable_reasons"]))


def print_end_to_end(metrics):
    print("%-20s %16s %-8s %8s" % ("end-to-end metric", "value", "unit", "samples"))
    for name, (value, unit, samples) in metrics.items():
        note = ""
        if name == "cell_ms_p90" and beyond(samples, 0.9) < 10:
            note = "  (only %d samples beyond p90)" % beyond(samples, 0.9)
        print("%-20s %16.6g %-8s %8d%s" % (name, value, unit, samples, note))


def print_attribution(metrics, listed):
    print("attribution (per-layer metric -> end-to-end metric it should move;")
    print("* = table only: a time some workload never reaches, so not in BENCHMARK.json):")
    print("%-29s %14s %-6s %7s  %-24s %s" % ("metric", "value", "unit", "samples",
                                              "kind", "moves"))
    for name, (value, unit, samples, kind) in metrics.items():
        layer = name.split(".", 1)[0]
        mark = "" if name in listed else "*"
        print("%-29s %14.6g %-6s %7d  %-24s %s" % (name + mark, value, unit,
                                                   samples, kind, TARGETS[layer]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.write_reference:
        args.seed = DEFAULT_SEED
        record = run_workload(args, deadline, [])
        reference = load_reference()
        reference[args.workload] = {o["id"]: o["digest"] for o in record["ops"]
                                    if not o["error"]}
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %d digests for %s" % (len(reference[args.workload]),
                                           args.workload))
        return 0

    probe_ops = []
    record = run_workload(args, deadline, ["--trace=%d" % args.trace])
    if not args.trace:
        # Fresh processes, so allocator reuse from an earlier op cannot
        # shrink the RSS growth bytes_per_vm divides.
        record["memprobe_bytes_per_vm"] = []
        for k in range(MEMPROBES):
            probe = run_workload(args, deadline,
                                 ["--memprobe", "--memprobe-op=%d" % k])
            record["memprobe_bytes_per_vm"].append(
                ratio(probe["memprobe_rss_growth"], probe["memprobe_vms"]))
            probe_ops += probe["ops"]

    attempted, failed, reasons = check_ops(record["ops"] + probe_ops,
                                           args.workload, args.seed)
    ctx = machine_context(record)
    print_context(ctx)
    for reason, count in sorted(reasons.items()):
        print("FAILED x%d: %s" % (count, reason))
    if args.trace:
        layer_metrics = per_layer(record)
        listed = declared_metrics("per_layer")
        print_attribution(layer_metrics, listed)
        metrics = {k: layer_metrics[k][:2] for k in listed}
    else:
        e2e = end_to_end(record)
        e2e["ops_failed_frac"] = (ratio(failed, attempted), "frac", attempted)
        print_end_to_end(e2e)
        metrics = {k: e2e[k][:2] for k in declared_metrics("end_to_end")}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"context": ctx, "failures": reasons, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
