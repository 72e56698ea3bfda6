#!/usr/bin/env python3
"""Build and run the repository benchmark; print its metrics.

    python3 perfbench/run.py --workload populate|timing|crash \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench_driver (and the simulator libraries from src/) into
.bench_build/ under the repository root, or under $CARGO_TARGET_DIR when
set, runs one workload for --seconds of measured repetitions and prints
every metric with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits non-zero if the build fails or any output check
fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

DEFAULT_SEEDS = {"populate": 1, "timing": 1, "crash": 11}
DRIVER_TIMEOUT_S = 170

# The end-to-end host times are in reference seconds: measured seconds
# times REFERENCE_S over the driver's HostReference pass timed around the
# same repetition (about REFERENCE_S on an unloaded 4-core Xeon VM). The
# pass slows down with the host, so the ratio cancels the host's speed
# swings; per-layer host.wall_raw_s keeps the plain seconds.
REFERENCE_S = 0.1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found under", ROOT)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_driver")


def reference_seconds(rep, key):
    """Host time @p key of one untraced repetition, in reference
    seconds."""
    return rep[key] * REFERENCE_S / rep["ref_s"]


def end_to_end(raw):
    """The end-to-end metrics of one untraced run. Host noise only ever
    adds time, so a host time is the first quartile of its repetitions:
    it leaves out the slowed ones without resting on the luckiest one."""
    reps = raw["untraced"]

    def fast_quartile(key):
        return benchstats.quartiles(
            [reference_seconds(r, key) for r in reps])[0]

    wall = fast_quartile("wall_s")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (fast_quartile("setup_s"), "s"),
        "sim_uops_per_s": (raw["sim_uops"] / wall, "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_cycles": (raw["sim_cycles"], "cycles"),
    }


def per_layer(raw, spans):
    """The per-layer metrics of one traced run."""
    t, coverage = benchstats.layer_times(spans)
    c = raw["counts"]

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    untraced_wall = statistics.median([r["wall_s"] for r in raw["untraced"]])
    traced_wall = statistics.median([r["wall_s"] for r in raw["traced"]])
    main = statistics.median([r["main_s"] for r in raw["untraced"]])
    m = {
        "workloads.populate_s": (t.get("workloads.populate", 0.0), "s"),
        "workloads.populate_ns_per_initop": (ns_per(
            t.get("workloads.populate", 0.0), c["workloads.initops"]), "ns"),
        "trace.record_s": (t.get("trace.record", 0.0), "s"),
        "trace.recorded_uops": (c["trace.recorded_uops"], "uops"),
        "trace.record_ns_per_uop": (ns_per(
            t.get("trace.record", 0.0), c["trace.recorded_uops"]), "ns"),
        "harness.bundle_builds": (c["harness.bundle_builds"], "count"),
        "harness.cache_hits": (c["harness.cache_hits"], "count"),
        "harness.wire_s": (t.get("harness.wire", 0.0), "s"),
        "harness.teardown_s": (t.get("harness.teardown", 0.0), "s"),
        "sim.simulate_s": (t.get("sim.simulate", 0.0), "s"),
        "sim.kernel_steps": (c["sim.kernel_steps"], "count"),
        "sim.skipped_cycles": (c["sim.skipped_cycles"], "cycles"),
        "sim.skip_frac": (c["sim.skip_frac"], "ratio"),
        "sim.ns_per_kernel_step": (ns_per(
            t.get("sim.simulate", 0.0), c["sim.kernel_steps"]), "ns"),
        "sim.ns_per_uop": (ns_per(
            t.get("sim.simulate", 0.0), c["cpu.retired_uops"]), "ns"),
        "analysis.check_s": (t.get("analysis.check", 0.0), "s"),
        "crashtest.step_s": (t.get("crashtest.step", 0.0), "s"),
        "crashtest.crash_image_s": (t.get("crashtest.crash_image", 0.0),
                                    "s"),
        "crashtest.oracle_build_s": (t.get("crashtest.oracle_build", 0.0),
                                     "s"),
        "crashtest.oracle_s": (t.get("crashtest.oracle", 0.0), "s"),
        "crashtest.invariants_s": (t.get("crashtest.invariants", 0.0), "s"),
        "crashtest.replay_s": (t.get("crashtest.replay", 0.0), "s"),
        "crashtest.crash_points": (c["crashtest.crash_points"], "count"),
        "crashtest.violations": (c["crashtest.violations"], "count"),
        "crashtest.points_per_s": (
            c["crashtest.crash_points"] / main if main else 0.0, "1/s"),
        "recovery.recover_s": (t.get("recovery.recover", 0.0), "s"),
        "recovery.torn_slots": (c["recovery.torn_slots"], "count"),
        "host.wall_raw_s": (untraced_wall, "s"),
        "host.reference_s": (statistics.median(
            [r["ref_s"] for r in raw["untraced"]]), "s"),
        "trace_overhead_pct": (
            (traced_wall / untraced_wall - 1.0) * 100.0, "%"),
        "trace_coverage_pct": (coverage * 100.0, "%"),
    }
    for name, unit in [
            ("cpu.retired_uops", "uops"), ("cpu.frontend_stalls", "cycles"),
            ("cpu.cpi.base", "cycles"), ("cpu.cpi.robFull", "cycles"),
            ("cpu.cpi.iqLsqFull", "cycles"),
            ("cpu.cpi.branchRedirect", "cycles"),
            ("cpu.cpi.persistStall", "cycles"),
            ("cpu.cpi.wpqBackpressure", "cycles"),
            ("cpu.cpi.lockWait", "cycles"),
            ("cache.l1d.misses", "count"), ("cache.l3.misses", "count"),
            ("memctrl.nvm_writes", "count"), ("memctrl.nvm_reads", "count"),
            ("memctrl.wpq_occupancy", "entries"),
            ("memctrl.lpq_occupancy", "entries"),
            ("memctrl.write_pick_yield", "ratio"),
            ("dram.row_hit_frac", "ratio"),
            ("logging.llt_miss_rate", "ratio"),
            ("logging.log_writes_dropped", "count"),
            ("logging.logq_peak", "entries")]:
        m[name] = (c[name], unit)
    return m


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[section]


def result(raw, metrics, section):
    """The contract's result object; a metric missing or in another unit
    than BENCHMARK.json declares makes the run incorrect."""
    ok = True
    out = {}
    for spec in declared(section):
        value = metrics.get(spec["name"])
        if value is None or value[1] != spec["unit"]:
            log("perfbench: metric", spec["name"], "missing or mis-unit")
            ok = False
            continue
        out[spec["name"]] = {"value": value[0], "unit": value[1]}
    for err in raw["errors"]:
        log("perfbench: FAILED", err)
    return {"correct": ok and raw["failed"] == 0 and raw["attempted"] > 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    driver = build()
    if driver is None:
        return 2
    spans_path = os.path.join(build_dir(),
                              "spans-%s-%d.json" % (args.workload, seed))
    cmd = [driver, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded", DRIVER_TIMEOUT_S, "s")
        return 3
    if proc.returncode != 0:
        log("perfbench: driver exited with", proc.returncode)
        return proc.returncode or 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    log("perfbench: %s seed %d ran %.1f s, %d untraced + %d traced reps"
        % (args.workload, seed, time.monotonic() - started,
           len(raw["untraced"]), len(raw["traced"])))

    if args.trace:
        with open(spans_path) as f:
            metrics = per_layer(raw, json.load(f))
        res = result(raw, metrics, "per_layer")
    else:
        res = result(raw, end_to_end(raw), "end_to_end")
    for name, m in res["metrics"].items():
        print("%-36s %18.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
