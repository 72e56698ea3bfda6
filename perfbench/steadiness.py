#!/usr/bin/env python3
"""Collect sets of benchmark runs and report how steady they are.

    python3 perfbench/steadiness.py collect OUT.jsonl \
        [--workloads a,b] [--seeds 1,2,...] [--seconds S] [--trace 0|1]
    python3 perfbench/steadiness.py report A.jsonl [B.jsonl]

`collect` runs perfbench/run.py once per (workload, seed) and appends one
line per run to OUT.jsonl: {"workload", "seed", "trace", "result"}.

`report` prints, per workload and metric, the median, quartiles and
interquartile range as a share of the median (IQR/med) of each set. It
flags (with '!'):
  - a host-measured end-to-end metric whose spread exceeds its bound
    (setup_s is exempt: only its median shift is bounded),
  - a metric whose median in B is worse than in A by more than its
    bound,
  - any exact metric (a simulated statistic or count, see
    benchstats.EXACT_UNITS) that differs between two runs of the same
    workload and seed, in either set or across them.
Exits 1 if anything is flagged.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seeds:
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("run failed: %s seed %d (exit %d)"
                          % (workload, seed, proc.returncode))
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items()
                    if k in ("wall_s", "setup_s", "sim_uops_per_s"))))
    return 0


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def metric_specs(bench):
    specs = {}
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            specs[m["name"]] = dict(m, section=section)
    return specs


def exact_mismatches(runs):
    """(workload, seed, metric, values) for exact metrics that differ
    between runs of the same workload and seed."""
    seen = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            if m["unit"] in benchstats.EXACT_UNITS:
                key = (run["workload"], run["seed"], name)
                seen.setdefault(key, set()).add(m["value"])
    return [(w, s, n, sorted(v)) for (w, s, n), v in sorted(seen.items())
            if len(v) > 1]


def by_workload(runs):
    grouped = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            grouped.setdefault(run["workload"], {}).setdefault(
                name, []).append(m["value"])
    return grouped


def report(args):
    specs = metric_specs(load_benchmark())
    sets = [load_runs(p) for p in args.sets]
    flagged = 0
    grouped = [by_workload(runs) for runs in sets]
    for workload in sorted({w for g in grouped for w in g}):
        print("== %s" % workload)
        names = sorted({n for g in grouped for n in g.get(workload, {})},
                       key=lambda n: (specs.get(n, {}).get("section", ""), n))
        for name in names:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            exact = spec.get("unit") in benchstats.EXACT_UNITS
            cells = []
            medians = []
            for g in grouped:
                values = g.get(workload, {}).get(name)
                if not values:
                    cells.append("%40s" % "-")
                    medians.append(None)
                    continue
                q1, q2, q3 = benchstats.quartiles(values)
                sp = benchstats.spread(values)
                mark = ""
                if (bound is not None and not exact and name != "setup_s"
                        and sp > bound):
                    mark = "!"
                    flagged += 1
                cells.append("%12.6g [%11.6g %11.6g] %5.1f%%%s"
                             % (q2, q1, q3, sp * 100, mark or " "))
                medians.append(q2)
            line = "  %-34s %s" % (name, " ".join(cells))
            if bound is not None and len(medians) == 2 and None not in medians:
                worse = benchstats.worse_by(medians[0], medians[1],
                                            spec["better"])
                line += "  B worse by %+6.1f%% (bound %.0f%%)" % (
                    worse * 100, bound * 100)
                if worse > bound:
                    line += " !"
                    flagged += 1
            print(line)
    for w, s, n, values in exact_mismatches([r for runs in sets
                                             for r in runs]):
        print("! exact metric %s differs on %s seed %d: %s"
              % (n, w, s, values))
        flagged += 1
    print("%d flagged" % flagged)
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+")
    args = ap.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
