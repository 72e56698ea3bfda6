"""Statistics shared by the benchmark runner and the steadiness report.

Pure functions over plain lists and dicts, so they can be unit-tested
without building or running the simulator.
"""

import statistics

# Units whose values come from the deterministic simulator (or exact
# counters) and must repeat bit for bit for the same seed; every other
# unit is host-measured and only has to stay within its bound.
EXACT_UNITS = {"cycles", "count", "uops", "entries", "ratio"}

# Layers a span name can start with. Time in other spans (the root
# 'rep' span's own time) is not attributed to any layer.
LAYERS = ["workloads", "trace", "harness", "sim", "analysis", "crashtest",
          "recovery"]


def quartiles(values):
    """First quartile, median, third quartile, as
    statistics.quantiles(values, n=4) gives them; a single value is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median (0 for a zero
    median, where the share is undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(before, after, better):
    """How much worse @p after is than @p before, as a share of
    @p before; negative when it is better."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def self_times(spans):
    """Each span's duration minus the part of it covered by its direct
    children, by span index. Children of one span may not overlap
    (spans come from one thread), but are merged defensively."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(i, []), key=lambda k: spans[k]["start"]):
            start = max(spans[c]["start"], reach)
            end = min(spans[c]["end"], s["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append((s["end"] - s["start"]) - covered)
    return result


def layer_of(name):
    """The layer a span name belongs to ('' for roots and probes)."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else ""


def rep_self_times(spans):
    """Per traced repetition, the summed self time of each span name.

    Returns {rep: {name: seconds}}; probes (rep -1) are left out, and
    root 'rep' spans keep their own uncovered time under 'rep'."""
    own = self_times(spans)
    reps = {}
    for s, t in zip(spans, own):
        if s["rep"] < 0:
            continue
        by_name = reps.setdefault(s["rep"], {})
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
    return reps


def probe_totals(spans):
    """Summed duration of each probe span name (rep -1)."""
    totals = {}
    for s in spans:
        if s["rep"] < 0:
            totals[s["name"]] = totals.get(s["name"], 0.0) + \
                s["end"] - s["start"]
    return totals


def share(part, rest):
    """part / (part + rest), clamped to [0, 1]; 1 when both are 0, so a
    missing split leaves everything with the first layer."""
    part, rest = max(part, 0.0), max(rest, 0.0)
    return part / (part + rest) if part + rest > 0 else 1.0


def layer_times(spans):
    """Per-layer host seconds of one traced repetition, medians over the
    traced repetitions, plus each repetition's coverage.

    TraceCache::get covers population and recording together; it is
    split between 'workloads' and 'trace' in the proportion the
    standalone populate and record probes took. Likewise the checked
    crash reference runs are split between 'sim' and 'analysis' by the
    share of the checked probe runs that the unchecked ones did not
    take. Returns ({span or layer name: seconds}, coverage), where
    coverage is the median share of a repetition's wall time that layer
    self times account for."""
    probes = probe_totals(spans)
    populate_share = share(probes.get("probe.populate", 0.0),
                           probes.get("probe.record", 0.0))
    checked = probes.get("probe.checked_reference", 0.0)
    check_share = 1.0 - share(probes.get("probe.unchecked_reference", 0.0),
                              checked - probes.get(
                                  "probe.unchecked_reference", 0.0))
    walls = {}
    for s in spans:
        if s["name"] == "rep" and s["rep"] >= 0:
            walls[s["rep"]] = s["end"] - s["start"]
    per_rep = []
    coverage = []
    for rep, by_name in sorted(rep_self_times(spans).items()):
        row = dict(by_name)
        get = row.pop("harness.get", 0.0)
        row["workloads.populate"] = get * populate_share
        row["trace.record"] = get * (1.0 - populate_share)
        run = row.pop("sim.simulate_checked", 0.0)
        row["sim.simulate"] = row.get("sim.simulate", 0.0) + \
            run * (1.0 - check_share)
        row["analysis.check"] = run * check_share
        per_rep.append(row)
        attributed = sum(t for n, t in row.items() if layer_of(n))
        coverage.append(attributed / walls[rep] if walls.get(rep) else 0.0)
    names = sorted({n for row in per_rep for n in row})
    medians = {n: statistics.median([row.get(n, 0.0) for row in per_rep])
               for n in names}
    return medians, (statistics.median(coverage) if coverage else 0.0)
