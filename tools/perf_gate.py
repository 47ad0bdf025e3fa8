#!/usr/bin/env python3
"""No-regression gate over perfbench runs of a base and a head commit.

Each run file holds one line per `perfbench/run.py --workload all` run:
the JSON object that run printed last, or an empty line when it printed
none. For every end-to-end metric and workload in BENCHMARK.json the gate
prints the base and head medians with their quartiles and a verdict:

    regressed   the head median is worse than the base median by more
                than the metric's bound (a fraction of the base median)
                and by more than the base's quartile distance; fails
    unresolved  not regressed, but the base's quartile distance over its
                median is wider than the bound; a warning only
    ok          neither
    base only / head only
                the metric appears in the runs of one side only; it is
                reported and not gated

A head run that printed no JSON or reports `correct: false`, or a head
failed/attempted share above the base's, also fails the gate.

    python3 tools/perf_gate.py BENCHMARK.json base.jsonl head.jsonl

Exit status: 0 pass, 1 regression or failed runs, 2 unreadable input.
"""

import json
import sys


def quantile(values, p):
    """Linear interpolation between closest ranks of sorted @values."""
    pos = (len(values) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def summary(values):
    v = sorted(values)
    return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)


def read_runs(path):
    """Parsed run objects, with None for a run that printed no JSON."""
    runs = []
    with open(path) as f:
        for line in f.read().splitlines():
            try:
                run = json.loads(line)
            except ValueError:
                run = None
            if not isinstance(run, dict) or not isinstance(
                    run.get("metrics"), dict):
                run = None
            runs.append(run)
    return runs


def values(runs, key):
    return [r["metrics"][key]["value"] for r in runs
            if r is not None and key in r["metrics"]]


def failure_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs if r is not None)
    failed = sum(r.get("failed", 0) for r in runs if r is not None)
    return failed / attempted if attempted else 0.0


def verdict(metric, base, head):
    """One row's verdict, and whether it fails the gate."""
    if not base or not head:
        return ("head only" if head else "base only"), False
    b_q1, b_med, b_q3 = summary(base)
    h_med = summary(head)[1]
    worse = h_med - b_med if metric["better"] == "lower" else b_med - h_med
    spread = b_q3 - b_q1
    if worse > metric["bound"] * abs(b_med) and worse > spread:
        return "regressed", True
    if spread > metric["bound"] * abs(b_med):
        return "unresolved", False
    return "ok", False


def cell(vals, unit):
    if not vals:
        return "-"
    q1, med, q3 = summary(vals)
    return "%.4g [%.4g-%.4g] %s" % (med, q1, q3, unit)


def main(argv):
    if len(argv) != 4:
        print("usage: perf_gate.py BENCHMARK.json base.jsonl head.jsonl",
              file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            spec = json.load(f)
        base = read_runs(argv[2])
        head = read_runs(argv[3])
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = spec["end_to_end"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("perf_gate: %s" % e, file=sys.stderr)
        return 2

    failed = False
    print("base: %d runs, head: %d runs" % (len(base), len(head)))
    for side, runs in (("base", base), ("head", head)):
        for i, run in enumerate(runs):
            if run is None or run.get("correct") is not True:
                print("%s run %d: %s" % (
                    side, i + 1,
                    "printed no JSON" if run is None else "correct: false"))
                failed = failed or side == "head"
    if not head:
        print("head: no runs")
        failed = True
    b_share, h_share = failure_share(base), failure_share(head)
    if h_share > b_share:
        print("head failed/attempted %.3f exceeds base %.3f" % (h_share,
                                                               b_share))
        failed = True

    rows = [("workload", "metric", "base median [q1-q3]",
             "head median [q1-q3]", "verdict")]
    for w in workloads:
        for m in metrics:
            key = "%s.%s" % (w, m["name"])
            b, h = values(base, key), values(head, key)
            v, fails = verdict(m, b, h)
            failed = failed or fails
            rows.append((w, m["name"], cell(b, m["unit"]),
                         cell(h, m["unit"]), v))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)) + "  " +
              r[4])
    print("perf_gate: %s" % ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
