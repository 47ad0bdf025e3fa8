#!/usr/bin/env python3
"""Quick-scale self-test of the benchmark.

Runs every workload at scale 0.05 (the inputs --quick selects) once
untraced and once traced, and asserts that each prints every metric
BENCHMARK.json names exactly once with its unit and passes the output,
fidelity and span-tree checks. It also checks that the checks catch what
they are for, and that the benchmark refuses to run outside a checkout.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

QUICK_SCALE = "0.05"


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "42", "--seconds", "0", "--trace",
           str(trace), "--scale", QUICK_SCALE]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail("%s --trace %d exited %d: %s" % (workload, trace,
                                              out.returncode, out.stderr))
    return out.stdout.strip().splitlines()


def check_output(workload, trace, lines, expected):
    result = json.loads(lines[-1])
    what = "%s --trace %d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s: %s" % (what, "; ".join(lines[:-1])))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("%s: metrics %s, expected %s" % (what, got, expected))
    printed = [line.split() for line in lines[:-1]]
    for name, unit in expected.items():
        hits = [f for f in printed if f and f[0] == name]
        if len(hits) != 1 or hits[0][-1] != unit:
            fail("%s: %s printed %d times (%s)" % (what, name, len(hits),
                                                   hits))


def check_checks():
    """The checks must flag what they exist to catch."""
    ref = {"MDS": {"4MB": "1.5"}, "SHOT": {"4MB": "2"}}
    if run.compare_csv(dict(ref), ref, ["MDS", "SHOT"]):
        fail("compare_csv flags equal rows")
    diff = run.compare_csv(dict(ref, MDS={"4MB": "1.6"}), ref,
                           ["MDS", "SHOT"])
    if not diff or "4MB" not in diff:
        fail("compare_csv misses a changed value: %r" % diff)
    if not run.compare_csv({"MDS": ref["MDS"]}, ref, ["MDS", "SHOT"]):
        fail("compare_csv misses a missing row")

    traced = {"ticks": ["4MB"], "results": {"MDS": [31.25]}}
    if run.check_fidelity("fig4_serial", traced, None, {"MDS": [31.25]}):
        fail("check_fidelity flags identical MPKIs")
    err = run.check_fidelity("fig4_serial", traced, None,
                             {"MDS": [31.250000000000004]})
    if not err or "MDS 4MB" not in err or "31.25" not in err:
        fail("check_fidelity misses a one-ulp MPKI change: %r" % err)

    def span(i, parent, ts, dur):
        return {"name": "s%d" % i, "ts": ts, "dur": dur,
                "args": {"id": i, "parent": parent}}

    nested = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 40),
              span(3, 2, 60, 10)]
    total = sum(t for _, t in run.self_times(nested)) * 1e6
    if abs(total - 100) > 1e-9:
        fail("self times of a well-formed tree sum to %g, not 100" % total)
    overlapping = [span(0, -1, 0, 100), span(1, 0, 10, 50),
                   span(2, 0, 40, 50)]
    total = sum(t for _, t in run.self_times(overlapping)) * 1e6
    if abs(total - 100) <= 1:
        fail("self times hide overlapping children")


def check_seeds():
    """Every --seed must map onto an accepted input seed that has a
    reference for each workload; accepted seeds map onto themselves."""
    seeds = run.input_seeds()
    if seeds[0] != run.REFERENCE_SEED or len(seeds) < 2:
        fail("input seeds %s" % seeds)
    for s in seeds:
        if run.input_seed(s) != s:
            fail("accepted seed %d maps to %d" % (s, run.input_seed(s)))
        for w in run.WORKLOADS:
            if not os.path.isfile(run.reference_path(w, s)):
                fail("no reference for %s at seed %d" % (w, s))
    # A seed whose SHOT inputs fail self-verification at full scale.
    if run.input_seed(91527690) not in seeds:
        fail("seed 91527690 maps to %d" % run.input_seed(91527690))


def check_bare_directory():
    """Without the repository's sources the benchmark must fail without
    printing a result."""
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail("bare directory: exit %d, stdout %r" % (out.returncode,
                                                    out.stdout))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        fail("BENCHMARK.json workloads %s differ from run.py" % workloads)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if expected[0] != dict(run.END_TO_END) or (
            expected[1] != dict(run.PER_LAYER)):
        fail("BENCHMARK.json metrics differ from run.py")

    check_checks()
    check_seeds()
    check_bare_directory()
    for w in workloads:
        for trace in (0, 1):
            check_output(w, trace, run_bench(w, trace), expected[trace])
            print("selftest: %s --trace %d ok" % (w, trace), flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
