#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the co-simulator.

Runs one of four full-scale figure workloads through the bench binaries
a user types, as a closed loop of passes (one pass at a time, each a
fresh process), checks every pass's CSV against a reference, and prints
the metrics with their units. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fig4_serial --seed 42 \
        --seconds 28 --trace 0

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced passes with traced ones, in which the
probe composes the same cells from the library's public calls and times
each layer, and reports the per-layer metrics. --workload all runs every
workload in turn. --seed picks one of the input seeds make_reference.py
accepted, whose inputs pass the workloads' self-verification, and each
full-scale pass is checked against that seed's committed CSVs. The
program is built
from source into .bench_build
(or $CARGO_TARGET_DIR) on first use. README.md in this directory says
why each workload and metric is here.
"""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed the committed results/ were produced with; at full scale a pass
# at this seed is checked against them.
REFERENCE_SEED = 42
# The other input seeds make_reference.py accepted, one directory each
# (seed<N>/) holding the bench CSVs a pass at that seed is checked
# against. Some seeds' inputs fail the workloads' self-verification, so
# --seed is mapped onto these (see input_seed).
REFERENCE_DIR = os.path.join(HERE, "reference")

# SNP is left out (its input generation is unsteady) and FIMI runs only
# in Table 2 (a fig4 FIMI pass alone takes 10 s); see README.md.
FIG_PAPER = ["MDS", "SHOT"]
TABLE2_PAPER = ["SVM-RFE", "MDS", "SHOT", "FIMI", "VIEWTYPE", "PLSA",
                "RSEARCH"]

# name -> (bench binary, paper workloads, extra arguments, CSV it
# writes, whether it writes run.json)
WORKLOADS = {
    "fig4_serial": ("fig4_scmp", FIG_PAPER, [], "fig4_scmp.csv", True),
    "fig4_emu3": ("fig4_scmp", FIG_PAPER, ["--emu-threads=3"],
                  "fig4_scmp.csv", True),
    "fig7_replay": ("fig7_linesize", FIG_PAPER, ["--cells=replay"],
                    "fig7_linesize.csv", True),
    "table2_p4": ("table2_characteristics", TABLE2_PAPER, [], "table2.csv",
                  False),
}

# Table 2 CSV columns the probe reproduces, in its result order.
TABLE2_COLUMNS = ["ipc", "insts", "mem_pct", "read_pct", "dl1_apki",
                  "dl1_mpki", "dl2_mpki"]

FIG4_TICKS = ["4MB", "8MB", "16MB", "32MB", "64MB", "128MB", "256MB"]
FIG7_TICKS = ["64B", "128B", "256B", "512B", "1KB", "2KB", "4KB"]

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = (
    [("workloads.setup_s", "s"), ("workloads.footprint_mb", "MB"),
     ("softsdv.guest_s", "s"), ("softsdv.minsts", "Minst"),
     ("softsdv.guest_mips", "MIPS"), ("softsdv.slices", "count"),
     ("cache.l1_maccesses", "Maccess"), ("cache.l1_miss_ratio", "ratio"),
     ("cache.l2_miss_ratio", "ratio"), ("mem.fsb_mtxns", "Mtxn"),
     ("mem.fsb_chunks", "count"), ("dragonhead.build_s", "s"),
     ("dragonhead.emulate_s", "s")]
    + [("dragonhead.%s.emulate_s" % t, "s") for t in FIG4_TICKS + FIG7_TICKS]
    + [("dragonhead.mtxn_cfg_per_s", "Mtxn/s"),
       ("dragonhead.miss_ratio", "ratio"),
       ("dragonhead.forward_ratio", "ratio"),
       ("dragonhead.cb_samples", "count"),
       ("trace.encode_s", "s"), ("trace.decode_s", "s"),
       ("trace.bytes_per_txn", "B/txn"),
       ("core.handoff_s", "s"), ("core.drain_s", "s"),
       ("core.queue_peak", "count"), ("core.failed_workers", "count"),
       ("unattributed_s", "s")])

# Fewest passes a run makes, whatever --seconds says: wall_s and setup_s
# are the fastest pass, and one pass alone is as noisy as the host. With
# two, the ~10 s passes of fig4_serial and fig7_replay spread 0.17 and
# 0.30 over ten runs. The per-layer metrics have no bound, so one traced
# pair will do.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 1
# A workload's run must end within 180 s of its start (the build before
# it aside): a child still running this long after the start is killed
# and its pass fails.
RUN_LIMIT_S = 170
# Traced self times must sum to the traced pass's wall within this share.
SPAN_SUM_TOLERANCE = 0.01


class BenchError(Exception):
    """A failed build or probe call."""


# ----------------------------------------------------------------------
# Build


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def checkout_env(**extra):
    """Environment that keeps git from searching above the checkout."""
    return dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
                **extra)


def build():
    """Configure and build the benches and the probe from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("%s is not a cosim checkout (no src/)" % ROOT)
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = checkout_env(TMPDIR=tmp)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(cmd))
    return bdir


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=checkout_env())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# One pass


def time_left(args):
    return max(1.0, args.deadline - time.monotonic())


def run_child(cmd, cwd, stdout_path, args):
    """Spawn @p cmd and wait for it; returns (exit code, wall s, CPU s,
    peak RSS in MB). wait4 gives the child's own rusage."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(time_left(args), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def read_csv(path):
    """CSV rows keyed by their first column, minus the status column."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    table = {}
    for row in rows[1:]:
        table[row[0]] = {k: v for k, v in zip(header[1:], row[1:])
                         if k != "status"}
    return table


def compare_csv(got, ref, rows):
    """First difference between a pass's CSV and its reference; the pass
    must hold exactly the @p rows it asked for."""
    if sorted(got) != sorted(rows):
        return "rows %s, expected %s" % (sorted(got), sorted(rows))
    for name in rows:
        if name not in ref:
            return "row %s missing from the reference" % name
        for col, value in got[name].items():
            want = ref[name].get(col)
            if want is not None and value != want:
                return "%s %s: %s, reference %s" % (name, col, value, want)
    return None


def untraced_pass(w, bdir, args, out):
    """Run the workload's bench once; returns the pass record, its CSV
    table and (for the figures) the full-precision MPKIs of run.json."""
    bench, paper, extra, csv_name, has_manifest = WORKLOADS[w]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [os.path.join(bdir, bench), "--workloads=" + ",".join(paper)] + (
        extra + ["--seed=%d" % args.seed, "--scale=%g" % args.scale,
                 "--out=" + out])
    code, wall, cpu, rss = run_child(cmd, out,
                                     os.path.join(out, "stdout.txt"), args)
    rec = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "exit": code,
           "ok": code == 0, "error": None}
    if code != 0:
        rec["error"] = "%s exited with %d" % (bench, code)
        return rec, None, None
    table = read_csv(os.path.join(out, csv_name))
    mpkis = None
    if has_manifest:
        with open(os.path.join(out, "run.json")) as f:
            mpkis = {m["name"]: m["mpki_per_config"]
                     for m in json.load(f)["workloads"]}
    return rec, table, mpkis


def probe(bdir, mode, w, args, extra=()):
    cmd = [os.path.join(bdir, "perfbench_probe"), mode, w,
           "--seed=%d" % args.seed, "--scale=%g" % args.scale] + list(extra)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=time_left(args))
    except subprocess.TimeoutExpired:
        raise BenchError("probe %s %s timed out" % (mode, w)) from None
    if out.returncode != 0:
        raise BenchError("probe %s %s failed: %s" % (mode, w,
                                                     out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def input_seeds():
    """Every input seed whose full-scale inputs pass self-verification."""
    seeds = [int(d[4:]) for d in os.listdir(REFERENCE_DIR)
             if d.startswith("seed") and d[4:].isdigit()]
    return [REFERENCE_SEED] + sorted(seeds)


def input_seed(seed):
    """The input seed a run at @p seed uses: the seed itself if it was
    accepted, else one of the accepted seeds picked by @p seed."""
    seeds = input_seeds()
    return seed if seed in seeds else seeds[seed % len(seeds)]


def reference_path(w, seed):
    if seed == REFERENCE_SEED:
        return os.path.join(ROOT, "results", WORKLOADS[w][3])
    return os.path.join(REFERENCE_DIR, "seed%d" % seed, WORKLOADS[w][3])


def reference_table(w, args):
    """Committed reference at full scale; otherwise the run's first
    passing pass becomes it."""
    if args.scale != 1.0:
        return None
    return read_csv(reference_path(w, args.seed))


def check_pass(w, rec, table, ref):
    """Apply the output check; the first passing CSV becomes the
    reference when no committed one applies."""
    if not rec["ok"]:
        return ref
    diff = compare_csv(table, table if ref is None else ref, WORKLOADS[w][1])
    if diff:
        rec["ok"] = False
        rec["error"] = "CSV differs from reference: " + diff
        return ref
    return table if ref is None else ref


# ----------------------------------------------------------------------
# Traced pass analysis


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to it."""
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    out = []
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s["args"]["id"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], start), min(c["ts"] + c["dur"], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s, (s["dur"] - covered) / 1e6))
    return out


def check_fidelity(w, traced, table, mpkis):
    """Traced simulated results must equal the untraced bench's: every
    per-config MPKI bit for bit, every Table 2 column as written."""
    for name, values in traced["results"].items():
        if w == "table2_p4":
            for col, v in zip(TABLE2_COLUMNS, values):
                want = table[name][col]
                if "%.10g" % v != want:
                    return "%s %s %s: traced %.10g, untraced %s" % (
                        w, name, col, v, want)
            continue
        for tick, v, want in zip(traced["ticks"], values, mpkis[name]):
            if v != want:
                return "%s %s %s: traced MPKI %r, untraced %r" % (
                    w, name, tick, v, want)
    return None


def layer_metrics(traced, spans, untraced_wall):
    """Per-layer metrics from one traced pass and the untraced wall."""
    per = {}
    total = 0.0
    root = None
    for s, self_s in self_times(spans):
        total += self_s
        key = s["name"]
        if s["name"] == "dragonhead.emulate":
            key += "." + s["args"]["config"]
        per[key] = per.get(key, 0.0) + self_s
        if s["args"]["parent"] == -1:
            root = s["dur"] / 1e6
    c = traced["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: 0.0 for name, _ in PER_LAYER}
    m["workloads.setup_s"] = per.get("workloads.setup", 0.0)
    m["workloads.footprint_mb"] = c["footprint_max_bytes"] / 2**20
    m["softsdv.guest_s"] = per.get("softsdv.run", 0.0)
    m["softsdv.minsts"] = c["insts"] / 1e6
    m["softsdv.guest_mips"] = ratio(m["softsdv.minsts"],
                                    m["softsdv.guest_s"])
    m["softsdv.slices"] = c["slices"]
    m["cache.l1_maccesses"] = c["l1_accesses"] / 1e6
    m["cache.l1_miss_ratio"] = ratio(c["l1_misses"], c["l1_accesses"])
    m["cache.l2_miss_ratio"] = ratio(c["l2_misses"], c["l2_accesses"])
    m["mem.fsb_mtxns"] = c["fsb_txns"] / 1e6
    m["mem.fsb_chunks"] = c["fsb_chunks"]
    m["dragonhead.build_s"] = per.get("dragonhead.build", 0.0)
    for tick in traced["ticks"]:
        v = per.get("dragonhead.emulate." + tick, 0.0)
        m["dragonhead.%s.emulate_s" % tick] = v
        m["dragonhead.emulate_s"] += v
    m["dragonhead.mtxn_cfg_per_s"] = ratio(c["emulated_txns"] / 1e6,
                                           m["dragonhead.emulate_s"])
    m["dragonhead.miss_ratio"] = ratio(c["llc_misses"], c["llc_accesses"])
    m["dragonhead.forward_ratio"] = ratio(c["af_forwarded"],
                                          c["af_observed"])
    m["dragonhead.cb_samples"] = c["cb_samples"]
    m["trace.encode_s"] = per.get("trace.encode", 0.0)
    m["trace.decode_s"] = per.get("trace.decode", 0.0)
    m["trace.bytes_per_txn"] = ratio(c["stream_bytes"], c["stream_txns"])
    m["core.handoff_s"] = per.get("core.handoff", 0.0)
    m["core.drain_s"] = per.get("core.drain", 0.0)
    m["core.queue_peak"] = c["queue_peak"]
    m["core.failed_workers"] = c["failed_workers"]
    m["unattributed_s"] = untraced_wall - total
    return m, total, root


# ----------------------------------------------------------------------
# Runs


def another_pass(done, t0, args, minimum):
    """Closed loop: the next pass starts while it is expected, at the
    mean pass time so far, to end within --seconds."""
    elapsed = time.monotonic() - t0
    return done < minimum or elapsed + elapsed / done <= args.seconds


def measure(w, bdir, args, runs_dir):
    """Untraced run: the metrics are the fastest wall and set-up and the
    largest RSS over the passes that passed the output check."""
    ref = reference_table(w, args)
    passes = []
    t0 = time.monotonic()
    while another_pass(len(passes), t0, args, MIN_PASSES):
        rec, table, _ = untraced_pass(w, bdir, args,
                                      os.path.join(runs_dir, "pass"))
        ref = check_pass(w, rec, table, ref)
        try:
            rec["setup_s"] = probe(bdir, "setup", w, args)["setup_s"]
        except BenchError as e:
            rec["ok"], rec["error"] = False, str(e)
        passes.append(rec)
    ok = [p for p in passes if p["ok"]]
    metrics = {}
    if ok:
        metrics = {"wall_s": min(p["wall_s"] for p in ok),
                   "setup_s": min(p["setup_s"] for p in ok),
                   "peak_rss_mb": max(p["rss_mb"] for p in ok)}
    return passes, metrics, dict(END_TO_END)


def traced_pass(w, bdir, args, spans_path, rec, table, mpkis):
    """Run the probe's traced composition once and check it against the
    untraced pass @p rec that preceded it."""
    trec = {"traced": True, "ok": False, "error": None}
    try:
        traced = probe(bdir, "trace", w, args, ["--spans=" + spans_path])
    except BenchError as e:
        trec["error"] = str(e)
        return trec, None, None
    with open(spans_path) as f:
        spans = json.load(f)["traceEvents"]
    trec["wall_s"] = traced["wall_s"]
    if not rec["ok"]:
        trec["error"] = "no untraced pass to compare with"
        return trec, None, None
    trec["error"] = check_fidelity(w, traced, table, mpkis)
    _, total, root = layer_metrics(traced, spans, rec["wall_s"])
    if trec["error"] is None and abs(total - root) > (
            SPAN_SUM_TOLERANCE * root):
        trec["error"] = ("layer self times sum to %.6f s, traced pass "
                         "took %.6f s" % (total, root))
    trec["ok"] = trec["error"] is None
    return trec, traced, spans


def measure_traced(w, bdir, args, runs_dir):
    """Traced run: untraced and traced passes alternate; the fastest
    traced pass gives the layer times and the fastest untraced pass the
    wall they are set against."""
    ref = reference_table(w, args)
    passes = []
    best = None
    t0 = time.monotonic()
    spans_path = os.path.join(runs_dir, "spans.json")
    while another_pass(len(passes) // 2, t0, args, MIN_TRACED_PAIRS):
        rec, table, mpkis = untraced_pass(w, bdir, args,
                                          os.path.join(runs_dir, "pass"))
        ref = check_pass(w, rec, table, ref)
        trec, traced, spans = traced_pass(w, bdir, args, spans_path, rec,
                                          table, mpkis)
        passes += [rec, trec]
        if trec["ok"] and (best is None
                           or traced["wall_s"] < best[0]["wall_s"]):
            best = (traced, spans)
            shutil.copyfile(spans_path,
                            os.path.join(runs_dir, "best-spans.json"))
    walls = [p["wall_s"] for p in passes if p["ok"] and not p.get("traced")]
    metrics = {}
    if best and walls:
        metrics, _, _ = layer_metrics(best[0], best[1], min(walls))
    return passes, metrics, dict(PER_LAYER)


def run_workload(w, bdir, args):
    args.deadline = time.monotonic() + RUN_LIMIT_S
    runs_dir = os.path.join(bdir, "runs", w)
    os.makedirs(runs_dir, exist_ok=True)
    fn = measure_traced if args.trace else measure
    passes, metrics, units = fn(w, bdir, args, runs_dir)
    failed = sum(1 for p in passes if not p["ok"])
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    record = {
        "schema": "cosim-perfbench-run/1",
        "workload": w, "seed": args.requested_seed,
        "input_seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "git": git_revision(), "build_type": build_type(bdir),
        "nproc": os.cpu_count(), "passes": passes, "result": result,
    }
    path = os.path.join(bdir, "runs", "%s-seed%d-trace%d.json" % (
        w, args.requested_seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print("%s: seed %d (inputs of seed %d), scale %g, %d passes, %d failed, "
          "build %s, nproc %s, git %s" % (
              w, args.requested_seed, args.seed, args.scale, len(passes),
              failed, record["build_type"], record["nproc"], record["git"]))
    for p in passes:
        if p["error"]:
            print("  FAILED pass: " + p["error"])
    for k, v in result["metrics"].items():
        print("  %-28s %14.6f %s" % (k, v["value"], v["unit"]))
    print("  raw passes: " + path)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="measuring time per workload (default 28)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input scale passed to the benches (default 1; "
                         "0.05 is what --quick selects)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0.0 < args.scale <= 1.0:
        ap.error("--scale must be in (0, 1]")

    try:
        bdir = build()
        args.requested_seed = args.seed
        args.seed = input_seed(args.seed)
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        results = {w: run_workload(w, bdir, args) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
