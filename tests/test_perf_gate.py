#!/usr/bin/env python3
"""Self-test of tools/perf_gate.py on synthetic run lines.

Feeds the gate ten base and ten head runs of `perfbench/run.py
--workload all` output built from BENCHMARK.json's workloads and
end-to-end metrics, varying one metric or one run per case, and checks
the exit status and the verdict the gate prints.

    python3 tests/test_perf_gate.py tools/perf_gate.py BENCHMARK.json
"""

import json
import os
import subprocess
import sys
import tempfile

RUNS = 10


def fail(msg):
    print("perf_gate selftest: FAIL: " + msg)
    sys.exit(1)


def run_line(spec, overrides=None, **fields):
    """One run's last stdout line: every metric at 10.0 unless overridden."""
    metrics = {}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = "%s.%s" % (w["name"], m["name"])
            metrics[key] = {"value": 10.0, "unit": m["unit"]}
    for key, value in (overrides or {}).items():
        if value is None:
            metrics.pop(key)
        else:
            metrics[key] = {"value": value, "unit": "s"}
    line = {"correct": True, "attempted": 18, "failed": 0,
            "metrics": metrics}
    line.update(fields)
    return json.dumps(line)


def gate(gate_py, spec_path, tmp, base, head):
    paths = []
    for name, lines in (("base", base), ("head", head)):
        path = os.path.join(tmp, name + ".jsonl")
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in lines))
        paths.append(path)
    out = subprocess.run([sys.executable, gate_py, spec_path] + paths,
                         capture_output=True, text=True)
    return out.returncode, out.stdout + out.stderr


def row(output, key):
    workload, metric = key.split(".")
    for line in output.splitlines():
        cols = line.split()
        if cols[:2] == [workload, metric]:
            return line
    fail("no row for %s in:\n%s" % (key, output))


def main(argv):
    if len(argv) != 3:
        print("usage: test_perf_gate.py perf_gate.py BENCHMARK.json",
              file=sys.stderr)
        return 2
    gate_py, spec_path = argv[1], argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    key = "fig4_serial.wall_s"
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "wall_s")
    if not 0.1 < bound < 0.3:
        fail("cases assume a wall_s bound in (0.1, 0.3), not %g" % bound)

    # Base wall times 9.5..10.4: quartile distance 0.45, median 9.95.
    steady = [9.5 + 0.1 * i for i in range(RUNS)]
    base = [run_line(spec, {key: v}) for v in steady]

    def scaled(factor):
        return [run_line(spec, {key: v * factor}) for v in steady]

    # Quartiles 8 and 12 around a median of 10: spread 0.4.
    wide = [8.0] * 4 + [10.0] * 2 + [12.0] * 4
    cases = [
        ("1.5x head", base, scaled(1.5), 1, "regressed"),
        ("1.1x head", base, scaled(1.1), 0, "ok"),
        ("unchanged head", base, list(base), 0, "ok"),
        ("1.3x head over a 0.4 spread",
         [run_line(spec, {key: v}) for v in wide],
         [run_line(spec, {key: 13.0})] * RUNS, 0, "unresolved"),
        ("a head run with correct: false", base,
         base[:-1] + [run_line(spec, {key: 9.9}, correct=False)], 1, "ok"),
        ("a head run that printed no JSON", base, base[:-1] + [""], 1,
         "ok"),
        ("more failed head passes", base,
         base[:-1] + [run_line(spec, {key: 9.9}, failed=1)], 1, "ok"),
        ("a metric only the head reports",
         [run_line(spec, {key: None}) for _ in steady], base, 0,
         "head only"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, b, h, want_rc, want_verdict in cases:
            rc, output = gate(gate_py, spec_path, tmp, b, h)
            if rc != want_rc:
                fail("%s: exit %d, want %d:\n%s" % (name, rc, want_rc,
                                                    output))
            if not row(output, key).rstrip().endswith(want_verdict):
                fail("%s: want verdict %r:\n%s" % (name, want_verdict,
                                                   output))
            print("ok: %s -> exit %d, %s" % (name, rc, want_verdict))
    print("perf_gate selftest: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
