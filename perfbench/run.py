#!/usr/bin/env python3
"""Benchmark entry point (README.md).

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root.  Builds the driver from ../src with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the one workload in its own process, and prints the result object as the
last stdout line.  Metric names and units come from BENCHMARK.json:
the driver prints only the values it measures, and a per-layer metric of a
layer the workload leaves idle reads 0.  With --trace 1 it also reads the
Chrome trace the driver wrote, adds the metrics computed from it
(self.<layer>_s, the per-layer self time per solve, and
fuzz.trial_p<NN>_us, trial duration percentiles) and writes them next to
the trace.  Exits non-zero without a result when the build or any step
fails.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

DRIVER_TIMEOUT_S = 170
SELF_METRIC = re.compile(r"self\.(\w+)_s")
TRIAL_PERCENTILE = re.compile(r"fuzz\.trial_p(\d+)_us")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(src_dir, build_dir):
    """Configure once, then an incremental build of the driver only."""
    log = sys.stderr
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", src_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
           "-j", "4"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def self_times(events):
    """Self time of every complete span: its duration minus the part its
    direct children cover.  Spans nest per (pid, tid) lane."""
    spans = sorted((e for e in events if e.get("ph") == "X"),
                   key=lambda e: (e.get("pid", 0), e.get("tid", 0),
                                  e["ts"], -e["dur"]))
    out, stack = [], []
    for e in spans:
        lane = (e.get("pid", 0), e.get("tid", 0))
        node = {"name": e["name"], "cat": e.get("cat", ""), "ts": e["ts"],
                "dur": e["dur"], "lane": lane, "child": 0, "parent": None}
        while stack and (stack[-1]["lane"] != lane or
                         e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]):
            stack.pop()
        if stack:
            node["parent"] = stack[-1]
            stack[-1]["child"] += e["dur"]
        stack.append(node)
        out.append(node)
    for n in out:
        n["self"] = max(n["dur"] - n["child"], 0)
    return out


def solve_root(n):
    while n is not None and n["name"] != "solve":
        n = n["parent"]
    return n


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1,
                   int(round(q * len(sorted_vals) + 0.5)) - 1))
    return sorted_vals[k]


def trace_metrics(trace_path, names, overhead):
    """Values of the per-layer metrics in `names` that come from the trace
    (self time per solve as a median over traced solves, fuzz trial
    percentiles), and the self-time file written beside the trace."""
    with open(trace_path) as f:
        nodes = self_times(json.load(f)["traceEvents"])
    per_solve = {}
    per_span = {}
    for n in nodes:
        per_span[n["name"]] = per_span.get(n["name"], 0) + n["self"]
        root = solve_root(n)
        if root is not None:
            layers = per_solve.setdefault(id(root), {})
            layers[n["cat"]] = layers.get(n["cat"], 0) + n["self"]
    trials = sorted(n["dur"] for n in nodes if n["name"] == "fuzz.trial")
    values, self_s = {}, {}
    for name in names:
        if m := SELF_METRIC.fullmatch(name):
            vals = [s.get(m[1], 0) * 1e-6 for s in per_solve.values()] or [0]
            values[name] = self_s[name] = statistics.median(vals)
        elif m := TRIAL_PERCENTILE.fullmatch(name):
            q = int(m[1]) / 100
            values[name] = percentile(trials, q) if trials else 0
    selftime = {
        "trace": os.path.basename(trace_path),
        "solves": len(per_solve),
        "trace.overhead": overhead,
        "self_s_per_solve": self_s,
        "self_s_by_span": {k: v * 1e-6 for k, v in sorted(per_span.items())},
    }
    path = trace_path.replace(".trace.json", ".selftime.json")
    with open(path, "w") as f:
        json.dump(selftime, f, indent=1, sort_keys=True)
    return values


def result_object(spec, trace, driver_result, values):
    """The result line: every metric BENCHMARK.json lists for this mode,
    with its unit.  End-to-end metrics must all be measured; per-layer
    ones a workload does not exercise read 0."""
    listed = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        fail(f"values not listed in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in listed:
        if m["name"] not in values and not trace:
            fail(f"the driver measured no {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    return {k: driver_result[k] for k in ("correct", "attempted", "failed")} | {
        "metrics": metrics}


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(bench_dir, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    out_dir = os.path.abspath(os.path.join(target, "perfbench-out"))
    os.makedirs(out_dir, exist_ok=True)
    driver = build(bench_dir, build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    driver_result = json.loads(lines[-1])
    values = driver_result["values"]
    if args.trace:
        trace = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")
        names = [m["name"] for m in spec["per_layer"]]
        values |= trace_metrics(trace, names, values.get("trace.overhead"))
    result = result_object(spec, args.trace, driver_result, values)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
