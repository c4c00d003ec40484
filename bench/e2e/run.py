#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

One run, printing aggbench's report; its last line is the result JSON:
  python3 bench/e2e/run.py --workload table6_cold --seed 42 --seconds 30 --trace 0
Run sets, every run in a fresh process, workload order alternating per run;
prints median and quartiles of each metric and writes a results JSON:
  python3 bench/e2e/run.py --runs 5 [--workloads a,b] [--seed 42[,7,...]]
Smoke (self-test, then every workload small, traced, all checks on):
  python3 bench/e2e/run.py --smoke
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "aggbench")
WORKLOADS = ["table6_cold", "fleet_shared", "recheck_refresh"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds aggbench; tool output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "aggbench", "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def trace_problem(path):
    """None when the trace parses as JSON and its B/E events nest per lane."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return "unreadable trace %s: %s" % (path, e)
    stacks = {}
    for e in events:
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append(e["name"])
        elif not stack or stack.pop() != e["name"]:
            return "trace %s: unmatched end of %r" % (path, e["name"])
    if any(stacks.values()):
        return "trace %s: spans left open" % path
    return None


def manifest_metrics(trace):
    """Metric names BENCHMARK.json promises for a run, in order."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs aggbench in a fresh process. Returns (stdout, result or None)."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces",
                                  "%s-seed%d.json" % (workload, seed))
        cmd.append("--trace=" + trace_path)
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "", None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.stdout, None
    problem = trace_problem(trace_path) if trace_path else None
    expected = manifest_metrics(trace)
    if problem is None and expected and list(result["metrics"]) != expected:
        problem = "metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ set(expected))
    if problem or proc.returncode != 0:
        result["correct"] = False
    if problem:
        lines.insert(-1, "CHECK FAILED: " + problem)
    samples = re.search(r"samples=(\d+)", proc.stdout)
    check_s = re.search(r"check_s_per_pass=(\S+)", proc.stdout)
    result["samples"] = int(samples.group(1)) if samples else 0
    result["check_s_per_pass"] = float(check_s.group(1)) if check_s else 0.0
    return "\n".join(lines[:-1]), result


def contract_line(result):
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / median if median else 0.0}


def run_set(args):
    seeds = [int(s) for s in args.seed.split(",")]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    runs = {w: [] for w in workloads}
    ok = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        seed = seeds[r % len(seeds)]
        for w in order:
            start = time.monotonic()
            _, result = run_once(w, seed, args.seconds, args.trace, args.smoke)
            wall = time.monotonic() - start
            if result is None:
                print("run %d %s seed %d: no result" % (r, w, seed))
                ok = False
                continue
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            ok = ok and result["correct"] and result["failed"] == 0
            print("run %d %-16s seed %-4d %5.1fs correct=%s samples=%d"
                  % (r, w, seed, wall, result["correct"], result["samples"]),
                  flush=True)

    summary = {}
    for w, results in runs.items():
        if not results:
            continue
        summary[w] = {}
        print("\n%s (%d runs)" % (w, len(results)))
        print("  %-32s %-8s %14s %14s %14s %7s" %
              ("metric", "unit", "median", "q1", "q3", "iqr/med"))
        names = list(results[0]["metrics"]) + ["check_s_per_pass", "wall_s"]
        for name in names:
            if name in results[0]["metrics"]:
                unit = results[0]["metrics"][name]["unit"]
                values = [x["metrics"][name]["value"] for x in results]
            else:
                unit = "s"
                values = [x[name] for x in results]
            s = summarize(values)
            s["unit"] = unit
            summary[w][name] = s
            print("  %-32s %-8s %14.6g %14.6g %14.6g %6.1f%%" %
                  (name, unit, s["median"], s["q1"], s["q3"],
                   100 * s["spread"]))

    out = args.out or os.path.join(
        BUILD, "results", time.strftime("results-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seeds": seeds, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke,
                   "summary": summary, "runs": runs}, f, indent=1)
        f.write("\n")
    print("\nwrote %s\nall runs correct: %s" % (out, ok))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--workloads", help="comma list for --runs (default: all)")
    p.add_argument("--seed", default="42",
                   help="seed; for --runs a comma list used round-robin")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="results JSON path for --runs")
    args = p.parse_args()

    build()
    if args.smoke and args.runs is None:
        if subprocess.run([BINARY, "--self-test"]).returncode:
            return 1
        args.runs, args.seconds, args.trace = 1, 1, 1
        return run_set(args)
    if args.runs is not None:
        return run_set(args)
    if args.workload is None:
        p.error("give --workload, --runs or --smoke")
    report, result = run_once(args.workload, int(args.seed), args.seconds,
                              args.trace, args.smoke)
    print(report)
    if result is None:
        return 1
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
