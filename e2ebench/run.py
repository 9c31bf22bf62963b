#!/usr/bin/env python3
"""Build and run the HaVen end-to-end benchmark (see workloads.json).

One workload, one seed (the last stdout line is the JSON result):
    python3 e2ebench/run.py --workload rtllm_sim --seed 1 --seconds 30 --trace 0

Every workload on several seeds, with each end-to-end metric's median and
quartile spread, optionally recorded as a baseline file and compared with
an earlier one (each median's move against the metric's bound in
BENCHMARK.json):
    python3 e2ebench/run.py --all --seeds 1,2 --seconds 30 [--record PATH]
                            [--compare PATH]

A serve_mixed run whose job generator fell behind its schedule prints
"INVALID RUN"; --all leaves such runs out of the medians and counts them.

Run from the repository root. The benchmark is built from source into
.bench_build/ (CMake, Release); traced runs write their spans to
.bench_build/traces/. Exits non-zero on a build failure and on any verdict
or accounting mismatch.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ["rtllm_sim", "human_fastpath", "serve_mixed"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no HaVen sources next to the benchmark (expected src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed")


def run_one(workload, seed, seconds, trace, echo=True):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(BUILD, "traces", "%s-seed%s.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    valid = not any(line.startswith("INVALID RUN") for line in lines)
    return proc.returncode, result, valid


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def compare(summary, path):
    """Print each median's move from the recorded baseline at `path`, as a
    share of the baseline median; returns 1 if a move in the worse
    direction exceeds the metric's bound."""
    with open(path) as f:
        base = json.load(f)["workloads"]
    limits, status = bounds(), 0
    print("\nagainst %s (move of the median, worse direction positive):" % path)
    for workload, data in summary.items():
        for name, m in data["end_to_end"].items():
            was = base.get(workload, {}).get("end_to_end", {}).get(name)
            if not was or name not in limits:
                continue
            bound, better = limits[name]
            move = (m["median"] - was["median"]) / was["median"]
            worse = move if better == "lower" else -move
            over = worse > bound
            status |= over
            print("  %-15s %-18s %+8.4f  bound %.2f  %s"
                  % (workload, name, worse, bound, "OVER" if over else "ok"))
    return status


def run_all(seeds, seconds, record, baseline):
    summary, status = {}, 0
    for workload in WORKLOADS:
        values, invalid = {}, 0
        for seed in seeds:
            rc, result, valid = run_one(workload, seed, seconds, 0)
            if rc != 0 or result is None or not result["correct"]:
                status = 1
                continue
            if not valid:
                invalid += 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rc, traced, _ = run_one(workload, seeds[0], seconds, 1)
        status |= rc != 0
        summary[workload] = {"seeds": seeds, "invalid_runs": invalid,
                             "end_to_end": {}, "per_layer": {}}
        for name, vals in values.items():
            med, spr = spread(vals) if len(vals) > 1 else (vals[0], 0.0)
            summary[workload]["end_to_end"][name] = {
                "median": med, "iqr_share": spr, "values": vals}
        if traced is not None:
            summary[workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    print("\nsummary (median, quartile spread as a share of the median):")
    for workload, data in summary.items():
        if data["invalid_runs"]:
            print("  %-15s %d invalid run(s) left out" % (workload, data["invalid_runs"]))
        for name, m in data["end_to_end"].items():
            print("  %-15s %-18s %14.6g  spread %.4f  (n=%d)"
                  % (workload, name, m["median"], m["iqr_share"], len(m["values"])))
    if record:
        with open(record, "w") as f:
            json.dump({"seconds": seconds, "workloads": summary}, f, indent=1)
            f.write("\n")
    if baseline:
        status |= compare(summary, baseline)
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--record")
    p.add_argument("--compare")
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("--workload or --all is required")
    build()
    if args.all:
        return run_all([int(s) for s in args.seeds.split(",")], args.seconds, args.record,
                       args.compare)
    rc, _, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
