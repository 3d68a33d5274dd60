#!/usr/bin/env python3
"""Build and run the serving benchmark.

One run (the form BENCHMARK.json names):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark from source (offline, into $CARGO_TARGET_DIR,
default .bench_build) and runs one workload. The last line of standard
output is the run's JSON result; diagnostics go to standard error.

Steadiness:

    python3 servebench/run.py steady [--runs 10] [--seconds <s>] [--workloads a,b]

runs every workload `--runs` times with distinct seeds (set A), then
every workload again with other seeds (set B), so the two sets are taken
at different times and not interleaved. It prints, per workload and
metric, each set's median and quartiles, the spread (interquartile
distance over the median) and whether the sets agree within the bounds
in BENCHMARK.json, plus every run's host-speed reading. The sets agree
when every spread, setup_s's too, is within its metric's bound and the
two medians of every metric differ by at most the bound, in either
direction (larger over smaller, minus one).

Run both from the root of the repository.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        sys.exit("servebench: build failed")
    return os.path.join(target_dir(), "release", "servebench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result, diagnostics, exit code)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", os.path.join(ROOT, ".bench_build", "servebench"),
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    diag = {}
    for line in res.stderr.splitlines():
        if line.startswith("servebench-diag "):
            diag = json.loads(line[len("servebench-diag "):])
        elif line.strip():
            print(line, file=sys.stderr)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, diag, res.returncode


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    runs, seconds, workloads = 10, None, None
    it = iter(args)
    for flag in it:
        value = next(it, None)
        if value is None:
            sys.exit(f"servebench: {flag} needs a value")
        if flag == "--runs":
            runs = int(value)
        elif flag == "--seconds":
            seconds = int(value)
        elif flag == "--workloads":
            workloads = value.split(",")
        else:
            sys.exit(f"servebench: unknown flag {flag}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = seconds if seconds is not None else bench["run_seconds"]
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    binary = build()
    sets = {}
    for label, first_seed in (("A", 1000), ("B", 2000)):
        for w in workloads:
            for i in range(runs):
                seed = first_seed + i
                result, diag, code = run_once(binary, w, seed, seconds, 0)
                row = {"seed": seed, "code": code, "result": result,
                       "host_alu_ns": diag.get("host_alu_ns"),
                       "host_mem_ns": diag.get("host_mem_ns")}
                sets.setdefault((label, w), []).append(row)
                metrics = result["metrics"] if result else {}
                short = " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
                print(f"set {label} {w} seed {seed} exit {code} "
                      f"host alu {diag.get('host_alu_ns')} mem {diag.get('host_mem_ns')} {short}",
                      flush=True)
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':24} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        shares = {}
        for label in ("A", "B"):
            rows = sets[(label, w)]
            att = sum(r["result"]["attempted"] for r in rows if r["result"])
            fail = sum(r["result"]["failed"] for r in rows if r["result"])
            shares[label] = (fail, att)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = {}
            for label in ("A", "B"):
                vals = [r["result"]["metrics"][name]["value"]
                        for r in sets[(label, w)] if r["result"]]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds[label] = q2
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                print(f"  {name:24} {label:3} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.3f}{flag}")
            a, b = meds["A"], meds["B"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            apart = max(a, b) / min(a, b) - 1 if min(a, b) > 0 else float("inf")
            agree = apart <= bound
            ok = ok and agree
            print(f"  {name:24} B vs A: {100 * worse:+.2f} % worse, "
                  f"{100 * apart:.2f} % apart "
                  f"({'within' if agree else 'OUTSIDE'} bound)")
        fa, fb = shares["A"], shares["B"]
        same = fa[0] * fb[1] == fb[0] * fa[1]
        ok = ok and same
        print(f"  failed share: A {fa[0]}/{fa[1]}, B {fb[0]}/{fb[1]} "
              f"({'same' if same else 'DIFFERENT'})")
    print("\nsteady: " + ("the two sets agree" if ok else "the sets DISAGREE"))
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    binary = build()
    res = subprocess.run([binary] + argv, cwd=ROOT)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
