#!/usr/bin/env python3
"""A/A check of the pipeline benchmark: do two sets of runs of the same code agree?

    benchmark/check_repeat.py [--seed N] [--seconds S] [--runs R] [--no-trace]
    benchmark/check_repeat.py --spread K [--seconds S]

Default mode makes two sets of the whole untraced set, R runs of every workload
each (default 3), alternating sets and workloads so that drift hits both sets
alike; then, unless --no-trace, the traced set twice. For every end-to-end
metric it prints the two sets' medians, how much worse the second is than the
first, and PASS/FAIL against the metric's bound in BENCHMARK.json. (Whole runs
are up to 25% slower while anything else keeps the machine's other core busy;
a median of three shrugs one such run off, a single run cannot.) Every
per-layer metric whose unit is `count` or `bytes` must read exactly the same in
both traced sets. Exit code 1 on any FAIL, any counter that differs, an
incorrect run, or a name printed that BENCHMARK.json does not list.

--spread K runs each workload K times, seeds 1..K, and prints for each
end-to-end metric the distance between the first and third quartile as a share
of the median (what the driver computes), against a third of the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {(m["name"], m["unit"]) for m in listed}
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if want != got:
        sys.exit(f"{workload}: printed metrics differ from BENCHMARK.json: {sorted(want ^ got)}")
    return result


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def aa(args):
    workloads = [w["name"] for w in SPEC["workloads"]]
    failed = False
    for trace in ([0] if args.no_trace else [0, 1]):
        sets = [{w: [] for w in workloads} for _ in range(2)]
        for _ in range(1 if trace else args.runs):
            for results in sets:
                for w in workloads:
                    result = run(w, args.seed, args.seconds, trace)
                    results[w].append(result["metrics"])
                    if not result["correct"]:
                        print(f"FAIL {w}: {result['failed']} of {result['attempted']} failed")
                        failed = True
        for w in workloads:
            if trace == 0:
                for m in SPEC["end_to_end"]:
                    va, vb = (statistics.median(r[m["name"]]["value"] for r in s[w]) for s in sets)
                    worse = worse_by(m, va, vb)
                    ok = worse <= m["bound"]
                    failed |= not ok
                    print(f"{'PASS' if ok else 'FAIL'} {w:12} {m['name']:14} "
                          f"{va:12.4f} {vb:12.4f} {m['unit']:5} worse by {worse:+7.2%} (bound {m['bound']:.0%})")
            else:
                a, b = (s[w][0] for s in sets)
                differing = [
                    m["name"] for m in SPEC["per_layer"]
                    if m["unit"] in ("count", "bytes") and a[m["name"]]["value"] != b[m["name"]]["value"]
                ]
                failed |= bool(differing)
                print(f"{'FAIL' if differing else 'PASS'} {w:12} counters "
                      f"{'differ: ' + ', '.join(differing) if differing else 'identical in both sets'}")
    return failed


def spread(args):
    failed = False
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = [run(w, seed, args.seconds, 0) for seed in range(1, args.spread + 1)]
        failed |= not all(r["correct"] for r in runs)
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            ok = share <= m["bound"] / 3 or m["name"] == "setup_s"
            failed |= not ok
            print(f"{'PASS' if ok else 'FAIL'} {w:12} {m['name']:14} median {statistics.median(values):12.4f} "
                  f"{m['unit']:5} spread {share:6.2%} (a third of the bound: {m['bound'] / 3:.2%})")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--spread", type=int, metavar="K")
    args = parser.parse_args()
    sys.exit(1 if (spread(args) if args.spread else aa(args)) else 0)


if __name__ == "__main__":
    main()
