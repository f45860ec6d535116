#!/usr/bin/env python3
"""Bench-trend check: compare smoke-run BENCH_*.json files against the
baselines committed under crates/bench/baselines/ and fail on large
plan-time regressions.

Usage:
    python3 scripts/bench_trend.py [--update] BENCH_a.json [BENCH_b.json ...]
    python3 scripts/bench_trend.py --record

`--record` rebuilds the release table binaries, runs every baselined
configuration (the `--smoke` sweeps plus the default-argument tables)
in a temporary directory, and installs the produced BENCH files as the
new committed baselines in one pass — the one way to re-baseline after
a legitimate optimizer change that shifts the deterministic counters.

For every file, rows are matched against the baseline rows by their
*deterministic identity* — every field that is not a wall-clock
measurement (so topology/n/framework/threads/labels **and** plan
counts, which are deterministic per seed). For each matched row, every
`*_ms`/`*_us` field is compared: if the new value exceeds the baseline
by more than BENCH_TREND_MAX_REGRESSION percent (default 25), the check
fails. `*_pct` fields (overhead and phase time shares — ratios of
wall-clock times) are volatile: excluded from identity and never
compared. Baselines under ten milliseconds (10.0 for `_ms` fields,
10_000.0 for `_us` fields) are skipped — on small cells, scheduler
jitter alone exceeds the threshold even on an idle machine.

Two kinds of regression are enforced:

* **counter regressions** — machine-independent, deterministic work
  metrics (`plans`, NFSM/DFSM node counts, precomputed bytes): any
  *increase* beyond the threshold fails on every machine, so the gate
  enforces something real even when the baselines were recorded on
  different hardware. Decreases (improvements) warn, as a reminder to
  re-baseline.
* **time regressions** — wall-clock comparisons across different
  machines are noise, so when the machine proxy (the meta row's
  `avail_threads`) disagrees between the baseline and the current run,
  time regressions are demoted to warnings; on the same machine class
  they fail. Regenerate baselines on the enforcing machine class with
  --update. When the current run reports *fewer* hardware threads than
  the baseline, time comparisons are skipped outright (not even
  warnings): a narrower machine is slower across the board — for the
  parallel cells by design — so every row would "regress" and the real
  signal (the counter gate) would drown in noise.

Rows that find no baseline counterpart (new cells, changed plan counts
after a legitimate optimizer change) are reported as warnings — rerun
with --update to re-baseline after reviewing them.

Exit status: 0 = no regression, 1 = regression, 2 = usage/IO error.
"""

import json
import os
import shutil
import sys

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "crates",
    "bench",
    "baselines",
)
# Wall-clock measurement fields: excluded from row identity, subject to
# the regression threshold.
TIME_SUFFIXES = ("_ms", "_us")
# Derived-from-time or machine-dependent fields: excluded from identity,
# not checked. The `_pct` suffix covers the observability table's
# overhead and per-phase time shares — ratios of wall-clock times, so
# pure noise across machines and runs. `_per_sec` covers the executor
# table's throughput columns (rows / wall-clock), volatile for the same
# reason; the work they measure is gated via the deterministic
# `rows_out`/`morsels`/`op_batches` counters instead.
VOLATILE = {"speedup", "memory_bytes", "avail_threads", "degraded", "ns_per_unit"}
VOLATILE_SUFFIXES = ("_pct", "_per_sec")
# Deterministic work counters: machine-independent, so enforced on every
# machine. Excluded from identity (else a counter change would just
# unmatch the row and dodge the gate).
COUNTERS = {
    "plans",
    "nfsm_nodes",
    "nfsm_nodes_before",
    "dfsm_nodes",
    "precomputed_bytes",
    "pairs",
    "pairs_considered",
    "unions",
    # Decision telemetry (always-on observability counters): Pareto
    # pruning, oracle probe and enforcer admission counts, plus the
    # recording sink's span count — all schedule-independent.
    "pruned_kept",
    "pruned_dominated",
    "oracle_probes",
    "enforcers_admitted",
    "enforcers_won",
    "spans",
    # Branch-and-bound DP: candidates rejected by the cost upper bound
    # and dominance checks answered without an oracle probe.
    "bound_pruned",
    "dominance_memo_hits",
    # Vectorized executor (table_exec): output rows, morsels scheduled
    # and operator batches processed are all fixed by (plan, data, morsel
    # size) — thread-count- and machine-independent by construction.
    "rows_out",
    "morsels",
    "op_batches",
    # Allocation pressure from the counting global allocator — not
    # wall-clock, so enforced like any other deterministic work counter
    # (modulo ALLOCS_JITTER below).
    "allocs",
}
# The allocation counter is process-global, so a handful of allocations
# of ambient jitter (environment lookups, IO buffering, thread startup)
# leak into every row. Changes within this band — whichever of the
# absolute or relative floor is larger — are ignored outright; beyond
# it, `allocs` is enforced like any deterministic counter.
ALLOCS_JITTER_ABS = 64
ALLOCS_JITTER_REL = 0.02


def is_time_field(key):
    return key.endswith(TIME_SUFFIXES)


def is_volatile_field(key):
    return key in VOLATILE or key.endswith(VOLATILE_SUFFIXES)


def min_baseline(key):
    """Smallest baseline worth comparing: ten milliseconds, in the
    field's own unit (below that, run-to-run jitter swamps the
    threshold)."""
    return 10_000.0 if key.endswith("_us") else 10.0


def strip_volatile(value):
    """Recursively drops time/volatile/counter fields (rows may nest
    objects)."""
    if isinstance(value, dict):
        return {
            k: strip_volatile(v)
            for k, v in value.items()
            if not is_time_field(k) and not is_volatile_field(k) and k not in COUNTERS
        }
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def identity(row):
    """Hashable deterministic identity of a row."""
    return json.dumps(strip_volatile(row), sort_keys=True)


def load_rows(path):
    with open(path) as f:
        payload = json.load(f)
    return payload.get("rows", [])


def machine_proxy(rows):
    """The file's machine fingerprint, if it records one."""
    for row in rows:
        if isinstance(row, dict) and row.get("meta") == 1:
            return row.get("avail_threads")
    return None


def check_file(path, threshold_pct):
    """Returns (regressions, warnings) for one BENCH file."""
    base_path = os.path.join(BASELINE_DIR, os.path.basename(path))
    if not os.path.exists(base_path):
        return [], [f"{path}: no baseline at {base_path} (run with --update)"]
    current = load_rows(path)
    baseline_rows = load_rows(base_path)
    baseline = {identity(r): r for r in baseline_rows}
    regressions, warnings = [], []
    current_threads = machine_proxy(current)
    baseline_threads = machine_proxy(baseline_rows)
    same_machine = current_threads == baseline_threads
    # A machine with fewer hardware threads than the baseline's is
    # slower across the board (the parallel cells by design), so time
    # comparisons carry no signal at all — skip them entirely and rely
    # on the deterministic counter gate.
    skip_times = (
        isinstance(current_threads, (int, float))
        and isinstance(baseline_threads, (int, float))
        and current_threads < baseline_threads
    )
    if skip_times:
        warnings.append(
            f"{path}: current machine has fewer hardware threads than the "
            f"baseline's (avail_threads {current_threads} < "
            f"{baseline_threads}); time comparisons skipped"
        )
    elif not same_machine:
        warnings.append(
            f"{path}: baseline was measured on different hardware "
            f"(avail_threads {baseline_threads} vs "
            f"{current_threads}); time regressions demoted to warnings"
        )
    for row in current:
        base = baseline.get(identity(row))
        if base is None:
            warnings.append(
                f"{path}: no baseline row matches {json.dumps(row, sort_keys=True)[:120]}"
            )
            continue
        label = json.dumps(identity_label(row))[:120]
        # Rows flagged `degraded` measured threads the machine cannot
        # actually run in parallel — their times are scheduling
        # overhead, not work, so only their counters are compared.
        row_degraded = isinstance(row, dict) and row.get("degraded") == 1
        found_times, found_counters = [], []
        compare_rows(row, base, "", threshold_pct, found_times, found_counters)
        for field, old_value, new_value, growth_pct in found_times:
            if skip_times or row_degraded:
                continue
            message = (
                f"{path}: {field} {old_value:.2f} -> {new_value:.2f} "
                f"(+{growth_pct:.0f}% > {threshold_pct:.0f}%) in row {label}"
            )
            (regressions if same_machine else warnings).append(message)
        for field, old_value, new_value, growth_pct in found_counters:
            message = (
                f"{path}: {field} {old_value} -> {new_value} "
                f"({growth_pct:+.0f}%) in row {label}"
            )
            if growth_pct > threshold_pct:
                regressions.append(message + " — deterministic counter regression")
            else:
                warnings.append(message + " — counter changed; re-baseline with --update")
    return regressions, warnings


def compare_rows(new, old, prefix, threshold_pct, out_times, out_counters):
    """Walks matching structures, collecting regressed time fields and
    changed deterministic counters."""
    if isinstance(new, dict) and isinstance(old, dict):
        for key, value in new.items():
            old_value = old.get(key)
            if is_time_field(key):
                if (
                    isinstance(value, (int, float))
                    and isinstance(old_value, (int, float))
                    and old_value >= min_baseline(key)
                ):
                    growth_pct = 100.0 * (value - old_value) / old_value
                    if growth_pct > threshold_pct:
                        out_times.append((prefix + key, old_value, value, growth_pct))
            elif key in COUNTERS:
                if (
                    isinstance(value, (int, float))
                    and isinstance(old_value, (int, float))
                    and value != old_value
                ):
                    if key == "allocs" and abs(value - old_value) <= max(
                        ALLOCS_JITTER_ABS, ALLOCS_JITTER_REL * old_value
                    ):
                        continue
                    growth_pct = 100.0 * (value - old_value) / max(old_value, 1)
                    out_counters.append((prefix + key, old_value, value, growth_pct))
            elif isinstance(value, (dict, list)):
                compare_rows(
                    value, old_value, f"{prefix}{key}.", threshold_pct, out_times, out_counters
                )
    elif isinstance(new, list) and isinstance(old, list):
        for i, (a, b) in enumerate(zip(new, old)):
            compare_rows(a, b, f"{prefix}{i}.", threshold_pct, out_times, out_counters)


def identity_label(row):
    label = strip_volatile(row)
    if isinstance(label, dict):
        label.pop("best_cost", None)
    return label


# Every baselined configuration: (binary, arguments, output file) —
# exactly the invocations CI's "Table-binary smoke" step runs, kept in
# one place so `--record` cannot drift from what CI compares against.
RECORD_BINS = [
    ("table_hypergraph", ["--smoke"], "BENCH_hypergraph.json"),
    ("table_parallel", ["--smoke"], "BENCH_parallel.json"),
    ("table_trace", ["--smoke"], "BENCH_trace.json"),
    ("table_groupjoin", ["2", "3"], "BENCH_groupjoin.json"),
    ("table_partialsort", ["3", "3"], "BENCH_partialsort.json"),
    ("table_grouping", ["2", "5"], "BENCH_table_grouping.json"),
    ("table_prep_q8", [], "BENCH_table_prep_q8.json"),
    ("table_exec", ["--smoke"], "BENCH_exec.json"),
]


def record():
    """Rebuilds the release binaries, runs every baselined
    configuration, and installs the outputs as the new baselines."""
    import subprocess
    import tempfile

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run(
        ["cargo", "build", "--release", "-p", "ofw-bench", "--bins"],
        cwd=repo,
        check=True,
    )
    os.makedirs(BASELINE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for bin_name, bin_args, out in RECORD_BINS:
            exe = os.path.join(repo, "target", "release", bin_name)
            print(f"recording {out}: {bin_name} {' '.join(bin_args)}".rstrip())
            subprocess.run(
                [exe, *bin_args], cwd=tmp, check=True, stdout=subprocess.DEVNULL
            )
            produced = os.path.join(tmp, out)
            if not os.path.exists(produced):
                print(f"error: {bin_name} did not write {out}", file=sys.stderr)
                return 2
            shutil.copyfile(produced, os.path.join(BASELINE_DIR, out))
            print(f"baselined {out}")
    return 0


def main(argv):
    if argv[1:] == ["--record"]:
        return record()
    args = [a for a in argv[1:] if a != "--update"]
    update = "--update" in argv[1:]
    if not args:
        print(__doc__)
        return 2
    if update:
        os.makedirs(BASELINE_DIR, exist_ok=True)
        for path in args:
            dest = os.path.join(BASELINE_DIR, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baselined {path} -> {dest}")
        return 0
    threshold_pct = float(os.environ.get("BENCH_TREND_MAX_REGRESSION", "25"))
    all_regressions, all_warnings = [], []
    for path in args:
        if not os.path.exists(path):
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
        regressions, warnings = check_file(path, threshold_pct)
        all_regressions.extend(regressions)
        all_warnings.extend(warnings)
    for w in all_warnings:
        print(f"warning: {w}")
    if all_regressions:
        print(f"\nFAIL: {len(all_regressions)} plan-time regression(s) > "
              f"{threshold_pct:.0f}% vs committed baselines:")
        for r in all_regressions:
            print(f"  {r}")
        return 1
    print(f"bench trend OK ({len(args)} file(s), threshold {threshold_pct:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
