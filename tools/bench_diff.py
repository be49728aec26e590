#!/usr/bin/env python3
"""Compares two google-benchmark JSON recordings and fails on regressions.

Usage: bench_diff.py <baseline.json> <candidate.json>
           [--threshold=PCT] [--threshold=NAME=PCT] [--strict]

The perf-regression leg behind the committed BENCH_*.json baselines. Both
files must carry the provenance stamped by tools/run_bench.sh:

  * `archex_build_type` must be "release" on BOTH sides — a debug recording
    is not a comparison point, and this is a hard failure;
  * `archex_cpu_model` must match — wall-clock times from different machines
    are not comparable. A mismatch (or a missing stamp on either side, e.g. a
    baseline recorded before stamping existed) SKIPS the comparison with exit
    0 so CI stays green on other hardware; pass --strict to make it exit 1
    (for the machine that owns the baseline).

Work gate: a work counter (one of WORK_COUNTERS: simplex iterations, nodes,
refactorizations, cold/warm sweep solves) that holds one value in every
repetition of a benchmark in the baseline (two or more repetitions) is a
deterministic search count, and every candidate repetition of that
benchmark must report exactly that value. A changed count means a changed
search, which a time threshold cannot tell from noise. The work gate does
not depend on the machine, so it also runs when the CPU models differ.

Time comparison: per benchmark name, the minimum `real_time` over
repetitions (min is the noise-robust statistic for "how fast can this go").
A benchmark regresses when the candidate is more than PCT slower than the
baseline (default 15). Per-benchmark overrides:
--threshold=BM_LpSolve/1000=25. Benchmarks present on only one side are
reported but never fail the run.

Exit code 0 on pass/skip, 1 on any regression, work mismatch or provenance
failure, 2 on usage errors.
"""
import json
import sys

DEFAULT_THRESHOLD = 15.0


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        return None


WORK_COUNTERS = ("iters", "nodes", "refactors", "cold_solves", "warm_solves")


def iteration_runs(data):
    """name -> list of plain iteration records (no aggregates)."""
    runs = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration" and "name" in b:
            runs.setdefault(b["name"], []).append(b)
    return runs


def work_mismatches(base, cand):
    """(name, counter, baseline value, candidate values) for every work
    counter the baseline repeats exactly and the candidate does not report
    exactly, over benchmarks present on both sides."""
    cand_runs = iteration_runs(cand)
    out = []
    for name, runs in sorted(iteration_runs(base).items()):
        if len(runs) < 2 or name not in cand_runs:
            continue
        for counter in WORK_COUNTERS:
            values = {r.get(counter) for r in runs}
            if len(values) != 1 or not isinstance(next(iter(values)), (int, float)):
                continue
            want = next(iter(values))
            got = [r.get(counter) for r in cand_runs[name]]
            if any(g != want for g in got):
                out.append((name, counter, want, got))
    return out


# time_unit -> nanoseconds; google-benchmark may record sides differently.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def best_times(data, path):
    """name -> min real_time in ns over plain iterations (no aggregates)."""
    best = {}
    for name, runs in iteration_runs(data).items():
        for b in runs:
            t = b.get("real_time")
            unit = b.get("time_unit", "ns")
            if not isinstance(t, (int, float)):
                continue
            if unit not in UNIT_NS:
                print(f"FAIL: {path}: unknown time_unit '{unit}' for {name}",
                      file=sys.stderr)
                return None
            ns = t * UNIT_NS[unit]
            if name not in best or ns < best[name]:
                best[name] = ns
    return best


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g}{unit}"
    return f"{ns:.3g}ns"


def main(argv):
    default_threshold = DEFAULT_THRESHOLD
    per_bench = {}
    strict = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            spec = arg.split("=", 1)[1]
            if "=" in spec:
                name, pct = spec.rsplit("=", 1)
                try:
                    per_bench[name] = float(pct)
                except ValueError:
                    print(f"bad threshold: {arg}", file=sys.stderr)
                    return 2
            else:
                try:
                    default_threshold = float(spec)
                except ValueError:
                    print(f"bad threshold: {arg}", file=sys.stderr)
                    return 2
        elif arg == "--strict":
            strict = True
        elif arg.startswith("-"):
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_path, cand_path = paths

    base = load(base_path)
    cand = load(cand_path)
    if base is None or cand is None:
        return 1

    # Provenance gates (see module docstring).
    for path, data in ((base_path, base), (cand_path, cand)):
        bt = data.get("context", {}).get("archex_build_type", "unknown")
        if bt != "release":
            print(f"FAIL: {path}: archex_build_type is '{bt}', not 'release'"
                  " — record with tools/run_bench.sh from a release build",
                  file=sys.stderr)
            return 1
    mismatches = work_mismatches(base, cand)
    for name, counter, want, got in mismatches:
        print(f"FAIL: {name}: {counter} = {got}, baseline repeats {want} exactly",
              file=sys.stderr)

    base_cpu = base.get("context", {}).get("archex_cpu_model") or ""
    cand_cpu = cand.get("context", {}).get("archex_cpu_model") or ""
    if not base_cpu or not cand_cpu or base_cpu != cand_cpu:
        why = ("missing archex_cpu_model stamp"
               if not base_cpu or not cand_cpu
               else f"different CPUs ('{base_cpu}' vs '{cand_cpu}')")
        if strict:
            print(f"FAIL: cross-machine comparison refused: {why}",
                  file=sys.stderr)
            return 1
        print(f"SKIP: bench_diff: {why}; times are not comparable "
              "(re-record the baseline on this machine, or use --strict "
              "on the baseline's machine)")
        return 1 if mismatches else 0

    base_times = best_times(base, base_path)
    cand_times = best_times(cand, cand_path)
    if base_times is None or cand_times is None:
        return 1
    if not base_times:
        print(f"FAIL: {base_path}: no benchmarks", file=sys.stderr)
        return 1

    regressions = []
    compared = 0
    for name in sorted(base_times):
        if name not in cand_times:
            print(f"  note: {name} only in baseline")
            continue
        compared += 1
        b, c = base_times[name], cand_times[name]
        threshold = per_bench.get(name, default_threshold)
        delta = (c - b) / b * 100.0 if b > 0 else 0.0
        tag = "ok"
        if delta > threshold:
            tag = "REGRESSION"
            regressions.append((name, delta, threshold))
        elif delta < -threshold:
            tag = "improved"
        print(f"  {name}: {fmt_ns(b)} -> {fmt_ns(c)} "
              f"({delta:+.1f}%, threshold {threshold:.0f}%) {tag}")
    for name in sorted(set(cand_times) - set(base_times)):
        print(f"  note: {name} only in candidate")

    if compared == 0:
        print("FAIL: no common benchmarks to compare", file=sys.stderr)
        return 1
    if regressions:
        for name, delta, threshold in regressions:
            print(f"FAIL: {name} regressed {delta:+.1f}% "
                  f"(threshold {threshold:.0f}%)", file=sys.stderr)
        return 1
    if mismatches:
        return 1
    print(f"OK bench_diff: {compared} benchmark(s) within threshold "
          f"({base_path} -> {cand_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
