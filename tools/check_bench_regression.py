#!/usr/bin/env python3
"""Gate benchmark results against committed baselines.

Compares BENCH_<slug>.json files produced by the bench harness
(ORPHEUS_BENCH_JSON) against the baselines committed under
bench/baselines/, and exits non-zero when any gated cell regressed by
more than the threshold (default 10 %).

Robustness against machine and scheduler noise:

 - Multiple result (and baseline) directories are merged per cell by
   the fastest observation, the least disturbed one: the MINIMUM of a
   time, the MAXIMUM of a throughput. CI runs each gated bench a few
   times and passes every output directory.
 - Raw milliseconds are not comparable across machines, so each cell
   is scored as its share of the file's total cell time
   (cell / sum(cells)). A regression shifts the suite's time toward
   the offending cell, which survives the constant machine-speed
   factor between the baseline host and CI.
 - Cells below an absolute floor (default 0.25 ms) are reported but
   not gated: micro-cells swing tens of percent from timer and
   scheduler jitter alone.
 - A results file missing a baseline cell fails the gate outright —
   coverage loss hides regressions.
 - Columns ending in "_pct" are quality scores (e.g. chaos goodput),
   not times: they are excluded from the time-share normalisation and
   gated absolutely instead — the gate fails when a result drops below
   baseline * (1 - threshold). Machine speed cancels out of a
   percentage, so no normalisation is needed (or wanted). Baselines
   for quality-only benches should commit just the _pct cells; count
   cells (retries, quarantines, ...) vary legitimately run to run.
 - Columns ending in "_rps" are throughputs: higher is better. They
   are excluded from the normalisation and gated exactly like the
   "_pct" cells, but merge across runs by maximum.
 - Columns ending in "_ms" are absolute latency bounds (e.g. the
   overload bench's per-class tail cells, whose service time is pinned
   by fault injection so raw milliseconds ARE comparable): they are
   likewise excluded from the normalisation and gated as upper bounds —
   the gate fails when a result exceeds baseline * (1 + threshold).
   Tail percentiles are noisier than means, so CI gates these slugs
   with a wider threshold in a separate invocation.

Usage:
  check_bench_regression.py --baseline bench/baselines \\
      --results run1 [--results run2 ...] \\
      [--threshold 0.10] [--floor-ms 0.25] <slug> [<slug> ...]
"""

import argparse
import json
import os
import sys


def load_cells(path):
    """Returns {(row, column): mean_ms} for one BENCH_*.json file."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        (cell["row"], cell["column"]): float(cell["mean_ms"])
        for cell in data.get("cells", [])
    }


def merge_runs(paths):
    """Per-cell merge across several runs of the same bench: the
    maximum of a throughput cell, the minimum of any other."""
    merged = {}
    for path in paths:
        for key, value in load_cells(path).items():
            if key not in merged:
                merged[key] = value
            elif is_throughput(key):
                merged[key] = max(merged[key], value)
            else:
                merged[key] = min(merged[key], value)
    return merged


def is_quality(key):
    """Quality-score cells ("*_pct" columns): higher is better, gated
    absolutely rather than as a share of suite time."""
    return key[1].endswith("_pct")


def is_throughput(key):
    """Throughput cells ("*_rps" columns): higher is better, gated
    absolutely rather than as a share of suite time."""
    return key[1].endswith("_rps")


def is_bound(key):
    """Absolute-bound cells ("*_ms" columns): lower is better, gated
    absolutely as an upper bound rather than as a share of suite time."""
    return key[1].endswith("_ms")


def is_time(key):
    """Cells scored as a share of the file's total time."""
    return not (is_quality(key) or is_throughput(key) or is_bound(key))


def scores(cells):
    """Each time cell's share of the file's total time."""
    times = {key: value for key, value in cells.items()
             if value > 0 and is_time(key)}
    total = sum(times.values())
    if total <= 0:
        return {}
    return {key: value / total for key, value in times.items()}


def check_bench(slug, baseline_dirs, results_dirs, threshold, floor_ms,
                quality_threshold=None):
    """Returns a list of human-readable failure strings for one bench."""
    name = f"BENCH_{slug}.json"
    baseline_paths = [os.path.join(d, name) for d in baseline_dirs
                      if os.path.exists(os.path.join(d, name))]
    results_paths = [os.path.join(d, name) for d in results_dirs
                     if os.path.exists(os.path.join(d, name))]
    if not baseline_paths:
        return [f"{slug}: no baseline {name} under "
                f"{', '.join(baseline_dirs)}"]
    if not results_paths:
        return [f"{slug}: no results {name} under "
                f"{', '.join(results_dirs)} (bench not run?)"]

    baseline_cells = merge_runs(baseline_paths)
    result_cells = merge_runs(results_paths)
    baseline_scores = scores(baseline_cells)
    result_scores = scores(result_cells)

    if quality_threshold is None:
        quality_threshold = threshold
    failures = []
    gated = skipped = 0
    for key in sorted(k for k in baseline_cells
                      if is_quality(k) or is_throughput(k)):
        row, column = key
        base = baseline_cells[key]
        if key not in result_cells:
            failures.append(f"{slug}: cell ({row}, {column}) disappeared "
                            "from the results")
            continue
        gated += 1
        new = result_cells[key]
        if new < base * (1 - quality_threshold):
            kind = "throughput" if is_throughput(key) else "quality"
            failures.append(
                f"{slug}: ({row}, {column}) {kind} dropped "
                f"{base:.2f} -> {new:.2f} "
                f"(gate {base * (1 - quality_threshold):.2f})")
    for key in sorted(k for k in baseline_cells if is_bound(k)):
        row, column = key
        base = baseline_cells[key]
        if key not in result_cells:
            failures.append(f"{slug}: cell ({row}, {column}) disappeared "
                            "from the results")
            continue
        gated += 1
        new = result_cells[key]
        if new > base * (1 + threshold):
            failures.append(
                f"{slug}: ({row}, {column}) latency bound exceeded "
                f"{base:.3f} ms -> {new:.3f} ms "
                f"(gate {base * (1 + threshold):.3f} ms)")
    for key, base_score in sorted(baseline_scores.items()):
        row, column = key
        if key not in result_cells:
            failures.append(f"{slug}: cell ({row}, {column}) disappeared "
                            "from the results")
            continue
        if baseline_cells[key] < floor_ms:
            skipped += 1
            continue
        new_score = result_scores.get(key)
        if new_score is None or base_score <= 0:
            continue
        gated += 1
        change = (new_score - base_score) / base_score
        if change > threshold:
            failures.append(
                f"{slug}: ({row}, {column}) regressed "
                f"{100 * change:.1f}% normalised "
                f"(baseline {baseline_cells[key]:.4f} ms -> "
                f"{result_cells[key]:.4f} ms, time share "
                f"{base_score:.3f} -> {new_score:.3f})")
    print(f"{slug}: {gated} cells gated, {skipped} below the "
          f"{floor_ms} ms floor, {len(failures)} failure(s)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="fail on >threshold normalised bench regressions")
    parser.add_argument("--baseline", action="append", required=True,
                        help="directory with committed BENCH_*.json "
                             "(repeatable; merged per cell)")
    parser.add_argument("--results", action="append", required=True,
                        help="directory with fresh BENCH_*.json "
                             "(repeatable; merged per cell)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative normalised regression allowed")
    parser.add_argument("--quality-threshold", type=float, default=None,
                        help="relative drop allowed on *_pct quality "
                             "and *_rps throughput cells (default: "
                             "--threshold). Speedup "
                             "cells (e.g. gemm's simd_speedup_pct) are "
                             "ratios of two timings, so they tolerate a "
                             "different noise band than time shares")
    parser.add_argument("--floor-ms", type=float, default=0.25,
                        help="do not gate cells faster than this")
    parser.add_argument("slugs", nargs="+",
                        help="bench slugs to gate, e.g. gemm prepare")
    args = parser.parse_args()

    all_failures = []
    for slug in args.slugs:
        all_failures.extend(
            check_bench(slug, args.baseline, args.results,
                        args.threshold, args.floor_ms,
                        args.quality_threshold))

    if all_failures:
        print("\nbench regression gate FAILED:")
        for failure in all_failures:
            print(f"  {failure}")
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
