#!/usr/bin/env python3
"""End-to-end benchmark of Orpheus, one workload per run.

    python3 bench/e2e/run_benchmark.py --workload edge_mobilenet \\
        --seed 1 --seconds 15 --trace 0

Builds the Orpheus libraries and the orpheus_e2e program from source into
.bench_build/e2e (CMake, Release), runs its reference phase and
then the measurement as two processes, and prints the measurement's JSON
result as the last line of standard output. The workloads, metrics and
bounds are listed in BENCHMARK.json at the repository root; README.md in
this directory explains them.

Calibration and checks:

    --repeat N --out FILE    run every workload N times (seeds --seed ..
                             --seed+N-1, untraced) and write the samples,
                             medians and quartiles, with the host and build
                             flags
    --compare A B            compare two such files against the bounds in
                             BENCHMARK.json; exits 1 on any flagged pair
    --smoke                  every workload for 1 s, untraced and traced;
                             checks the outputs and every metric name

Exit status: 0 on a correct run, 1 on a wrong output, a failed build or a
malformed result, 2 on bad usage or missing sources.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORK = ROOT / ".bench_build" / "e2e-work"


def fail(message, code=1):
    print(f"run_benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}", 2)


def build():
    """Configures (once) and builds orpheus_e2e; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the Orpheus sources (CMakeLists.txt, src/) are not in {ROOT}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "orpheus_e2e",
                  "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=840).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({code}): {' '.join(step)} "
                     f"(log: {log_path})")
    return BUILD / "orpheus_e2e"


def measure(binary, spec, workload, seed, seconds, trace, work_dir):
    """Reference phase, then the measurement; returns (result, exit code)."""
    directory = Path(work_dir) / workload
    directory.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed),
              "--dir", str(directory)]
    try:
        reference = subprocess.run([str(binary), "reference"] + common,
                                   stdout=sys.stderr, timeout=60)
        if reference.returncode != 0:
            fail(f"reference phase of {workload} failed "
                 f"(exit {reference.returncode})")
        run = subprocess.run(
            [str(binary), "run"] + common +
            ["--seconds", str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired as error:
        fail(f"{workload}: {error}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: orpheus_e2e printed no result (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: malformed result line: {lines[-1]!r}")
    check_result(spec, workload, trace, result)
    return result, run.returncode


def check_result(spec, workload, trace, result):
    """The result names exactly the metrics BENCHMARK.json lists."""
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail(f"{workload}: metric names differ from BENCHMARK.json "
             f"(missing {missing}, unlisted {extra})")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload}: bad value or unit for {m['name']}: {got}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_info():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    flags = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            key = line.split(":", 1)[0]
            if key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_FLAGS_RELEASE",
                       "CMAKE_CXX_COMPILER", "ORPHEUS_SIMD",
                       "ORPHEUS_NATIVE_ARCH"):
                flags[key] = line.split("=", 1)[1]
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "machine": platform.machine(), "build": flags}


def repeat(spec, binary, count, first_seed, seconds, out_path, work_dir):
    results, failed = {}, {}
    for workload in [w["name"] for w in spec["workloads"]]:
        samples = {}
        failed[workload] = []
        for seed in range(first_seed, first_seed + count):
            result, code = measure(binary, spec, workload, seed, seconds,
                                   False, work_dir)
            if code != 0 or not result["correct"]:
                fail(f"{workload} seed {seed}: exit {code}, "
                     f"correct {result['correct']}")
            failed[workload].append(
                [result["failed"], result["attempted"]])
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        print(f"{workload:18s} failed/attempted per seed: "
              f"{failed[workload]}")
        results[workload] = {}
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            results[workload][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "samples": values}
            print(f"{workload:18s} {name:16s} q1 {q1:11.5g} median "
                  f"{med:11.5g} q3 {q3:11.5g} spread "
                  f"{results[workload][name]['spread']:7.2%}")
    document = {"host": host_info(), "seconds": seconds, "repeat": count,
                "seeds": [first_seed, first_seed + count - 1],
                "failed_attempted": failed, "results": results}
    Path(out_path).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out_path}")


def compare(spec, path_a, path_b):
    """Flags every (workload, metric) whose median moved between A and B,
    in either direction, by more than its bound, or whose spread in either
    set exceeds its bound. Also prints each set's failed requests."""
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    a, b = doc_a["results"], doc_b["results"]
    flagged = 0
    print(f"{'workload':18s} {'metric':16s} {'median A':>12s} "
          f"{'median B':>12s} {'moved':>9s} {'spread A':>9s} "
          f"{'spread B':>9s} {'bound':>6s}")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma = a[workload][name]["median"]
            mb = b[workload][name]["median"]
            moved = (mb - ma) / ma
            sa = a[workload][name]["spread"]
            sb = b[workload][name]["spread"]
            bad = abs(moved) > bound or max(sa, sb) > bound
            flagged += bad
            print(f"{workload:18s} {name:16s} {ma:12.5g} {mb:12.5g} "
                  f"{moved:+9.2%} {sa:9.2%} {sb:9.2%} {bound:6.2f}"
                  f"{'  FLAG' if bad else ''}")
        for label, doc in (("A", doc_a), ("B", doc_b)):
            runs = doc["failed_attempted"][workload]
            print(f"{workload:18s} failed in {label}: "
                  f"{sum(f for f, _ in runs)} of "
                  f"{sum(n for _, n in runs)} attempted")
    print(f"{flagged} flagged")
    return 1 if flagged else 0


def smoke(spec, binary, work_dir):
    """Every workload for 1 s, untraced and traced: outputs correct, every
    metric named, exit 0."""
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result, code = measure(binary, spec, workload, 1, 1, trace,
                                   work_dir)
            if code != 0 or not result["correct"]:
                fail(f"smoke {workload} trace={int(trace)}: exit {code}, "
                     f"correct {result['correct']}")
            if trace and not (Path(work_dir) / workload /
                              "trace.json").is_file():
                fail(f"smoke {workload}: no trace file")
            print(f"smoke {workload} trace={int(trace)}: ok "
                  f"({result['attempted']} requests)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this orpheus_e2e, skip the build")
    parser.add_argument("--work-dir", default=str(WORK))
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.compare:
        return compare(spec, *args.compare)
    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(spec, binary, args.work_dir)
    if args.repeat:
        if not args.out:
            fail("--repeat needs --out FILE", 2)
        repeat(spec, binary, args.repeat, args.seed, seconds, args.out,
               args.work_dir)
        return 0
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"--workload must be one of "
             f"{[w['name'] for w in spec['workloads']]}", 2)
    result, code = measure(binary, spec, args.workload, args.seed, seconds,
                           bool(args.trace), args.work_dir)
    print(json.dumps(result))
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
