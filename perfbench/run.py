#!/usr/bin/env python3
"""The symtorus benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload orbit|catalog|growth --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. It writes the workload's documents
under .perfbench_work/, then starts a fresh interpreter that runs them as
a closed loop (see worker.py) and checks every answer. With --trace 0 it
reports the end-to-end metrics; set-up time is the median of fresh
interpreters, spawned at even times through the loop, that import
symtorus.cli and load one cycle's documents. With --trace 1 it reports
per-layer metrics from traced cycles (see tracer.py) and the tracing
overhead. The last line of output is the
result as one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
IMPORT_RUNS = 5
WORKER_TIMEOUT = 160


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One kernel on every commit and machine: a compiled-kernel result
    # must never be compared with a pure-Python one.
    env["SYMTORUS_PURE_PYTHON"] = "1"
    # Set iteration order, and with it the closure's memory layout, then
    # does not change from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_import(env):
    """Median cumulative import time of symtorus.cli in milliseconds, from
    ``python -X importtime`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import symtorus.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "symtorus.cli":
                times.append(int(fields[1]) / 1000.0)
    return statistics.median(times)


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or (
            os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "symtorus", "cli.py")):
        print("error: no symtorus sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    input_dir = os.path.join(ROOT, ".perfbench_work",
                             "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(input_dir, ignore_errors=True)
    manifest = workloads.generate(args.workload, args.seed, input_dir)
    env = child_env()

    metrics = {}
    if args.trace:
        metrics["import.total_ms"] = (measure_import(env), "ms")

    result_path = os.path.join(input_dir, "result.json")
    proc = subprocess.run(
        [sys.executable, WORKER, "run", input_dir, repr(args.seconds),
         str(args.trace), result_path],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-4000:])
        print("error: worker exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = (value, unit)

    attempted, failed = result["attempted"], result["failed"]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "kernels": result["kernels"],
        "requests": attempted,
        "latency_samples": result["samples"],
        "cycles": result["cycles"],
        "cycle_requests": len(manifest["cycles"][0]),
        "failed_ratio": failed / attempted,
        "repeat_share": round(result["repeat_share"], 4),
    }
    for key in ("setup_samples", "untraced_answers_per_s",
                "traced_answers_per_s", "spans", "nested_json_probe"):
        if key in result:
            stamp[key] = result[key]
    print("stamp %s" % json.dumps(stamp, sort_keys=True))
    for problem in result["problems"]:
        print("failed: %s" % problem)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
