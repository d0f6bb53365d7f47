#!/usr/bin/env python3
"""dfsim's benchmark: build dfbench, run one workload, check it, report.

    python3 perfbench/run.py --workload cell_par_ct2 --seed 7 --seconds 30 --trace 0

--trace 0 times the workload, repeated as many times as fit in --seconds
(rounded to the nearest repetition, at least one), and reports the end-to-end
metrics as medians over the repetitions.
--trace 1 makes one traced run and reports the per-layer metrics derived from
its spans. Either way the last stdout line is one JSON object:

    {"correct": ..., "attempted": cells, "failed": cells, "metrics": {...}}

and the exit code is 0 only when every cell passed the output check. See
perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parent))
import derive  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "perfbench"
DFBENCH = BUILD_DIR / "dfbench"
# Whole-command deadline: stop repeating (and give up on a hung dfbench) in
# time to print a result well inside 180 s.
DEADLINE_S = 165.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build dfbench from the checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no dfsim sources next to %s; run from a full checkout" % BENCH_DIR)
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and str(BENCH_DIR) not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not cache.is_file():
        command = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "dfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def cpu_row():
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def loadavg1():
    with open("/proc/loadavg") as load:
        return float(load.read().split()[0])


def output_path(args, suffix):
    """Per-workload, per-seed output file under .bench_build/perfbench/."""
    return OUT_DIR / ("%s-%s-seed%d%s" % (args.workload, args.topo, args.seed, suffix))


def run_dfbench(args, mode, timeout_s):
    """One dfbench process: (raw JSON result or None, peak RSS in MB)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DFSIM_")}
    command = [str(DFBENCH), "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--topo", args.topo,
               "--jsonl", str(output_path(args, ".jsonl")),
               "--spans", str(output_path(args, ".spans.jsonl"))]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(max(timeout_s, 1.0), proc.send_signal, (signal.SIGKILL,))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        log("dfbench exited with %d" % proc.returncode)
        return None, rss_mb
    return json.loads(out.decode().splitlines()[-1]), rss_mb


def binary_digest():
    digest = hashlib.sha256()
    with open(DFBENCH, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_determinism(args, raw, digest):
    """Cells whose deterministic counters differ from an earlier run of the
    same binary, workload and seed in this checkout (the first run records)."""
    record = output_path(args, ".counters.json")
    counters = derive.counters_of(raw)
    try:
        saved = json.loads(record.read_text())
    except (OSError, ValueError):
        saved = None  # first run of this seed, or a record torn by a kill
    if saved is not None and saved["binary"] == digest:
        return derive.counter_mismatches(saved["cells"], raw["cells"])
    if all(c is not None for c in counters):
        partial = record.with_suffix(".tmp")
        partial.write_text(json.dumps({"binary": digest, "cells": counters}))
        os.replace(partial, record)
    return []


def check_run(args, raw, digest):
    """(cells attempted, cells failed, problems) for one dfbench result."""
    problems = []
    failed = set()
    for cell in raw["cells"]:
        cell_problems = derive.check_cell(cell, args.topo, args.packet_offset)
        if cell_problems:
            failed.add(cell["index"])
            problems += cell_problems
    for index in check_determinism(args, raw, digest):
        failed.add(index)
        problems.append("cell %d: deterministic counters differ from an earlier run "
                        "of the same seed" % index)
    return len(raw["cells"]), len(failed), problems


def print_metrics(title, metrics):
    print(title)
    for name, value in metrics.items():
        print("  %-28s %16.6g %s" % (name, value, derive.UNITS[name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=derive.WORKLOADS + derive.EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--topo", choices=("paper", "tiny"), default="paper",
                        help="tiny = the 72-node test machine (self-tests only)")
    parser.add_argument("--packet-offset", type=int, default=0,
                        help="shift every expected packet count (self-tests only)")
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2
    started = time.monotonic()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    digest = binary_digest()

    cpu_before, load = cpu_row(), loadavg1()
    mode = "traced" if args.trace else "timed"
    runs = []  # (raw, rss_mb)
    durations = []
    attempted = failed = 0
    problems = []
    while True:
        rep_start = time.monotonic()
        raw, rss_mb = run_dfbench(args, mode, DEADLINE_S - (rep_start - started))
        if raw is None:
            attempted += 1
            failed += 1
            problems.append("dfbench did not produce a result")
            break
        cells, cells_failed, run_problems = check_run(args, raw, digest)
        attempted += cells
        failed += cells_failed
        problems += run_problems
        runs.append((raw, rss_mb))
        now = time.monotonic()
        durations.append(now - rep_start)
        if args.trace or not derive.another_repetition(now - started, durations,
                                                       args.seconds, DEADLINE_S):
            break
    host = {"steal_frac": derive.steal_frac(cpu_before, cpu_row()), "loadavg1": load}
    print("host: steal_frac=%.4f loadavg1=%.2f repetitions=%d wall_s=[%s]"
          % (host["steal_frac"], host["loadavg1"], len(runs),
             ", ".join("%.3f" % r["wall_s"] for r, _ in runs)))
    for problem in problems:
        print("CHECK FAILED: " + problem)

    metrics = {}
    if runs:
        end_to_end = {
            "wall_s": statistics.median(r["wall_s"] for r, _ in runs),
            "setup_s": statistics.median(s for r, _ in runs for s in r["setup_s_samples"]),
            "peak_rss_mb": statistics.median(rss for _, rss in runs),
        }
        print_metrics("end-to-end (%s run):" % mode, end_to_end)
        metrics = end_to_end
        if args.trace:
            spans_path = output_path(args, ".spans.jsonl")
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
            layers = derive.per_layer(runs[0][0], spans, host, failed, attempted)
            metrics = {name: layers[name] for name, _ in derive.PER_LAYER}
            print_metrics("per-layer (traced run; spans in %s):" % spans_path, metrics)
    correct = bool(runs) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": derive.UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
