#!/usr/bin/env python3
"""Runs one dod_bench workload and prints its result as one JSON line.

    python3 dod_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the library and the benchmark from source into .bench_build/ on
first use (Release; the build is incremental afterwards), runs
`dod_bench` once, and prints its full record followed by, as the last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `metrics` holds every end-to-end metric BENCHMARK.json names
(--trace 0) or every per-layer one (--trace 1), each as
{"value": ..., "unit": ...}. Exits non-zero without that line when the
build fails, the sources are missing, or the record lacks a metric.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "dod_bench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "dod_bench", "--parallel", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return BUILD_DIR / "dod_bench"


def run_tmp_dir():
    """A scratch directory of this run's own under .bench_build/tmp.

    stream_localized keeps its checkpoint store there. Each run gets its
    own directory so runs in one checkout never delete each other's store;
    directories of runs whose process is gone (killed runs) are removed.
    """
    parent = BUILD_DIR / "tmp"
    parent.mkdir(exist_ok=True)
    for entry in parent.iterdir():
        try:
            os.kill(int(entry.name.removeprefix("run-")), 0)
            continue  # its run is still going
        except ProcessLookupError:
            pass
        except (ValueError, PermissionError):
            continue
        shutil.rmtree(entry, ignore_errors=True)
    tmp_dir = parent / f"run-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir()
    return tmp_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    binary = build()
    tmp_dir = run_tmp_dir()

    # Seeds are unsigned 64-bit inside the benchmark.
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed % 2**64),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--tmp_dir", str(tmp_dir)]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dod_bench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if not lines:
        fail(f"dod_bench printed no record (exit {child.returncode})")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"dod_bench's last line is not a record (exit "
             f"{child.returncode}): {lines[-1][:200]}")

    key = "end_to_end" if args.trace == 0 else "per_layer"
    source = record["end_to_end" if args.trace == 0 else "layers"]
    metrics = {}
    for wanted in spec[key]:
        got = source.get(wanted["name"])
        if got is None or got["unit"] != wanted["unit"] or got["value"] is None:
            fail(f"record lacks {key} metric {wanted['name']} "
                 f"[{wanted['unit']}]")
        metrics[wanted["name"]] = got

    print(lines[-1])
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
