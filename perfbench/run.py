#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot_serve --seed 1 --seconds 10 --trace 0

Workloads: hot_serve, cold_rw, olap_paged (see perfbench/README.md).
--trace 1 runs the traced variant, which reports the per-layer metrics.

The build (CMake, Release, -march=native) goes to perfbench/build, spans
and spill files to perfbench/out. Build output goes to stderr; the last
line of stdout is the JSON result. Exits non-zero, without a result line,
when the sources are missing, the build fails, the run is invalid, or the
result does not match the metric lists in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("hot_serve", "cold_rw", "olap_paged")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def run_to_stderr(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        fail(f"no cssidx sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")) and not os.path.isfile(
        os.path.join(BUILD, "Makefile")
    ):
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_to_stderr(cmd)
    run_to_stderr(["cmake", "--build", BUILD, "-j", "3"])


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    got = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return got.stdout.strip() if got.returncode == 0 else "none"


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line of the benchmark is not JSON")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--commit", git_commit(),
        "--source-digest", source_digest(),
        "--out-dir", OUT,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(OUT, "spill"), ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(stdout)  # no result line in it on failure
        fail(f"benchmark exited with code {proc.returncode}")
    check_result(stdout.rstrip("\n").split("\n")[-1], args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
