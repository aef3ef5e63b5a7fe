#!/usr/bin/env python3
"""Build and run the mtk end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Builds the library and the perfbench program from source into .bench_build/
(Release, incremental after the first run), then runs one workload. The
program's standard output passes through unchanged; its last line is the
result object. Build output goes to standard error. `--workload all` runs
every workload in turn and prints one result line per workload, each with
a "workload" key added; it exits non-zero if any run failed or was not
correct. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cp_als_sparse", "par_cp_als_sparse", "par_cp_als_dense",
             "serve_mixed")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    return p.parse_args()


def build():
    """Configures once and builds incrementally; returns the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stdin=subprocess.DEVNULL,
                           check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs],
                       stdout=sys.stderr, stdin=subprocess.DEVNULL, check=True)
    return os.path.join(BUILD, "perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if not f.endswith(".pyc"))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    # Only the checkout's own repository: never a parent directory's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             stdin=subprocess.DEVNULL)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_workload(binary, args, workload, digest):
    """Runs the program once; returns its standard output, or None."""
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--source-digest", digest,
           "--git-rev", git_rev()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return out.decode()


def main():
    args = parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    digest = source_digest()
    if args.workload != "all":
        out = run_workload(binary, args, args.workload, digest)
        if out is None:
            return 1
        sys.stdout.write(out)
        return 0
    status = 0
    for workload in WORKLOADS:
        out = run_workload(binary, args, workload, digest)
        if out is None:
            status = 1
            continue
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        print(json.dumps({"workload": workload, **result}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
