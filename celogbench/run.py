#!/usr/bin/env python3
"""Builds celogbench from source and runs one workload.

    python3 celogbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Run from the root of a celog checkout. The build goes to
$CARGO_TARGET_DIR/celogbench (default .bench_build/celogbench), configured
once as a Release build and brought up to date on every run. The last line
of stdout is the benchmark's result object; the exit code is the
benchmark's (0 only when every check passed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_grid", "exa_100k", "serve_open", "fleet_campaign")
# A run that has not finished by then is killed and reported as failed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"celogbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=root)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, cwd=root)
    return os.path.join(build_dir, "celogbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="every size shrunk (self-test)")
    ap.add_argument("--expected",
                    default=os.path.join(HERE, "expected_digests.txt"),
                    help="committed digests at the recorded seeds")
    ap.add_argument("--record-digests", metavar="FILE",
                    help="write this workload's recorded-seed digests to "
                         "FILE instead of checking them")
    args = ap.parse_args()

    root = os.getcwd()
    needed = [os.path.join(root, "src", "CMakeLists.txt"),
              os.path.join(root, "bench", "wall_clock.hpp")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        log("not a celog checkout (missing " + ", ".join(missing) + ")")
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(root, ".bench_build"))
    try:
        exe = build(root, os.path.join(build_root, "celogbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # Relative to the checkout: Unix socket paths must stay short.
    scratch = os.path.relpath(os.path.join(build_root, "runs", args.workload),
                              root)
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.tiny:
        cmd.append("--tiny")
    if args.record_digests:
        cmd += ["--record-digests", os.path.abspath(args.record_digests)]
    else:
        cmd += ["--expected", os.path.abspath(args.expected)]

    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        log(f"no result line (exit {proc.returncode})")
        return proc.returncode or 1
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
