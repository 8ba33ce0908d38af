#!/usr/bin/env python3
"""celogbench self-test at tiny sizes.

    python3 celogbench/selftest.py

Run from the root of a celog checkout. For every workload it checks that
  * an untraced run passes and emits every end-to-end metric of
    BENCHMARK.json, each with its declared unit;
  * a traced run passes and emits every per-layer metric, each with its unit;
  * a run against a corrupted expected digest fails (nonzero exit and
    "correct": false).
Exit code 0 when all checks hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paper_grid", "exa_100k", "serve_open", "fleet_campaign")


def run(workload, trace, expected=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if expected:
        cmd += ["--expected", expected]
    p = subprocess.run(cmd, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except ValueError:
        result = None
    return p.returncode, result


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def corrupt(path, workload):
    """A copy of the expected digests with `workload`'s seed-1 digest off by
    one bit."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "selftest_digests.txt")
    lines = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3 and parts[0] == workload and parts[1] == "1":
                parts[2] = "%016x" % (int(parts[2], 16) ^ 1)
                line = " ".join(parts) + "\n"
            lines.append(line)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        f.writelines(lines)
    return out


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            want = declared(spec, key)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append(f"{workload} trace={trace}: missing {missing} "
                                f"extra {extra} wrong units {wrong}")
        bad = corrupt(os.path.join(HERE, "expected_digests.txt"), workload)
        code, result = run(workload, 0, expected=bad)
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: corrupted digest was not detected")
        print(f"selftest {workload}: done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
