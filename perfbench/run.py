#!/usr/bin/env python3
"""Build perfbench from source and run one workload of the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py ... --save results.jsonl   # also append the result
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The build lives in .bench_build/ at the repository root (Release, so
timings come from optimised code). The last line of stdout is the JSON
result; it is printed only when the run passed its correctness gate and
its metrics are exactly the ones BENCHMARK.json names for the mode.
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
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another source tree
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "perfbench_compare", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (full log in {log_path})")


def revision():
    """Git revision when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    return f"git {rev}, sources sha256 {digest.hexdigest()[:16]}"


def run(args, bench):
    why = next((w["why"] for w in bench["workloads"]
                if w["name"] == args.workload), None)
    if why is None:
        fail(f"workload '{args.workload}' is not in BENCHMARK.json")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--why", why, "--revision", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no JSON result")
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"expected {sorted(expected.items())}")
    sys.stdout.write(proc.stdout)
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **result}
        with open(args.save, "a") as f:
            f.write(json.dumps(record) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append the JSON result to this file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two files of saved results")
    args = p.parse_args()

    bench = load_benchmark()
    build()
    if args.compare:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_compare"),
             os.path.join(ROOT, "BENCHMARK.json"), *args.compare]).returncode)
    if not args.workload:
        fail("--workload is required")
    run(args, bench)


if __name__ == "__main__":
    main()
