#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first call configures and
builds the package in bench_e2e/ (CMakeLists.txt there) into the
directory named by $CARGO_TARGET_DIR, else .bench_build; later calls
only bring that build up to date.  Build output goes to stderr, so the
last line on stdout is the benchmark's own result object.  Each run
also leaves BENCH_e2e.<workload>.seed<n>.json (and, traced, a Chrome
trace) under <build dir>/results, where bench_compare can read them.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toolchain-cold", "toolchain-warm", "serve-steady", "serve-drift")
# A run measures --seconds plus a few seconds of set-up and checks; the
# binary is killed well before a caller's 180 s limit if it hangs.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out: Path, env: dict) -> bool:
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: {ROOT / 'src'} is missing; the benchmark builds the "
              "library from a full checkout", file=sys.stderr)
        return 2
    out = build_dir()
    # The compiler's and the benchmark's temporary files stay in the
    # build directory too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    if not build(out, env):
        return 2

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}" + (".traced" if args.trace else "")
    command = [str(out / "bench_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--json", str(results / f"BENCH_e2e.{tag}.json"),
               "--work-dir", str(out / "work")]
    if args.trace:
        command += ["--trace", str(results / f"trace.{args.workload}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
