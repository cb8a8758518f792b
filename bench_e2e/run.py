#!/usr/bin/env python3
"""End-to-end benchmark entry point (see bench_e2e/README.md).

    python3 bench_e2e/run.py --workload enum_nested --seed 1 --seconds 15 --trace 0
    python3 bench_e2e/run.py --test            # the benchmark's own tests
    python3 bench_e2e/run.py --write-expected  # refresh expected_fronts.json

Run from the root of a source checkout.  The first call configures and
builds bench_e2e/ (a CMake project over the repository's src/) into
.bench_build/; later calls rebuild incrementally.  Each run generates the
workload's specifications from --seed into a scratch directory under
.bench_build/, measures them with sdf_e2e, deletes the scratch directory
and prints sdf_e2e's detail line and, last, its result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SDF_E2E = os.path.join(BUILD, "sdf_e2e")
TESTS = os.path.join(BUILD, "e2e_test")
EXPECTED = os.path.join(HERE, "expected_fronts.json")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def sdf_e2e(*args, timeout=RUN_TIMEOUT_S, capture=False):
    return subprocess.run([SDF_E2E, *args], check=True, timeout=timeout,
                          stdout=subprocess.PIPE if capture else sys.stderr,
                          text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e: build failed: {err}", file=sys.stderr)
        return 1

    if args.test:
        return subprocess.run([TESTS], cwd=ROOT).returncode

    tag = f"{args.workload or 'expect'}-{args.seed}-{os.getpid()}"
    corpus = os.path.join(BUILD, "corpus-" + tag)
    os.makedirs(corpus)
    try:
        if args.write_expected:
            sdf_e2e("expect", "--corpus", corpus, "--root", ROOT,
                    "--out", EXPECTED, timeout=None)
            return 0
        if not args.workload:
            parser.error("--workload is required")
        seed = str(args.seed)
        sdf_e2e("generate", "--workload", args.workload, "--seed", seed,
                "--corpus", corpus, "--root", ROOT)
        out = sdf_e2e("run", "--workload", args.workload, "--seed", seed,
                      "--seconds", str(args.seconds), "--trace", args.trace,
                      "--corpus", corpus, "--expected", EXPECTED,
                      "--trace-out",
                      os.path.join(BUILD, f"trace-{args.workload}-{seed}.json")
                      if args.trace == "1" else "",
                      capture=True)
        sys.stdout.write(out.stdout)
        return 0
    except (OSError, subprocess.SubprocessError) as err:
        print(f"bench_e2e: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(corpus, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
