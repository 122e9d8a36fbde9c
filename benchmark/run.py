#!/usr/bin/env python3
"""Build the absim benchmark from this checkout and run one workload.

    python3 benchmark/run.py --workload is_full_exec --seed 1 --seconds 20 --trace 0

The benchmark program (benchmark/absim_bench.cc) links libabsim built from
the checkout's own sources into .bench_build/benchmark; the first run
compiles, later runs only re-check the build.  Build output goes to
stderr, so the last line of stdout is always the program's JSON result.
The exit status is the program's, or 1 when the build fails (for example
in a directory that holds the benchmark but not the absim sources).
See benchmark/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "benchmark"
BINARY = BUILD / "absim_bench"
BUILD_JOBS = "4"


def build():
    """Configure (a no-op once configured) and build; True on success."""
    steps = [["cmake", "-S", str(BENCH), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "absim_bench",
              "-j", BUILD_JOBS]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("benchmark: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def source_hash():
    """sha256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH):
        files += sorted(p for p in tree.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the smoke run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the build or benchmark process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--reference-dir", str(BENCH / "reference"),
           "--out-dir", str(BUILD / "out"),
           "--rev", git_rev(), "--src-hash", source_hash()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
