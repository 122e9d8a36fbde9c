#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a parent against a change.

    python3 bench/ab.py --parent HEAD --workload is_full_exec \\
        --pairs 5 --seconds 20 --seed 11 --workdir /tmp/absim-ab

The parent (a git revision) and the change (the working tree: tracked
plus untracked, non-ignored files) are exported into two fresh
directories under --workdir: the parent with `git archive`, the change
by copying those files, so each side holds exactly its own files and the
repository gains no worktree registrations.  Each side then runs
`benchmark/run.py --trace 0`, which builds its own copy under
`.bench_build/`; one untimed --tiny run per side does the build before
the first pair.

Pair i runs both sides on seed (--seed + i), the parent first on even i
and the change first on odd i, so drift of the shared host (other
tenants, thermal state) falls on both sides alike.  For every metric the
table gives both medians, the parent's interquartile range and the pairs
the change won, by the metric's own direction from BENCHMARK.json.  A
change whose median moves by more than the parent's IQR and that wins
nearly every pair has moved the metric; one that does not has not.  The
script gates nothing: its exit status is 0 unless a run fails or reports
a failed cell.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """Write revision @rev (None = the working tree) into @dest."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                       check=True)
        return
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, capture_output=True,
        check=True).stdout.decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # A tracked file deleted in the tree is gone.
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(tree, workload, seed, seconds, tiny=False):
    """One benchmark/run.py run in @tree; its parsed result line."""
    cmd = [sys.executable, str(tree / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"ab: {tree.name} {workload} seed {seed} "
                         f"exited {out.returncode}")
    result = json.loads(lines[-1])
    if result.get("failed", 0) != 0:
        raise SystemExit(f"ab: {tree.name} {workload} seed {seed}: "
                         f"{result['failed']} failed cell(s)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, better):
    """Per metric: both medians, the parent's IQR, pairs won."""
    summary = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        lower = better.get(name, "lower") == "lower"
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "won": won,
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=11,
                        help="seed of the first pair; pair i uses seed+i")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="scratch directory for the two exports")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error("--pairs and --seconds must be >= 1, --seed >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.workdir.resolve() / "parent",
             "change": args.workdir.resolve() / "change"}
    export(args.parent, sides["parent"])
    export(None, sides["change"])
    for tree in sides.values():
        run_side(tree, args.workload[0], args.seed, 1, tiny=True)

    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            got = {side: run_side(sides[side], workload, seed, args.seconds)
                   for side in order}
            pairs.append((got["parent"], got["change"]))
            wall = {side: got[side].get("wall_s", float("nan"))
                    for side in got}
            print(f"ab {workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  f"wall_s {wall['parent']:.6g} -> {wall['change']:.6g}",
                  file=sys.stderr, flush=True)
        print(f"== {workload}: {args.pairs} pairs, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}")
        print(f"{'metric':34} {'parent':>12} {'change':>12} "
              f"{'parent IQR':>12} {'won':>7}")
        for name, s in summarize(pairs, better).items():
            print(f"{name:34} {s['parent_median']:12.6g} "
                  f"{s['change_median']:12.6g} {s['parent_iqr']:12.4g} "
                  f"{s['won']:>3}/{args.pairs:<3}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
