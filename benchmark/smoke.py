#!/usr/bin/env python3
"""Tiny-size smoke of the benchmark; takes seconds once it is built.

    python3 benchmark/smoke.py

Builds absim_bench, runs its correctness self-test (a perturbed reference
must be reported as a failed cell), then every workload of BENCHMARK.json
at tiny size, untraced and traced, and checks each result line: correct,
no failed cell, and exactly the metric names and units BENCHMARK.json
lists for that mode.  Exit status 0 when everything holds.
"""
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own launcher, same directory)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not run.build():
        return 1
    ok = subprocess.run([str(run.BINARY), "--self-test", "--out-dir",
                         str(run.BUILD / "out")]).returncode == 0
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            out = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload",
                 workload["name"], "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny"],
                capture_output=True, text=True)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                good = (out.returncode == 0 and result["correct"] is True
                        and result["failed"] == 0 and result["attempted"] >= 1
                        and got == want)
            except (IndexError, ValueError, KeyError, TypeError):
                good = False
            print(f"smoke {workload['name']} trace={trace}: "
                  f"{'ok' if good else 'FAIL'}")
            if not good:
                sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
