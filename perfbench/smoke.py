#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke.py

1. Every workload, untraced and traced, at the tiny size: the result line
   must be well formed, name exactly the metrics BENCHMARK.json lists,
   and report zero failed cells.
2. Negative case: with one host-oracle checksum corrupted, the run must
   count failed cells (and only some of them) and report correct=false.
3. In a directory holding only BENCHMARK.json and the benchmark files,
   the benchmark must exit non-zero without printing a result.

Takes about a minute; exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args, cwd="."):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout


def result(args):
    code, out = run(args)
    if code != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(args), code, out))
    return json.loads(out.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def main():
    spec = json.load(open("BENCHMARK.json"))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", w, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--size", "tiny"]
            r = result(args)
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace %s: result keys" % (w, trace))
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            check(units == expected[trace],
                  "%s trace %s: metric names and units" % (w, trace))
            check(all(isinstance(v["value"], (int, float))
                      for v in r["metrics"].values()),
                  "%s trace %s: numeric values" % (w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s trace %s: %d cells, none failed"
                  % (w, trace, r["attempted"]))
        r = result(["--workload", w, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--size", "tiny", "--corrupt-oracle"])
        check(not r["correct"] and 0 < r["failed"] < r["attempted"],
              "%s: corrupted oracle counted as %d failed of %d cells"
              % (w, r["failed"], r["attempted"]))
    bare = os.path.join(".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, out = run(["--workload", "tfm-apps", "--seed", "1", "--seconds",
                     "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and '"metrics"' not in out,
          "benchmark files alone: exit %d, no result" % code)


if __name__ == "__main__":
    main()
