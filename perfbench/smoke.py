#!/usr/bin/env python3
"""Minimal-length smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json it
makes two untraced runs and one traced run of one second each, and
checks that:
  - each run exits 0 with a correct, failure-free summary line;
  - the untraced runs emit exactly the end_to_end metrics, the traced
    run exactly the per_layer metrics, each with its declared unit;
  - every end-to-end value is finite and non-zero;
  - the report line before the summary carries the host block and, in
    untraced runs, the unbounded latency_p99_ms, max_rps_under_slo,
    compile_ms_geomean_measured and speed_probe_ms;
  - the deterministic figures (modeled_* and simt.*) are identical
    across two invocations with different seeds.
It also checks that the benchmark exits non-zero without printing a
result in a directory holding only BENCHMARK.json and the benchmark.
Exits 1 on the first failed check.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = json.loads(pathlib.Path("BENCHMARK.json").read_text())
SCRATCH = pathlib.Path(".perfbench_tmp")
UNBOUNDED = ("latency_p99_ms", "max_rps_under_slo",
             "compile_ms_geomean_measured", "speed_probe_ms")


def check(cond, msg):
    if not cond:
        print("smoke: FAIL: " + msg, file=sys.stderr)
        sys.exit(1)


def run(workload, seed, trace, cwd="."):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def summary(workload, seed, trace):
    p = run(workload, seed, trace)
    tag = "%s seed %d trace %d" % (workload, seed, trace)
    check(p.returncode == 0, "%s exited %d:\n%s" % (tag, p.returncode, p.stderr[-3000:]))
    lines = p.stdout.strip().splitlines()
    check(lines, tag + " printed nothing")
    s = json.loads(lines[-1])
    check(sorted(s) == ["attempted", "correct", "failed", "metrics"],
          tag + " summary keys " + str(sorted(s)))
    check(s["correct"] is True and s["failed"] == 0 and s["attempted"] >= 1,
          "%s: correct %s, %s of %s failed" % (tag, s["correct"], s["failed"], s["attempted"]))
    want = BENCH["per_layer" if trace else "end_to_end"]
    check(sorted(s["metrics"]) == sorted(m["name"] for m in want),
          tag + " metric names differ from BENCHMARK.json")
    for m in want:
        got = s["metrics"][m["name"]]
        check(got["unit"] == m["unit"], "%s: %s unit %r, declared %r"
              % (tag, m["name"], got["unit"], m["unit"]))
        v = got["value"]
        check(isinstance(v, (int, float)) and math.isfinite(v), "%s: %s = %r" % (tag, m["name"], v))
        if not trace:
            check(v != 0, "%s: end-to-end metric %s is 0" % (tag, m["name"]))
    report = json.loads(lines[-2])
    host = report["host"]
    for k in ("cores", "ocaml", "git_rev", "workers", "seed", "seconds"):
        check(k in host, "%s: host block lacks %s" % (tag, k))
    if not trace:
        for k in UNBOUNDED:
            got = report["unbounded"].get(k)
            check(got is not None and math.isfinite(got["value"]),
                  "%s: report line lacks %s" % (tag, k))
    return s["metrics"]


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith("modeled_") or k.startswith("simt.")}


def bare_directory():
    bare = SCRATCH / ("bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for d in BENCH["paths"]:
            shutil.copytree(d, bare / d,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = BENCH["workloads"][0]["name"]
        p = run(name, 1, 0, cwd=bare)
        check(p.returncode != 0, "bare directory run exited 0")
        check(not p.stdout.strip().startswith("{") and '"correct"' not in p.stdout,
              "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def main():
    for w in BENCH["workloads"]:
        name = w["name"]
        a = summary(name, 1, 0)
        b = summary(name, 2, 0)
        check(deterministic(a) == deterministic(b),
              name + ": modeled_* differ across invocations")
        t1 = summary(name, 3, 1)
        t2 = summary(name, 4, 1)
        check(deterministic(t1) == deterministic(t2),
              name + ": simt.* differ across invocations")
        print("smoke: %s ok" % name, flush=True)
    bare_directory()
    print("smoke: bare directory refused")
    print("smoke: ok")


if __name__ == "__main__":
    main()
