#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(inside the working directory, shared build cache off), then runs it
with the same arguments plus the source revision for the result's host
block.  The benchmark's stdout passes through unchanged; its last line
is the JSON summary.  Exits with the benchmark's code, or 2 when the
tree cannot be built (for example, a directory holding only the
benchmark and not the program).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = pathlib.Path("_build/default/perfbench/perfbench.exe")
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def git_rev():
    """The checked-out commit, read from .git here (never a parent's)."""
    git = pathlib.Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for p in sorted(pathlib.Path(d).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli", ".py") or p.name == "dune"):
                h.update(str(p).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (pathlib.Path("dune-project").is_file() and pathlib.Path("lib").is_dir()):
        fail("no program to build here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with code %d" % build.returncode)
    rev = git_rev()
    if rev == "unknown":
        rev = "src-" + source_digest()
    try:
        run = subprocess.run([str(EXE)] + sys.argv[1:] + ["--git-rev", rev],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
