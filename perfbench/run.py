#!/usr/bin/env python3
"""Entry point of the FSAM benchmark.

Run from the root of an FSAM checkout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

Builds perfbench/fsambench.exe from source with dune, runs it with the given
arguments and passes its output through. The last line of standard output
is the run's result as one JSON object. The exit code is not 0 when the
build fails, the run fails or its result line is malformed.
"""

import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "fsambench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def tree_digest():
    """Digest of the sources the benchmark builds, for the run labels."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
        for p in paths:
            if p.endswith((".ml", ".mli", ".c", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    # only the checkout itself: never a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of an FSAM checkout (no dune-project or lib/ here)", 2)
    # no shared dune cache, and the compilers' temporary files inside the
    # checkout: the build writes nowhere else
    tmp = os.path.abspath(".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                            "./perfbench/fsambench.exe"], env=env)
    if build.returncode != 0:
        return fail("build failed", 3)
    env["FSAM_BENCH_COMMIT"] = git_commit()
    env["FSAM_BENCH_TREE"] = tree_digest()
    proc = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return fail("run exited with %d" % proc.returncode, 5)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("no result line", 6)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line", 6)
    return 0


if __name__ == "__main__":
    sys.exit(main())
