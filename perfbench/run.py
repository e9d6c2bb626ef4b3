#!/usr/bin/env python3
"""Builds the perfbench binary from the repository's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds into
`.bench_build/` (a few minutes); later calls rebuild only what changed. The
binary's stdout passes through unchanged: its last line is the result
object, and a record line before it carries the checkout's git sha. Exact
outputs of every (workload, seed, input) are recorded under
`.bench_out/witness/` per binary, and a later run that disagrees
fails loudly. Traced runs (--trace 1) write their spans to
`.bench_out/spans/`. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures once, then builds the perfbench target; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the repository's sources are not next to the benchmark")
    generated = ("build.ninja", "Makefile")
    if not any(os.path.isfile(os.path.join(BUILD, f)) for f in generated):
        configure = ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr,
        check=True,
    )


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def git_sha():
    """The checkout's HEAD now, `-dirty` if tracked files differ from it.

    Read at every run, not at configure time, so a build tree reused across
    commits still records the commit that ran. `unknown` when the checkout
    is not a git repository; git is not let search the directories above it.
    """
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny event budgets, for smoke_test.py"
    )
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    command = [
        BINARY,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--git_sha={git_sha()}",
        f"--witness_dir={os.path.join(OUT, 'witness', binary_digest())}",
        f"--spans_dir={os.path.join(OUT, 'spans')}",
    ]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
