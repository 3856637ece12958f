#!/usr/bin/env python3
"""Build the remix benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <transient|study|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root) and run from the repository root,
pinned to one CPU: the last one this process may use. Its last line of
output is the result object. Span files go under
`<target dir>/perfbench-run/`, inside the checkout and ignored by git.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "remix-perfbench")
    cmd = [binary] + sys.argv[1:] + [
        "--scratch", os.path.join(target, "perfbench-run"), "--commit", commit()]
    # One CPU for the whole run: a serve round trip then hands off between
    # threads on that CPU instead of waking a thread on the other one, and
    # no op migrates mid-run.
    cpu = max(os.sched_getaffinity(0))
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        ).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
