#!/usr/bin/env python3
"""Builds and runs the cirrus benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The first run configures and builds
`cirrus_perfbench` (the libraries under src/ plus this directory, Release)
into $CARGO_TARGET_DIR, or `.bench_build` when that is unset; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the repository sources are missing or the build fails.

setup_s is process start to the first timed call. For --trace 0 this
launcher first starts the program SETUP_ROUNDS times with --setup-only
(each sets up, reports its time and exits), then the measured run, which
reports the median of those times and its own. Each start passes --t0, the
launcher's CLOCK_MONOTONIC reading just before the process starts.
"""
import os
import shutil
import subprocess
import sys
import time

SETUP_ROUNDS = 4

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "cirrus_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cirrus_perfbench")


def git_sha():
    if os.environ.get("CIRRUS_GIT_SHA"):
        return os.environ["CIRRUS_GIT_SHA"]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def start(binary, args, env, **kwargs):
    """Runs the program, passing the process start time (--t0)."""
    t0 = str(time.monotonic_ns())
    return subprocess.run([binary, "--root", ROOT, "--t0", t0] + args, env=env, **kwargs)


def setup_samples(binary, args, env):
    samples = []
    for _ in range(SETUP_ROUNDS):
        proc = start(binary, args + ["--setup-only"], env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s "):
            fail("set-up round failed", proc.returncode or 1)
        samples.append(lines[-1].split()[1])
    return samples


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    env = dict(os.environ, CIRRUS_GIT_SHA=git_sha())
    args = sys.argv[1:]
    if "--trace" in args[:-1] and args[args.index("--trace") + 1] == "0":
        args += ["--setup-samples", ",".join(setup_samples(binary, args, env))]
    sys.exit(start(binary, args, env).returncode)


if __name__ == "__main__":
    main()
