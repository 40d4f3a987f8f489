#!/usr/bin/env python3
"""Build and run vdep's end-to-end benchmark (see perfbench/README.md).

Run from the root of a vdep source checkout:

    python3 perfbench/run.py --workload compile_tiers --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the vdep_perfbench program in
Release mode under .bench_build/perfbench (later runs rebuild only what
changed). Each run then executes vdep_perfbench with a scrubbed environment
(every VDEP_* knob the library reads is removed) and a private temporary
directory under .bench_build/tmp, used for the disk caches, the JIT work
directories and the C compiler's own temporaries, and removed at exit.

The last line of standard output is the JSON result. Build output and
diagnostics go to standard error. Without a vdep source tree in the current
directory the script exits with status 2 and prints no result.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "vdep_perfbench")
WORKLOADS = ("compile_tiers", "large_kernels", "serve_batches")
# Everything in the environment the library reads.
SCRUBBED = ("VDEP_CACHE_DIR", "VDEP_CACHE_MAX_BYTES", "VDEP_TRACE",
            "VDEP_METRICS", "VDEP_PIN", "VDEP_CC")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "vdep_perfbench",
                "-j", str(jobs())], BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=20, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def run_program(argv, env):
    """Runs vdep_perfbench in its own process group; on timeout the whole
    group (the program and any cc it started) is killed and reaped."""
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one checked output per round (self-test)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "vdep.h"))):
        fail("no vdep source tree in the current directory; run from the "
             "root of a vdep checkout")
    build()

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "tmp"))
    env["TMPDIR"] = tmp
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--tmp", tmp, "--git-sha", git_sha()]
    if args.inject_mismatch:
        argv.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        rc = run_program(argv, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
