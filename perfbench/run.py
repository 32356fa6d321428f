#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 40 --trace 0

Configures the repository's own CMake project with the benchmark program
added (perfbench/hook.cmake), builds only the benchmark and the libraries it
links, then runs it. The build goes to $CARGO_TARGET_DIR, or .bench_build
when that is unset. The last line of stdout is the result object; the lines
before it carry the machine and build fingerprint and the run's details.
Exits non-zero when the build fails or any replication fails its checks.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_sweep", "fleet_serial", "fleet_sharded")


def nproc():
    return len(os.sched_getaffinity(0))


def build(root):
    """Builds the benchmark program; returns its path or exits on failure."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt in %s; run from the repository root" % root)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Configured on every call: cheap when nothing changed, and it pins the
    # build type and the hook even when the directory was configured before
    # (CMake refuses a cache made from another source tree).
    steps = [["cmake", "-S", root, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
              "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(nproc())]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench", "perfbench")


def git_describe(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def benchmark_env():
    """The simulator reads MSTC_* overrides; none may leak into a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MSTC_")}
    # The sharded kernel drains on this pool plus the calling thread, so
    # nproc - 1 pool threads make nproc workers.
    env["MSTC_THREADS"] = str(max(2, nproc() - 1))
    return env


def run(workload, seed, seconds, trace, extra=()):
    """Builds, runs one workload and returns the completed process."""
    root = os.getcwd()
    binary = build(root)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--digests", os.path.join(HERE, "digests.txt"),
               "--git-describe", git_describe(root), *extra]
    return subprocess.run(command, env=benchmark_env(), stdout=subprocess.PIPE, text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float,
                        help="simulated seconds per replication, replacing the "
                             "workload's (for comparing it with longer runs)")
    args = parser.parse_args()
    extra = () if args.duration is None else ("--duration", str(args.duration))
    done = run(args.workload, args.seed, args.seconds, args.trace, extra)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
