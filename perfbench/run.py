#!/usr/bin/env python3
"""Builds and runs the trace-replay benchmark of the SAMS server.

Run from the repository root:

    python3 perfbench/run.py --workload sinkhole --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only re-run the incremental build. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Run scratch (stores) and the traced runs' output files go to .bench_runs/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: the server sources (src/) are missing; "
                         "run from a full checkout\n")
        return False
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode == 0 else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "perfbench", "perfbench_selftest"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main():
    out = build_dir()
    if not build(out):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.chdir(ROOT)
    if sys.argv[1:] == ["--selftest"]:
        cmd = [os.path.join(out, "perfbench_selftest"), ".bench_runs/selftest"]
    else:
        cmd = [os.path.join(out, "perfbench")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
