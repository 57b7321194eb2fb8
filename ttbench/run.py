#!/usr/bin/env python3
"""Build and run the ttbench benchmark driver.

    python3 ttbench/run.py --workload <cold_solve|churn|restart_sweep> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 ttbench/run.py --self-test

Run from the repository root. Configures and builds the driver (and the
ttdim library, from the repository's own CMake build) under the directory
named by CARGO_TARGET_DIR, or .bench_build, then runs it with the given
arguments. Build output goes to a log file and, on failure, to stderr, so
the driver's JSON result stays the last line of stdout. Exits non-zero
without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("ttbench: build failed, see %s\n" % log_path)
                return False
    return True


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "ttbench-cmake")
    if sys.argv[1:] == ["--self-test"]:
        if not build(build_dir, ["ttbench_stats_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "ttbench_stats_test")],
                              cwd=build_dir).returncode
    if not build(build_dir, ["ttbench"]):
        return 1
    state_dir = os.path.join(target_dir, "ttbench-state")
    cmd = [os.path.join(build_dir, "ttbench")] + sys.argv[1:] + ["--state-dir", state_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
