#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_large --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the irf_perfbench binary from source into $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
Checkpoints and span files are written under <build dir>/out.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_large", "eco_warm", "hot_serve")
RUN_TIMEOUT_S = 170   # a run must finish within 180 s
# Telemetry and kernel-selection knobs a run must not inherit from the
# caller's environment: every run uses the library's defaults. The binary
# pins the pool width (IRF_THREADS) itself.
SCRUBBED_ENV = ("IRF_TRACE", "IRF_METRICS", "IRF_SIMD", "IRF_DEBUG_CHECKS",
                "IRF_RESIDUAL_CURVES", "IRF_SCALE", "IRF_SEED", "IRF_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "irf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return build_dir / "irf_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = pathlib.Path.cwd() / build_dir
    binary = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["IRF_LOG_LEVEL"] = "quiet"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # run() has killed and reaped it
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
