#!/usr/bin/env python3
"""Builds and runs the vqlib benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload session_hot --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and compiles vqlib's libraries and the perfbench
program in Release mode under $CARGO_TARGET_DIR (default .bench_build); later
runs rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the run's JSON result. Exits non-zero, printing no result, when the
build fails or the run fails its output checks.
"""

import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build_dir() -> pathlib.Path:
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (root / "perfbench").resolve()


def build(out: pathlib.Path) -> bool:
    cache = out / "CMakeCache.txt"
    if cache.exists() and str(BENCH_DIR) not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another source tree
    if not cache.exists():
        out.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", str(out), "--target", "perfbench",
                   "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main(argv: list) -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = list(argv)
    if "--trace" in args and "--self-test" not in args:
        at = args.index("--trace")
        if at + 1 < len(args) and args[at + 1] == "1":
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
            args += ["--trace-out", str(traces / (workload + ".jsonl"))]
    sys.stdout.flush()
    try:
        return subprocess.run([str(out / "perfbench")] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
