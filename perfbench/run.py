#!/usr/bin/env python3
"""Builds the FTMC benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) compiled against the library sources in src/;
it is configured and built on first use into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is the
result object; build logs go to standard error. --selftest builds and runs
the oracle tests instead.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target: str) -> Path:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / target


def main() -> int:
    args = sys.argv[1:]
    try:
        if args == ["--selftest"]:
            return subprocess.run([str(build("perfbench_oracle_test"))]).returncode
        binary = build("ftmc_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir = ROOT / "perfbench-out"
    return subprocess.run([str(binary), *args, "--out-dir", str(out_dir)]).returncode


if __name__ == "__main__":
    sys.exit(main())
