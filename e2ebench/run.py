#!/usr/bin/env python3
"""Build the e2ebench program from source and run one workload.

    python3 e2ebench/run.py --workload r18_revolve_ram --seed 1 --seconds 20 --trace 0

Configures and builds e2ebench/ (a CMake project over ../src) as a Release
build in $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is
unset, runs the workload, and passes its output through: the last line of
standard output is the JSON result. Build output goes to standard error.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("r18_revolve_ram", "r18_spill_bitmap", "insitu_duty_cycle")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(out: Path) -> Path:
    """Configures (cheap once cached) and builds incrementally; returns the
    binary."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2ebench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)
    return out / "e2ebench"


def commit() -> str:
    """The git commit when run from a git checkout, else "none"."""
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources (path + content), so
    a result names the code it measured even outside git."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1

    scratch = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch),
               "--commit", commit(), "--source-digest", source_digest()]
    try:
        # On timeout subprocess.run kills the child and waits for it.
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
