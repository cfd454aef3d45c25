#!/usr/bin/env python3
"""Builds the ampsched benchmark from source, then runs it.

Usage (from the repository root):

    python3 ampbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (ampbench/CMakeLists.txt) compiles the library from
../src into the build directory -- $CARGO_TARGET_DIR when set, otherwise
.bench_build under the repository root -- and every flag is passed on to the
`ampbench` binary unchanged, which rejects unknown ones. The build's own
output goes to stderr, so the last stdout line is always the binary's JSON
result. Exits non-zero, printing no result, when the sources or the build
are missing.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"ampbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """Commit id when the tree is a git checkout, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            if out:
                return "git:" + out
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "ampbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ampbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary] + sys.argv[1:] + ["--commit", source_id(), "--trace-dir", traces]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
