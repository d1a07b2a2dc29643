#!/usr/bin/env python3
"""Builds and runs anmat's end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload pipeline|clean|serve --seed N \
      --seconds S --trace 0|1 [--tiny]

The first run configures and builds anmat (Release) and the driver under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The driver's output is passed through; its last line is the JSON
result. Exits non-zero, printing no result, when the build or a run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library sources and build file, for the record."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def build(build_root, env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("anmat sources (CMakeLists.txt, src/) not found at " + ROOT)
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 8))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target",
                            "anmat_perfbench", "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, env=env)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "anmat_perfbench")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["pipeline", "clean", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (the smoke test's mode)")
    p.add_argument("--trace-out", help="Chrome trace path (traced runs)")
    args = p.parse_args()

    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Keep the compiler's and the program's temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(build_root, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(build_root, env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_root, "work",
                                      "%s-%d" % (args.workload, os.getpid())),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        cmd += ["--trace-out", args.trace_out or os.path.join(
            build_root, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    r = subprocess.run(cmd, env=env)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
