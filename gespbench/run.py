#!/usr/bin/env python3
"""Build and run the GESP benchmark.

    python3 gespbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds gespbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, then runs the gespbench binary. Build output goes to
stderr; its report goes to stdout, its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. The traced run (--trace 1)
also writes its spans to <build dir>/traces/<workload>-seed<N>.json.
Exits nonzero, without a result line, when the sources or the build are
missing or broken.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit if there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "gespbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GESP sources next to gespbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "gespbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "gespbench")
    if not os.path.isfile(exe):
        fail("build produced no gespbench binary")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (proc.returncode not in (0, 1) or not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(proc.stdout)
        fail("gespbench exited %d without a result" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
