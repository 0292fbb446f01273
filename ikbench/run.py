#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload.

    python3 ikbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ikbench/run.py --self-test

Run from the repository root.  The first run configures and builds
`dadu` and ikbench into .bench_build/ikbench (Release); later runs
reuse that build.  The wire workloads' open-loop rates come from
ikbench/workloads.json.  The last line of standard output is the
result object: end-to-end metrics with --trace 0, per-layer metrics
from a separate traced pass with --trace 1.  Exits non-zero without a
result when the build or a run fails, and with a result marked
"correct": false when any answer is wrong.
"""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ikbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
BUILD_TYPE = "Release"
# One run must end well within 180 s; a first run also builds (~1 min).
RUN_TIMEOUT_S = 170


def log(msg):
    print("ikbench: " + msg, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "dadu", "dadu.hpp")):
        log("no program sources next to the benchmark (expected src/dadu)")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """Content hash of the program and benchmark sources (the checkout
    a benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "ikbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def compiler():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_ikbench(cmd):
    """Run ikbench in its own process group, so a timeout also stops
    every `dadu serve` it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the benchmark's helpers")
    args = ap.parse_args()

    if args.self_test:
        if not build(["ikbench_helpers_test"]):
            return 2
        return subprocess.run([os.path.join(BUILD, "ikbench_helpers_test")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    with open(os.path.join(HERE, "workloads.json")) as fh:
        config = json.load(fh)
    if args.workload not in config["workloads"]:
        ap.error("unknown workload %r (have: %s)"
                 % (args.workload, ", ".join(config["workloads"])))
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    wl = config["workloads"][args.workload]

    t0 = time.monotonic()
    if not build(["dadu", "ikbench"]):
        log("build failed")
        return 2
    log("build ready in %.1f s" % (time.monotonic() - t0))

    header = {
        "command": " ".join(shlex.quote(a) for a in [sys.executable] + sys.argv),
        "build_type": BUILD_TYPE,
        "compiler_path": compiler(),
        "git_commit": git_commit(),
        "source_sha256": source_id(),
        "default_seed": config["default_seed"],
        "held_out_seed": config["held_out_seed"],
    }
    cmd = [os.path.join(BUILD, "ikbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dadu", os.path.join(BUILD, "dadu", "tools", "dadu"),
           "--spans-dir", SPANS,
           "--header-json", json.dumps(header)]
    if "light_rps" in wl:
        cmd += ["--light-rps", str(wl["light_rps"]),
                "--heavy-rps", str(wl["heavy_rps"])]
    code, out = run_ikbench(cmd)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write("\n".join(l for l in lines if not l.startswith('{"correct"')))
        log("ikbench failed (exit %d)" % code)
        return code or 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
