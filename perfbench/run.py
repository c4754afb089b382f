#!/usr/bin/env python3
"""Build and run the region-selection benchmark.

    python3 perfbench/run.py --workload live-matrix --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Builds the benchmark executable and
the daemon from source with dune (release profile, build directory
.bench_build/dune), then runs one workload.  The last line of standard
output is the result object; see perfbench/README.md for the workloads
and metrics.  Extra arguments after the known ones are passed to the
benchmark executable (e.g. --corrupt-reference).
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
BENCH_EXE = "perfbench/ocaml/perfbench.exe"
DAEMON_EXE = "bin/regionsel_daemon.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    for needed in ("dune-project", "lib", "bin", "perfbench/ocaml/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a source tree: %s is missing under %s" % (needed, ROOT))
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    # No shared dune cache: the build reads and writes only inside the tree.
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
           "--build-dir", os.path.join(ROOT, BUILD_DIR),
           "./" + BENCH_EXE, "./" + DAEMON_EXE]
    try:
        # dune's own output goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["live-matrix", "revl-roundtrip", "daemon-stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    build()
    cmd = [os.path.join(BUILD_DIR, "default", BENCH_EXE),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon-exe", os.path.join(BUILD_DIR, "default", DAEMON_EXE),
           "--out-dir", OUT_DIR, "--commit", source_commit()] + extra
    # Its own process group, so the daemon it starts can be stopped with it
    # whatever way it ends, this script being stopped included.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: sys.exit(128 + signum))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        kill_group(proc.pid)
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        kill_group(proc.pid)
        if proc.returncode is None:
            proc.wait()
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
