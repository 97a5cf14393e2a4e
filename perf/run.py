#!/usr/bin/env python3
"""Build and run the GENAS end-to-end benchmark.

    python3 perf/run.py --workload paper-inproc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The OCaml program is a dune
project of its own, perf/_ocaml/. It is staged together with the
repository's lib/ under .bench_build/ and built there, so the
repository's own dune build never compiles it. It is then run once;
its standard output is passed through, ending in the one-line JSON
result. The exit status is the program's: 0 when every delivery check
passed, 1 when one failed, and 2 or more when the build or the run
itself failed. See perf/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROJECT = os.path.join(ROOT, "perf", "_ocaml")
STAGE = os.path.join(ROOT, ".bench_build", "src")
EXE = os.path.join(STAGE, "_build", "default", "bench", "main.exe")
WORKLOADS = ("paper-inproc", "net-pubsub", "agg-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Below this calibrated parallelism the host has no second core to
# give, and the run is pinned to one CPU (see perf/README.md).
PIN_BELOW = 1.5
PR_SET_TIMERSLACK = 29
ADDR_NO_RANDOMIZE = 0x0040000


def fail(code, msg):
    print("perf/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail(2, "neither dune nor opam is on PATH")


def source_id():
    """The git commit in a clone; elsewhere a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perf"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def tree_files(src, prefix):
    """(path in the staged tree, source path) for every file under src."""
    for dirpath, _, filenames in os.walk(src):
        for name in filenames:
            path = os.path.join(dirpath, name)
            yield os.path.join(prefix, os.path.relpath(path, src)), path


def stage():
    """Mirror perf/_ocaml/ and lib/ into the staged tree. Only files
    whose bytes differ are written, and files no longer in the sources
    are removed, so a rebuild of unchanged sources does nothing."""
    for need in (PROJECT, os.path.join(ROOT, "lib")):
        if not os.path.isdir(need):
            fail(2, "missing " + os.path.relpath(need, ROOT) + "/")
    files = dict(tree_files(PROJECT, ""))
    files.update(tree_files(os.path.join(ROOT, "lib"), "lib"))
    for rel, src in files.items():
        dst = os.path.join(STAGE, rel)
        with open(src, "rb") as f:
            data = f.read()
        try:
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        except OSError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    for dirpath, dirnames, filenames in os.walk(STAGE):
        if dirpath == STAGE and "_build" in dirnames:
            dirnames.remove("_build")
        for name in filenames:
            path = os.path.join(dirpath, name)
            if os.path.relpath(path, STAGE) not in files:
                os.remove(path)


def build():
    stage()
    cmd = dune_command() + ["build", "--root", STAGE, "./bench/main.exe"]
    try:
        res = subprocess.run(cmd, cwd=STAGE, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if res.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(res.stdout + res.stderr)
        fail(2, "build failed")


def calibrate():
    """The host's effective parallelism, measured by the program."""
    try:
        res = subprocess.run([EXE, "calibrate"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        return float(res.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        fail(2, "calibration failed")


def settle(parallelism):
    """Pin to one CPU where the host has no usable second core, cut the
    timer slack so the open-loop generator's sleeps end on time, and
    turn off address-space randomization so every run lays out its heap
    the same way. All three are inherited by the program and the server
    process it starts. Returns the pinned CPU, or "none"."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass
    if parallelism >= PIN_BELOW or not hasattr(os, "sched_setaffinity"):
        return "none"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return str(cpu)


def run(args):
    parallelism = calibrate()
    cpu = settle(parallelism)
    cmd = [EXE, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--parallelism", repr(parallelism), "--cpu", cpu]
    # Own session, so a timeout takes down the server process too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(3, "run timed out")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        fail(proc.returncode or 4, "run failed")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(4, "no result line")
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
