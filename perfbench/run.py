#!/usr/bin/env python3
"""Build the request-to-reply benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload exec-fp32 --seed 1 --seconds 10 --trace 0

Workloads: exec-fp32, exec-walker, serve-mix (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Build output and
diagnostics go to standard error. Exits non-zero, with no result line,
when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("exec-fp32", "exec-walker", "serve-mix")
BENCH = "_build/default/perfbench/main.exe"
MDHD = "_build/default/bin/mdhd.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "mdhd.ml")):
        if not os.path.exists(need):
            die(f"{need} is missing: run from the root of a checkout of the repository")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/main.exe", "./bin/mdhd.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def stop_group(proc):
    """Kill what is left of the run's process group and wait until every
    member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mdhd", MDHD]
    # The daemon and the load generator each get a CPU of their own, so
    # where the scheduler happens to place them does not change what is
    # measured. The exec workloads keep every CPU for their pool, and so
    # does a traced run, which also runs the exec workloads' passes.
    cpus = sorted(os.sched_getaffinity(0))
    pin_client = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        cmd += ["--daemon-cpu", str(cpus[0])]
        if args.workload == "serve-mix" and args.trace == 0:
            pin_client = cpus[1]
    # a session of its own, so a run that hangs is stopped with the
    # daemon it started
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=None if pin_client is None
        else lambda: os.sched_setaffinity(0, {pin_client}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        die("run timed out")
    stop_group(proc)
    if proc.returncode != 0:
        sys.stderr.write(out)
        die(f"benchmark exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark printed no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
