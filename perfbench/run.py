"""Benchmark entry point for autoheat.

    python3 perfbench/run.py --workload arc --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Starts one fresh worker process
(perfbench/worker.py) with src/ on the path and the BLAS/OpenMP pools held to
one thread, relays its report, and prints the result JSON as the last line
of stdout.  Exits non-zero, without a result, when the checkout has no
autoheat sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="autoheat benchmark")
    ap.add_argument("--workload", required=True, help="arc or cusp (checked by the worker)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "autoheat", "__init__.py")):
        return fail(f"no autoheat sources under {src}; run from the root of a checkout", 2)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    env.pop("AUTOHEAT_DATA", None)  # the packaged data set
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles alike
    for var in ONE_THREAD:
        env[var] = "1"

    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--t-spawn", repr(t_spawn), "--out", out_dir]
    with subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return fail(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s", 3)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        return fail(f"worker exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        return fail("worker printed no result", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
