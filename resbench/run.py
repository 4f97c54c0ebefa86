#!/usr/bin/env python3
"""Build and run the resilience benchmark from the root of a checkout.

One run:
    python3 resbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  Build output and
diagnostics go to standard error.

Spread mode (run-to-run spread behind the bounds in BENCHMARK.json):
    python3 resbench/run.py --spread RUNS --workload NAME [--seconds S] [--first-seed N]
runs the workload RUNS times with seeds N, N+1, ... and prints, per
end-to-end metric, the median, the quartiles and the quartile distance as
a share of the median.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["ptime_scale", "hard_exact", "service_mix", "routed_mix"]

# Settings the program reads from its environment.  The benchmark measures
# the default configuration: one domain, no legacy plane, kernels on,
# tracing off, the default minimalization cap and GC settings.
PINNED = {"RES_JOBS": "1"}
UNSET = ["RES_LEGACY_EVAL", "RES_COL_KERNELS", "RES_TRACE", "RES_MINIMALIZE_CAP", "OCAMLRUNPARAM"]

RUN_TIMEOUT_S = 170


def pinned_env():
    env = dict(os.environ)
    for k in UNSET:
        env.pop(k, None)
    env.update(PINNED)
    # keep dune's build cache inside the checkout's _build only
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.exit("resbench: run from the root of a resilience checkout (dune-project, lib/, bin/ missing)")
    cmd = ["dune", "build", "--root", ".", "--display=quiet",
           "./resbench/resbench.exe", "./bin/resilience_cli.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("resbench: build failed")


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(args, env):
    tmp = os.path.join(".resbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["./_build/default/resbench/resbench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", "./_build/default/bin/resilience_cli.exe",
           "--tmp", tmp, "--commit", commit()]
    # a session of its own, so every process the run starts can be
    # stopped together if it overruns
    p = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = 124
        print("resbench: run overran %d s, stopped" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".resbench-tmp")
        except OSError:
            pass
    return rc


def spread(args):
    here = os.path.abspath(__file__)
    rows = {}
    failed_shares = []
    for i in range(args.spread):
        seed = args.first_seed + i
        cmd = [sys.executable, here, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("resbench: run with seed %d failed (exit %d)" % (seed, out.returncode))
        res = json.loads(lines[-1])
        failed_shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(res)), flush=True)
    print("workload %s, %d runs of %g s, failed share per run: %s"
          % (args.workload, args.spread, args.seconds, sorted(set(failed_shares))))
    print("%-18s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "iqr/med"))
    for name, vals in rows.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-18s %12.4f %12.4f %12.4f %8.4f" % (name, q1, med, q3, (q3 - q1) / med if med else 0.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="RUNS")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    env = pinned_env()
    build(env)
    if args.spread > 0:
        spread(args)
        return 0
    return run_once(args, env)


if __name__ == "__main__":
    sys.exit(main())
