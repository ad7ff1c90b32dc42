"""Run every workload once and print all end-to-end metrics by name.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Run it from the root of a checkout.  Each workload runs in its own fresh
process through run.py, one after the other; the table lists `solve_s`,
`req_p50_ms`, `req_p90_ms`, `setup_s`, `peak_rss_mib` and `fail_ratio` with
their units.  With --trace it also runs each workload traced and lists the
layer self-time shares of the traced `solve_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import plans
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} failed: {proc.stderr.decode(errors='replace')}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="run every workload once")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    ok = True
    for workload in plans.WORKLOADS:
        result = run_once(workload, args.seed, args.seconds, 0)
        ok &= result["correct"]
        print(f"{workload} (seed {args.seed}): correct={result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<14} {m['value']:12.4f} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'fail_ratio':<14} {ratio:12.4f} ratio"
              f" ({result['failed']}/{result['attempted']} ops)")
        if args.trace:
            traced = run_once(workload, args.seed, args.seconds, 1)["metrics"]
            total = traced["trace.solve_s"]["value"]
            shares = ", ".join(
                f"{layer} {100 * traced[layer + '.self_s']['value'] / total:.1f}%" for layer in LAYERS
            )
            rest = 100 * traced["trace.remainder_s"]["value"] / total
            print(f"  self-time shares: {shares}, remainder {rest:.1f}%"
                  f"; overhead {traced['trace.overhead_ratio']['value']:.3f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
