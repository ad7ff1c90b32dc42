"""glsmx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the root of a glsmx checkout; glsmx is imported from ./src and
nothing is installed.  Workloads are `census`, `series` and `chambers` (see
plans.py).  Each run is a fresh interpreter that builds its request list
from the seed and sends the requests one at a time, each after the previous
one returned.  The request list has a fixed size, chosen so that a run at
the commit that introduced the benchmark measures about `--seconds` seconds
on its reference host (2 cores, Python 3.11); a faster program finishes the
same list sooner.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones:

  solve_s       seconds of the whole request list (checks excluded)
  req_p50_ms    median request latency
  req_p90_ms    90th-percentile request latency (every workload has more
                than 100 requests, so more than ten samples lie above it)
  setup_s       median over several fresh processes of interpreter start,
                `import glsmx` and building the request list
  peak_rss_mib  peak resident memory of the run's own process

Every time above is wall time normalised to the reference host's speed by
the kernel samples of pace.py, taken around and during each request: the
host this runs on is shared and the speed of the same code drifts by up to
a factor of two within minutes, which would otherwise swamp the difference
between two commits.  The raw wall times go to the run's record.

`fail_ratio` (failed / attempted ops) is printed with them; the JSON carries
it as `failed` and `attempted`.  With `--trace 1` the run first runs the
same seed untraced in a child process, then runs it again with tracing on
and reports the per-layer metrics of tracing.py, including
`trace.overhead_ratio`, the traced over the untraced `solve_s` (both
normalised).  The traced run samples the host's speed only before and after
each request, never inside it, and its layer times are raw wall seconds, so
that they add up to the raw traced `trace.solve_s`.

Every run writes its host, seed, per-request latencies, sample counts and
failures to .bench_out/ (span records of traced runs too).  The process exits
with status 2, printing no result, when ./src holds no glsmx.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import ops
import oracles
import pace
import plans
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_glsmx(src):
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"glsmx.{name}") for name in tracing.LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(src, "glsmx"):
        raise ImportError(f"glsmx imported from {origin}, not from {src}")
    return modules


def load_digests():
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def setup_samples(args):
    """Normalised wall time of fresh processes that start the interpreter,
    import glsmx and build the request list, then exit."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]

    def measure():
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: " + proc.stderr.decode(errors="replace"))
        return time.perf_counter() - t0

    return [pace.scale_one(measure) for _ in range(SETUP_PROBES)]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def host_info():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def execute(modules, plan, tracer=None, corrupt=(), digests=None):
    digests = load_digests() if digests is None else digests
    checker = oracles.Checker(plan, digests, corrupt)
    executor = ops.Executor(modules, plan, checker, tracer)
    if tracer is not None:
        executor.render = tracer.wrap(ops.render, "cli", "cli.render")
    executor.run()
    executor.finish()
    return executor, checker


def write_record(name, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def untraced(args, modules, plan):
    samples = setup_samples(args)
    executor, checker = execute(modules, plan)
    lat = [s for _, s in executor.latencies]
    failed = len(checker.failures)
    attempted = len(lat)
    metrics = {
        "solve_s": (sum(lat), "s"),
        "req_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "req_p90_ms": (percentile(lat, 90) * 1000, "ms"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    above = sum(1 for s in lat if s * 1000 > metrics["req_p90_ms"][0])
    print(f"{args.workload} seed={args.seed} requests={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit}")
    print(f"  {'fail_ratio':<13} {failed / attempted:12.4f} ratio ({failed}/{attempted})")
    print(f"  latency samples {attempted}, {above} above p90; setup samples {len(samples)}")
    for rid, messages in sorted(checker.failures.items()):
        print(f"  FAILED {rid}: {messages[0]}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "host": host_info(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "samples": {"latency": attempted, "above_p90": above, "setup": len(samples)},
        "setup_s_samples": samples,
        "reference_kernel_s": pace.REFERENCE_KERNEL_S,
        "kernel_samples_s": executor.samples,
        "latencies_s": executor.latencies,
        "raw_latencies_s": executor.raw_latencies,
        "failures": checker.failures,
    }
    write_record(f"{args.workload}-seed{args.seed}-trace0.json", record)
    return failed == 0, attempted, failed, metrics


def traced(args, modules, plan):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    lines = child.stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError("untraced reference run failed: " + child.stderr.decode(errors="replace"))
    reference = json.loads(lines[-1])
    tracer = tracing.Tracer(modules)
    executor, checker = execute(modules, plan, tracer)
    lat = [s for _, s in executor.latencies]
    solve_s = sum(s for _, s in executor.raw_latencies)
    overhead = sum(lat) / reference["metrics"]["solve_s"]["value"]
    metrics = tracer.metrics(solve_s, overhead)
    failed = len(checker.failures)
    attempted = len(lat)
    print(f"{args.workload} seed={args.seed} traced requests={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        share = ""
        if name.endswith(".self_s") and solve_s:
            share = f"  {100 * value / solve_s:5.1f}% of traced solve_s"
        print(f"  {name:<28} {value:14.4f} {unit}{share}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 1,
        "host": host_info(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "untraced_reference": reference,
        "attempted": attempted, "failed": failed,
        "kernel_samples_s": executor.samples,
        "latencies_s": executor.latencies,
        "raw_latencies_s": executor.raw_latencies,
        "failures": checker.failures,
        "calls": {q: s[0] for q, s in sorted(tracer.stats.items()) if s[0]},
    }
    write_record(f"{args.workload}-seed{args.seed}-trace1.json", record)
    ok = failed == 0 and reference["correct"]
    return ok, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "glsmx", "__init__.py")):
        print("error: no glsmx sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    modules = load_glsmx(src)
    plan = plans.build(args.workload, args.seed)
    if args.setup_probe:
        return 0
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args, modules, plan)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
