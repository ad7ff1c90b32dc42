"""Alternating-pair runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload series --seed 0 --seed 41

Runs `perfbench/run.py --trace 0` from each checkout in turn, one fresh
process per run, PAIRS pairs per seed and workload, alternating which side
runs first, and prints one JSON object: for every (seed, workload) and
every end-to-end metric of the parent's BENCHMARK.json, each side's median
and quartiles
(statistics.quantiles, inclusive), the parent's IQR and its share of the
parent median, the pairs in which the change reads lower (ties count for
neither side), the relative change of the medians, whether the change's
median stays within the metric's bound, and whether a claimed gain would
meet the rule of at least nine tenths of the pairs lower with a median
difference larger than the parent's IQR.  Every run is listed.  Every
end-to-end metric is lower-is-better; a benchmark with another is refused.

The host's speed drifts within minutes, so a set taken in one order can
favour the side that ran in a fast phase; alternating the order within
each pair spreads the drift over both sides.  Give the two checkouts paths
of the same length (say `parent` and `change` in one directory).  Standard
library only.  `tools/verify_pairs.py` reuses `quartiles` and `summarize`,
and `tests/test_tools.py` checks the claim rule on synthetic runs; the
package imports nothing from here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600
CLAIM_SHARE = 0.9
PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, action="append", required=True)
    return p.parse_args(argv)


def run_once(checkout, workload, seed):
    """The JSON result line of one untraced run from a checkout."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent, change):
    """The comparison of one lower-is-better metric over paired runs."""
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    lower = sum(b < a for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "parent_iqr": iqr,
        "parent_iqr_share": iqr / p["median"],
        "change_lower": lower,
        "pairs": len(parent),
        "relative_change": c["median"] / p["median"] - 1,
        "claim_rule_met": lower >= CLAIM_SHARE * len(parent) and p["median"] - c["median"] > iqr,
        "runs": {"parent": parent, "change": change},
    }


def main(argv=None):
    args = parse_args(argv)
    if len(os.path.abspath(args.parent)) != len(os.path.abspath(args.change)):
        print("warning: the two checkouts' paths differ in length", file=sys.stderr)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise SystemExit("every end-to-end metric must be lower-is-better")
    sides = {"parent": args.parent, "change": args.change}
    report = {"protocol": (
        f"perfbench/run.py --trace 0, one fresh process per run, "
        f"{PAIRS} alternating pairs per seed and workload, the side that runs first "
        "alternating; quartiles by statistics.quantiles(method='inclusive')"
    ), "workloads": {}}
    for seed in args.seed:
        for workload in args.workload:
            runs = {side: [] for side in sides}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed))
                print(f"seed {seed} {workload}: pair {i + 1}/{PAIRS}", file=sys.stderr)
            entry = {
                "all_correct": all(r["correct"] for side in runs.values() for r in side),
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            }
            for metric in metrics:
                name = metric["name"]
                entry[name] = summary = summarize(
                    *([r["metrics"][name]["value"] for r in runs[side]] for side in sides)
                )
                summary["within_bound"] = (
                    summary["change"]["median"] <= (1 + metric["bound"]) * summary["parent"]["median"]
                )
            report["workloads"][f"seed_{seed}/{workload}"] = entry
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
