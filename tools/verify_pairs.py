"""Alternating-pair runs of `glsmx verify` on two checkouts, per criterion.

    python3 tools/verify_pairs.py --parent ../parent --change ../change

Runs `glsmx verify` from each checkout's ./src in turn, one fresh process
per run, PAIRS pairs, alternating which side runs first.  Each process
starts with cold caches, runs the criteria of `glsmx.criteria.CRITERIA` in
report order through the command itself, times each criterion and the whole
command (wall seconds, not normalised), and hashes the command's full
stdout.  If any run's stdout hash differs from the others', on either side,
the two sides computed different reports and nothing is compared: the
script prints the hashes and exits 1.  Otherwise it prints one JSON object
with, for the whole command and for every criterion, each side's median and
quartiles (statistics.quantiles, inclusive), the parent's IQR and its share
of the parent median, the pairs in which the change reads lower (ties count
for neither side), the relative change of the medians and whether a
claimed gain would meet the rule of `tools/bench_pairs.py`.  Every run is
listed.

The host's speed drifts within minutes; alternating the order within each
pair spreads the drift over both sides.  Standard library only; the
comparison is `summarize` of `tools/bench_pairs.py`, and the package
imports nothing from here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench_pairs import PAIRS, RUN_TIMEOUT_S, summarize

# One cold run in a fresh interpreter: criteria.run_criterion is wrapped
# with a timer, so `glsmx verify` itself runs the criteria in its own order
# and prints its own report.
CHILD = r"""
import contextlib, hashlib, io, json, sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
from glsmx import cli, criteria
times = {}
run_criterion = criteria.run_criterion

def timed(name, body):
    start = time.perf_counter()
    try:
        return run_criterion(name, body)
    finally:
        times[name] = time.perf_counter() - start

criteria.run_criterion = timed
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify"])
total = time.perf_counter() - t0
print(json.dumps({"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  "total_s": total, "criteria": times}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    return p.parse_args(argv)


def run_once(checkout):
    """The timings and stdout hash of one cold `glsmx verify` run."""
    out = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side]))
        print(f"verify: pair {i + 1}/{PAIRS}", file=sys.stderr)
    hashes = {side: sorted({r["sha256"] for r in rs}) for side, rs in runs.items()}
    if len({h for hs in hashes.values() for h in hs}) != 1:
        print(json.dumps({"refused": "the verify stdout differs", "sha256": hashes}, indent=1))
        return 1
    names = list(runs["parent"][0]["criteria"])
    report = {
        "protocol": (
            f"glsmx verify from cold caches, one fresh process per run, {PAIRS} alternating "
            "pairs, the side that runs first alternating; wall seconds; quartiles by "
            "statistics.quantiles(method='inclusive')"
        ),
        "sha256": hashes["parent"][0],
        "exit_codes": {side: sorted({r["code"] for r in rs}) for side, rs in runs.items()},
        "total_s": summarize(*([r["total_s"] for r in runs[side]] for side in sides)),
        "criteria": {
            name: summarize(*([r["criteria"][name] for r in runs[side]] for side in sides))
            for name in names
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
