"""Corruption self-test: every oracle must be able to fail.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  For each workload it takes a few cheap
requests of the default-seed plan, runs them once with the true
expectations (no op may fail) and once per perturbed expectation: a census
count off by one, a recorded digest altered, one automorphism count off by
one, one closed-form I-function
cell altered, one tail coefficient string altered, one side of a graph-sum
relation shifted, and one chain step's order certificate flipped.  Each
perturbation must be counted as a failed op, so `fail_ratio` rises above
0.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import os
import sys

import plans
import run

CASES = {
    "census": ("census_count", "digest", "aut_order", "chain_step"),
    "series": ("p1_tail", "relation", "digest"),
    "chambers": ("ifun_cell", "digest"),
}


def mini_plan(workload):
    plan = plans.build(workload, 0)
    reqs = plan.requests
    if workload == "census":
        chains = [r for r in reqs if r.kind == "descending_chains" and r.params["bullet"] == 1
                  and r.params["g1"] == 0]
        keep = {"graphs:0,2,0,1", chains[0].rid,
                next(r.rid for r in reqs if r.kind == "contract")}
        keep |= {r.rid for r in reqs if r.needs in keep}
        extra = {}
    elif workload == "series":
        rel = next(r for r in plan.extra["relations"] if r["n"] == 1 and r["delta"] == 1)
        keep = {"p1:y=3"} | set(rel["terms"])
        keep |= {r.rid for r in reqs if r.kind == "tree_series_S" and r.params["y"] == 2}
        keep.add(next(r.rid for r in reqs if r.kind == "stilde_at_zero" and r.params["y"] == 2))
        extra = {"relations": [rel]}
    else:
        keep = {r.rid for r in reqs if r.kind == "ifun" and r.params["model"] == "quintic-lg"
                and r.params["q_max"] == 2}
        for kind in ("mu", "edge"):
            keep.add(next(r.rid for r in reqs if r.kind == kind))
        keep.add(next(r.rid for r in reqs if r.kind == "jwc" and r.params["q_max"] == 4))
        extra = {}
    return plans.Plan(workload, 0, [r for r in reqs if r.rid in keep], extra)


def main():
    modules = run.load_glsmx(os.path.join(os.getcwd(), "src"))
    ok = True
    for workload, corruptions in CASES.items():
        plan = mini_plan(workload)
        for corrupt in (None,) + corruptions:
            _, checker = run.execute(modules, plan, corrupt=() if corrupt is None else (corrupt,))
            failed = len(checker.failures)
            ratio = failed / len(plan.requests)
            good = failed == 0 if corrupt is None else failed > 0
            ok &= good
            label = corrupt or "clean"
            print(f"{workload:<9} {label:<13} fail_ratio {ratio:.4f} ({failed}/{len(plan.requests)})"
                  f" {'ok' if good else 'WRONG'}")
            for rid, messages in sorted(checker.failures.items()):
                print(f"    {rid[:70]}: {messages[0][:90]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
