"""End-to-end acceptance gate.

Each test runs one of the bundled verification criteria (the same table of
bodies the `glsmx verify` subcommand runs), prints a single pass/fail line,
and asserts exact success.  All comparisons inside the criteria are exact
rational identities; there are no tolerances anywhere.
"""

from __future__ import annotations

import time
from fractions import Fraction as Frac

from helpers_graphs import brute_loc_graphs

from glsmx import criteria


def _run(capsys, number, label, budget=None):
    name, body = criteria.CRITERIA[number - 1]
    assert name == label
    start = time.perf_counter()
    outcome = criteria.run_criterion(name, body)
    elapsed = time.perf_counter() - start
    status = "PASS" if outcome["status"] == "pass" else "FAIL"
    with capsys.disabled():
        print(f"criterion {number:2d} ({label}): {status} ({elapsed:.1f}s)")
    assert outcome["status"] == "pass", outcome["first_failure"]
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_tail_closed_forms(capsys):
    _run(capsys, 1, "tail closed forms", budget=60)


def test_criterion_02_square_root_ratio(capsys):
    _run(capsys, 2, "square root ratio", budget=10)


def test_criterion_03_tail_series_first_terms(capsys):
    _run(capsys, 3, "tail series first terms")


def test_criterion_04_dual_route(capsys):
    _run(capsys, 4, "dual route coefficients", budget=120)


def test_criterion_05_leading_terms(capsys):
    _run(capsys, 5, "leading term normalization")


def test_criterion_06_pairing_relations(capsys):
    _run(capsys, 6, "pairings and relations")


def test_criterion_07_graph_census(capsys):
    _run(capsys, 7, "graph census")
    # the frozen counts the criterion holds the census to get re-derived
    # live by the independent brute-force partition oracle, on the
    # criterion's LG quintic at epsilon 2/5; slow, but this is the point of
    # the gate
    for key, expected in sorted(criteria._CENSUS.items()):
        assert len(brute_loc_graphs(5, True, Frac(2, 5), *key)) == expected, key


def test_criterion_08_contraction_corpus(capsys):
    _run(capsys, 8, "contraction corpus")


def test_criterion_09_partial_order(capsys):
    _run(capsys, 9, "partial order chains")


def test_criterion_10_stability_margin(capsys):
    _run(capsys, 10, "stability margin scan")
