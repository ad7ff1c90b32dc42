from __future__ import annotations

import ast
import collections
import contextlib
import gc
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutant

from glsmx import cli, criteria, jfun, p1series
from glsmx.algebra import CohClass, RatFun, Z
from glsmx.cli import main, report_passed, run
from glsmx.errors import ConfigError, IdentityFailed
from glsmx.graphs import _ENUM_BOUNDS
from glsmx.model import LG, GlsmModel

QUINTIC_LG = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg"}
QUINTIC_GEOM = dict(QUINTIC_LG, phase="geometric")
LG_MODEL = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)

FIG_TOP = {
    "kind": "dual",
    "vertices": [
        {"genus": 1, "degree": 0, "legs": [[1, "3/5"]]},
        {"genus": 2, "degree": 2, "legs": []},
    ],
    "edges": [{"ends": [0, 1], "mults": ["4/5", "1/5"]}],
    "v_bullet": 1,
}

FIG_SPLIT = {
    "kind": "dual",
    "vertices": [
        {"genus": 1, "degree": 0, "legs": [[1, "3/5"]]},
        {"genus": 1, "degree": 1, "legs": []},
        {"genus": 1, "degree": 1, "legs": []},
    ],
    "edges": [
        {"ends": [0, 1], "mults": ["4/5", "1/5"]},
        {"ends": [1, 2], "mults": ["0", "0"]},
    ],
    "v_bullet": 1,
}


def test_run_rejects_unknown_command():
    from glsmx.errors import ConfigError

    with pytest.raises(ConfigError):
        run("frobnicate", {})


def test_sectors_report():
    report = run("sectors", {"model": QUINTIC_LG})
    rows = report["results"]["sectors"]
    assert len(rows) == 5
    by_mult = {row["multiplicity"]: row for row in rows}
    assert by_mult["0"]["narrow"] is False
    assert by_mult["0"]["fixed_coordinates"] == [1, 2, 3, 4, 5]
    assert by_mult["1/5"]["narrow"] is True
    assert by_mult["1/5"]["isotropy_order"] == 5
    assert report_passed(report)


def test_ifun_coefficient_table():
    report = run("ifun", {"model": QUINTIC_LG, "ifun": {"q_max": 6}})
    table = report["results"]["coefficients"]
    assert table["0,1,0"] == "1"
    assert table["1,0,0"] == "1"
    assert table["2,-1,0"] == "1/2"
    assert table["3,-2,0"] == "1/6"
    assert table["5,1,0"] == "-1/375000"
    assert table["6,0,0"] == "-2/140625"
    # beta = 4 lands in a broad sector, so no entries at all
    assert not any(key.startswith("4,") for key in table)
    assert report["inputs"]["q_max"] == 6
    assert report_passed(report)


CHAMBER_MODELS = (
    QUINTIC_LG,
    QUINTIC_GEOM,
    {"weights": [1, 1, 2, 2], "N": 2, "d": 4, "phase": "lg"},
    {"weights": [1, 1], "N": 2, "d": 2, "phase": "geometric"},
)


def test_chamber_reports_read_no_fraction_terms(monkeypatch):
    # the ifun, mu and edge reports render their tables from the int
    # numerators, so the table renderer builds no Fraction at all; counts
    # only, nothing is timed
    built = []
    rendering = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if rendering:
            built.append(args)
        return new(cls, *args, **kwargs)

    def table(values):
        rendering.append(True)
        try:
            return render(values)
        finally:
            rendering.pop()

    render = cli._coefficient_table
    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(cli, "_coefficient_table", table)
    reports = []
    for model in CHAMBER_MODELS:
        for twisted in (False, True):
            reports.append(run("ifun", {"model": model, "ifun": {"q_max": 8, "twisted": twisted}}))
            reports.append(run("mu", {"model": model, "mu": {"epsilon": "2/17", "twisted": twisted}}))
            for delta, beta in ((1, 0), (3, 2), (4, 1)):
                edge = {"delta": delta, "beta": beta, "twisted": twisted, "unstable_vertex": "inf"}
                reports.append(run("edge", {"model": model, "edge": edge}))
    assert len(reports) == 40
    assert all(report_passed(r) for r in reports)
    # only the (1,1,2,2) model renders empty tables: its untwisted
    # mirror-map table has no z >= 0 term, and beta = 1 is a broad sector
    assert sum(not r["results"]["coefficients"] for r in reports) == 3
    assert built == []


def test_mu_table_lambda_strings():
    config = {
        "model": dict(QUINTIC_LG, epsilon="2/7"),
        "mu": {"twisted": True},
    }
    report = run("mu", config)
    table = report["results"]["coefficients"]
    assert table["1,0,0"] == "lam"
    assert table["2,0,0"] == "-1/2*lam"
    assert table["3,0,0"] == "1/3*lam"
    assert report["checks"][0]["name"] == "mu_zero_vanishes"
    assert report_passed(report)


def test_edge_factor_string():
    config = {"model": QUINTIC_LG, "edge": {"delta": 1, "beta": 0}}
    report = run("edge", config)
    assert report["results"]["coefficients"]["0,0,0"] == "-1/5*lam^-2"


# --- the rendered-cell and sector caches ------------------------------------


def test_equal_classes_built_apart_share_hash_and_cells(cold_caches):
    # the cell cache is keyed by value: an equal class built separately
    # finds the first one's cells, an unequal one renders its own
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, "geometric")
    first = jfun.unstable_J_coefficient(model, 2, None, True)
    cold_caches()
    second = jfun.unstable_J_coefficient(model, 2, None, True)
    rebuilt = CohClass(list(first.coeffs), first.relation, first.r)
    assert second is not first and rebuilt is not first
    assert second == first == rebuilt
    assert hash(second) == hash(rebuilt) == hash(first)
    cells = cli._cells(2, first)
    hits = cli._cells.cache_info().hits
    assert cli._cells(2, second) is cells
    assert cli._cells(2, rebuilt) is cells
    assert cli._cells.cache_info().hits == hits + 2
    assert cells[0][0].startswith("2,")
    doubled = cli._cells(2, first * 2)
    assert [k for k, _ in doubled] == [k for k, _ in cells]
    assert [t for _, t in doubled] != [t for _, t in cells]
    assert cli._cells(3, first) != cells


def _chamber_configs():
    """The ifun reports of the four chamber models at q_max 2..8 and the mu
    reports at every chamber bound 1..8, both twists."""
    for model in CHAMBER_MODELS:
        for twisted in (False, True):
            for q_max in range(2, jfun.Q_CAP + 1):
                yield "ifun", {"model": model, "ifun": {"q_max": q_max, "twisted": twisted}}
            for bound in range(1, jfun.Q_CAP + 1):
                epsilon = f"2/{2 * bound + 1}"
                yield "mu", {"model": model, "mu": {"epsilon": epsilon, "twisted": twisted}}


def test_warm_chamber_reports_equal_cold_ones(cold_caches):
    cold = []
    for command, config in _chamber_configs():
        cold_caches()
        cold.append(json.dumps(run(command, config), indent=2))
    warm = [json.dumps(run(command, config), indent=2) for command, config in _chamber_configs()]
    assert cli._cells.cache_info().hits > 0
    assert cli._sector_cell.cache_info().hits > 0
    assert len(warm) == 4 * 2 * (7 + 8)
    assert warm == cold


def test_doubled_ladder_changes_a_warm_ifun_report(monkeypatch, cold_caches):
    # the cells stay cached; a doubled value must still render as itself
    from helpers_jfun import fraction_coefficient_table

    config = {"model": QUINTIC_GEOM, "ifun": {"q_max": 4, "twisted": True}}
    warm = run("ifun", config)
    assert run("ifun", config) == warm
    ladder = jfun._ladder
    monkeypatch.setattr(jfun, "_ladder", lambda *key: ladder(*key) * 2)
    doubled = run("ifun", config)
    assert doubled["results"]["coefficients"] != warm["results"]["coefficients"]
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, "geometric")
    values = {b: ladder(model, b, True) * 2 for b in range(5)}
    assert doubled["results"]["coefficients"] == fraction_coefficient_table(values)
    assert doubled["results"]["sectors"] == warm["results"]["sectors"]


def test_jwc_gained_range():
    config = {
        "model": QUINTIC_LG,
        "jwc": {"epsilon_1": "2/7", "epsilon_2": "2/3", "q_max": 6},
    }
    report = run("jwc", config)
    assert report["results"]["gained"] == [2, 3]
    assert report["results"]["passed"] is True
    assert report_passed(report)
    assert len(report["checks"]) == 4


def test_order_reproduces_contraction_relation():
    config = {"model": QUINTIC_LG, "order": {"a": FIG_SPLIT, "b": FIG_TOP}}
    report = run("order", config)
    assert report["results"]["a_below_b"] is True
    assert report["results"]["b_below_a"] is False
    assert report["results"]["isomorphic"] is False


def test_graphs_round_trip_through_json():
    config = {
        "model": dict(QUINTIC_LG, epsilon="2/5"),
        "graphs": {"genus": 0, "markings": 1, "degree": 0, "edge_degree": 1},
    }
    report = run("graphs", config)
    assert report["results"]["count"] == 2
    assert report_passed(report)
    # every emitted graph parses back and re-serializes identically
    import glsmx.graphs as gr

    for obj in report["results"]["graphs"]:
        again = gr.graph_to_obj(gr.graph_from_obj(obj))
        assert again == obj


# a degree-1 basepoint on an edge of covering degree 1: the edge must cover
# more than the basepoint order, so validate rejects it at epsilon 2/5
_SHORT_BASEPOINT_EDGE = {
    "kind": "loc",
    "vertices": [
        {"genus": 0, "degree": 1, "legs": [], "extra_legs": 0, "level": "0"},
        {"genus": 1, "degree": 1, "legs": [[1, "4/5"]], "extra_legs": 0, "level": "inf"},
    ],
    "edges": [{"ends": [0, 1], "mults": ["3/5", "2/5"], "delta": 1}],
}


def test_graphs_report_fails_on_an_invalid_census_graph(monkeypatch, tmp_path, capsys):
    import glsmx.graphs as gr

    census = gr.enumerate_loc_graphs
    bad = gr.graph_from_obj(_SHORT_BASEPOINT_EDGE)
    monkeypatch.setattr(gr, "enumerate_loc_graphs", lambda *args: census(*args) + [bad])
    config = {
        "model": dict(QUINTIC_LG, epsilon="2/5"),
        "graphs": {"genus": 0, "markings": 1, "degree": 0, "edge_degree": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["graphs", "--config", str(config_path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {
            "name": "all_valid",
            "status": "fail",
            "first_failure": "edge 0: covering degree 1 not above basepoint order 1",
        }
    ]


def _run_criterion(name):
    """Run the verify criterion that reports under name."""
    return criteria.run_criterion(name, dict(criteria.CRITERIA)[name])


def test_census_checks_do_not_share_the_census_residue_rule(monkeypatch, cold_caches):
    # validate tests each vertex against the gauge-bundle degree itself, so
    # a census built on a residue rule shifted by one fails the graphs
    # report, every graph it emits fails validate, and criterion 7 fails.
    # The census keeps each model's residue targets, so the shifted rule
    # must start and leave the caches cold
    import re

    import glsmx.graphs as gr

    rule = gr.compat_residue
    monkeypatch.setattr(
        gr, "compat_residue", lambda model, g, n, b: (rule(model, g, n, b) + 1) % model.d
    )
    config = {
        "model": dict(QUINTIC_LG, epsilon="2/5"),
        "graphs": {"genus": 0, "markings": 1, "degree": 0, "edge_degree": 1},
    }
    report = run("graphs", config)
    assert report["results"]["count"] > 0
    [check] = report["checks"]
    assert check["name"] == "all_valid" and check["status"] == "fail"
    assert re.fullmatch(r"vertex \d+: multiplicity defect -?\d+/5 not integral", check["first_failure"])
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, "2/5")
    emitted = 0
    for key in criteria._CENSUS:
        if key[3] == 1:
            for lam in gr.enumerate_loc_graphs(model, *key):
                emitted += 1
                assert any("multiplicity defect" in m for m in gr.validate(model, lam)), key
    assert emitted > 100
    assert _run_criterion("graph census")["status"] == "fail"


def test_graph_census_criterion_fails_on_an_invalid_census_graph(monkeypatch):
    import glsmx.graphs as gr

    census = gr.enumerate_loc_graphs
    bad = gr.graph_from_obj(_SHORT_BASEPOINT_EDGE)

    def swapped(*args):
        # keep the count, so only validate can catch the swap
        out = census(*args)
        return [bad] + out[1:] if out else out

    monkeypatch.setattr(gr, "enumerate_loc_graphs", swapped)
    result = _run_criterion("graph census")
    assert result["status"] == "fail"
    assert result["first_failure"].startswith("IdentityFailed: invalid graph emitted at")


def test_contract_degree_conserved(tmp_path):
    graph = {
        "kind": "dual",
        "vertices": [
            {"genus": 0, "degree": 1, "legs": []},
            {"genus": 1, "degree": 1, "legs": [[1, "4/5"]]},
        ],
        "edges": [{"ends": [0, 1], "mults": ["3/5", "2/5"]}],
    }
    config = {
        "model": dict(QUINTIC_LG, epsilon="2/5"),
        "contract": {"graph": graph},
    }
    report = run("contract", config)
    assert report_passed(report)
    names = [c["name"] for c in report["checks"]]
    assert "degree_conserved" in names
    assert "fixpoint" in names
    before = report["results"]["degree_before"]
    assert report["results"]["degree_after_with_basepoints"] == before


def _contract_config(graph, epsilon, model=QUINTIC_LG):
    return {"model": model, "contract": {"graph": graph, "epsilon": epsilon}}


_TAIL_ON_ANCHOR = {
    "kind": "dual",
    "vertices": [
        {"genus": 0, "degree": 1, "legs": []},
        {"genus": 1, "degree": 1, "legs": [[1, "4/5"]]},
    ],
    "edges": [{"ends": [0, 1], "mults": ["3/5", "2/5"]}],
}


def _fixpoint_check(report):
    return next(c for c in report["checks"] if c["name"] == "fixpoint")


def test_contract_fixpoint_check_fails_when_no_pass_contracts(monkeypatch):
    # the degree-1 tail is not 2/7-stable; a pass that never contracts
    # leaves it in place, which the fixpoint check and criterion 8 both see
    def never(model, graph, records, epsilon):
        return graph, records, False

    monkeypatch.setattr(criteria.gr, "contraction_pass", never)
    report = run("contract", _contract_config(_TAIL_ON_ANCHOR, "2/7"))
    assert report["results"]["basepoints"] == []
    assert _fixpoint_check(report) == {
        "name": "fixpoint",
        "status": "fail",
        "first_failure": "vertex 0 is not stable after contraction",
    }
    result = _run_criterion("contraction corpus")
    assert result["first_failure"] == (
        "IdentityFailed: vertex 3 unstable after contraction at degrees [3, 2, 1] eps 2/5"
    )


def _centre_with_tails(genus, extra_legs, tails):
    centre = {"genus": genus, "degree": 0, "legs": [], "extra_legs": extra_legs}
    tail = {"genus": 0, "degree": 1, "legs": []}
    return {
        "kind": "dual",
        "vertices": [centre] + [tail] * tails,
        "edges": [{"ends": [0, i], "mults": ["0", "0"]} for i in range(1, tails + 1)],
    }


def test_contract_refuses_input_with_no_stable_object():
    # two degree-1 tails on a degree-0 centre with an extra leg would
    # contract into a lone vertex that is not 2/7-stable: genus 0, one
    # marking and degree 2 give -1 + 2*(2/7) < 0, so no 2/7-stable object
    # has them, and the input is refused before any contraction
    graph = _centre_with_tails(0, 1, 2)
    report = run("contract", _contract_config(graph, "2/7", QUINTIC_GEOM))
    assert report["results"] == {}
    assert report["checks"] == [{
        "name": "ConfigError",
        "status": "fail",
        "first_failure": "no 2/7-stable object has genus 0, 1 markings and degree 2: "
        "2g - 2 + n + epsilon*degree = -3/7 is not positive",
    }]
    # on the boundary, three tails on a bare centre at 2/3 give -2 + 3*(2/3)
    # = 0, and the input is refused too
    boundary = run("contract", _contract_config(_centre_with_tails(0, 0, 3), "2/3", QUINTIC_GEOM))
    assert boundary["checks"][0]["first_failure"] == (
        "no 2/3-stable object has genus 0, 0 markings and degree 3: "
        "2g - 2 + n + epsilon*degree = 0 is not positive"
    )
    # with two more tails, or in the wider 2/3 chamber, the lone vertex left
    # is stable and the fixpoint check passes
    for graph, epsilon in ((_centre_with_tails(0, 1, 4), "2/7"), (graph, "2/3")):
        report = run("contract", _contract_config(graph, epsilon, QUINTIC_GEOM))
        assert len(report["results"]["graph"]["vertices"]) == 1
        assert report_passed(report), report["checks"]


def test_handler_error_becomes_failing_check():
    report = run("mu", {"model": dict(QUINTIC_LG, epsilon="1/2")})
    assert report["checks"][0]["name"] == "OnWall"
    assert report["checks"][0]["status"] == "fail"
    assert not report_passed(report)


def test_a_bad_model_fails_on_every_call_and_equal_models_are_shared():
    # the parsed model is cached, but a cache keeps no exception, so a bad
    # config raises on every call; equal configs share one frozen model
    bad = {"model": dict(QUINTIC_LG, weights=[3, 1, 1, 1, 1])}
    for _ in range(3):
        with pytest.raises(ConfigError, match="weight 3 does not divide d=5"):
            cli._model_from_config(bad)
    first = cli._model_from_config({"model": dict(QUINTIC_LG, epsilon="2/5")})
    assert cli._model_from_config({"model": dict(QUINTIC_LG, epsilon="2/5")}) is first
    assert first == GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Fraction(2, 5))


@pytest.mark.parametrize(
    "weights, epsilon, name, message",
    [
        # the epsilon is read before the model is validated, and the
        # weights are validated before the wall test
        ([3, 1, 1, 1, 1], "1/0", "ConfigError", "model.epsilon: cannot read '1/0' as a rational"),
        ([3, 1, 1, 1, 1], "1/2", "ConfigError", "weight 3 does not divide d=5"),
        ([1, 1, 1, 1, 1], "1/2", "OnWall", "epsilon = 1/2 sits on a wall"),
    ],
)
def test_model_errors_keep_their_order_on_repeated_calls(weights, epsilon, name, message):
    model = dict(QUINTIC_LG, weights=weights, epsilon=epsilon)
    config = {"model": model, "aut": {"graph": FIG_TOP}}
    for _ in range(2):
        assert run("aut", config)["checks"] == [
            {"name": name, "status": "fail", "first_failure": message}
        ]


def test_aut_refuses_a_multiplicity_off_the_model_grid():
    # the isotropy order of 1/3 under d = 5 is undefined
    graph = _with(FIG_TOP, edges=[{"ends": [0, 1], "mults": ["1/3", "2/3"]}])
    for _ in range(2):
        assert run("aut", {"model": QUINTIC_LG, "aut": {"graph": graph}})["checks"] == [
            {
                "name": "ConfigError",
                "status": "fail",
                "first_failure": "multiplicity 1/3 has denominator not dividing 5",
            }
        ]


def test_main_writes_identical_reports(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    out_path = tmp_path / "report.json"
    config_path.write_text(
        json.dumps(
            {
                "model": QUINTIC_LG,
                "ifun": {"q_max": 4},
                "out": str(out_path),
            }
        )
    )
    code = main(["ifun", "--config", str(config_path)])
    first = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text() == first
    code = main(["ifun", "--config", str(config_path)])
    second = capsys.readouterr().out
    assert code == 0
    assert second == first
    report = json.loads(first)
    assert report["command"] == "ifun"


def test_main_truncation_overrides(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": QUINTIC_LG}))
    code = main(["ifun", "--config", str(config_path), "--q-order", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["inputs"]["q_max"] == 3
    assert max(int(k.split(",")[0]) for k in report["results"]["coefficients"]) <= 3
    code = main(["p1", "--y-order", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["inputs"]["y_order"] == 2
    assert sorted(report["results"]["tail_unit"]) == ["y^0", "y^1", "y^2"]


def test_main_failing_check_exits_one(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": dict(QUINTIC_LG, epsilon="1/2")}))
    code = main(["mu", "--config", str(config_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checks"][0]["name"] == "OnWall"


def test_edge_above_the_degree_cap_fails(tmp_path, capsys):
    config = {"model": QUINTIC_LG, "edge": {"delta": 10, "beta": jfun.Q_CAP + 1}}
    report = run("edge", config)
    assert [c["name"] for c in report["checks"]] == ["BoundsExceeded"]
    assert not report_passed(report)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["edge", "--config", str(config_path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "fail"


def test_main_bad_config_goes_to_stderr(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    code = main(["sectors", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err


def test_main_non_utf8_config_goes_to_stderr(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xff{}")
    code = main(["sectors", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "is not UTF-8 text" in captured.err


_DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_main_deeply_nested_config_goes_to_stderr(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(_DEEP_JSON)
    code = main(["sectors", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "nests too deeply" in captured.err
    assert "Traceback" not in captured.err


def test_deeply_nested_graph_file_fails_cleanly(tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(_DEEP_JSON)
    config = {"model": QUINTIC_LG, "aut": {"graph_file": str(graph_path)}}
    report = run("aut", config)
    assert [c["name"] for c in report["checks"]] == ["ConfigError"]
    assert "nests too deeply" in report["checks"][0]["first_failure"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["aut", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["checks"][0]["status"] == "fail"
    assert "Traceback" not in captured.err


def test_non_utf8_graph_file_fails_cleanly(tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_bytes(b"\xff{}")
    config = {"model": QUINTIC_LG, "aut": {"graph_file": str(graph_path)}}
    report = run("aut", config)
    assert [c["name"] for c in report["checks"]] == ["ConfigError"]
    assert "is not UTF-8 text" in report["checks"][0]["first_failure"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["aut", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["checks"][0]["status"] == "fail"
    assert "Traceback" not in captured.err


def test_p1_report_values():
    report = run("p1", {"truncations": {"y_max": 3, "z_cap": 8}})
    assert report_passed(report)
    assert report["results"]["tail_unit"]["y^0"] == "1"
    assert report["results"]["tail_unit"]["y^1"] == "-lam^-2"
    multiples = report["results"]["ratio_lambda_multiples"]
    assert multiples["1"] == "-1"
    assert multiples["2"] == "2"
    assert multiples["3"] == "-5"
    assert report["results"]["pairings"]["point_zero.point_infinity"] == "1"
    assert report["results"]["pairings"]["hyperplane.hyperplane"] == "1"


def test_p1_report_leaves_no_cycles():
    # the side-branch recursion of the tail sums is freed by reference counting
    gc.collect()
    gc.disable()
    try:
        report = run("p1", {"p1": {"y_order": 3}})
        assert report_passed(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_p1_report_bytes_do_not_depend_on_warm_caches(cold_caches):
    config = {"p1": {"y_order": 4, "z_order": 5, "delta": 2}}
    cold = json.dumps(run("p1", config), indent=2)
    cold_caches()
    # a higher order first fills the tail tables the order-4 report reads
    run("p1", {"p1": {"y_order": 5, "delta": 1}})
    assert json.dumps(run("p1", config), indent=2) == cold


@pytest.mark.parametrize(
    "block, name, message",
    [
        ({"y_order": 12, "delta": 0}, "ConfigError", "degree zero needs at least three markings"),
        ({"y_order": 12, "delta": 4}, "BoundsExceeded", "desk-scale bounds are n <= 5, delta <= 3"),
        # the y order is checked before the z order, and both before delta
        ({"y_order": 13, "z_order": -1, "delta": 0}, "BoundsExceeded",
         "truncation caps are y <= 12, z <= 16"),
        ({"y_order": 3, "z_order": -1, "delta": 0}, "ConfigError",
         "truncation orders must be non-negative"),
        ({"y_order": 3, "z_order": 17, "delta": 9}, "BoundsExceeded",
         "truncation caps are y <= 12, z <= 16"),
    ],
)
def test_p1_report_checks_its_inputs_before_tail_work(monkeypatch, block, name, message):
    def refuse(*args):
        raise AssertionError("tail work before the inputs were checked")

    monkeypatch.setattr(p1series, "stilde_at_zero", refuse)
    monkeypatch.setattr(p1series, "irr_ratio_check", refuse)
    report = run("p1", {"p1": block})
    assert report["checks"] == [{"name": name, "status": "fail", "first_failure": message}]


def _run_with_doubled_edge(monkeypatch, degree, name):
    """Run a criterion with the edge coefficient of one degree doubled.  The
    tails and the unmarked trees of the graph sums read it, so callers run
    on cold caches."""
    edge_coefficient = p1series._edge_coefficient
    monkeypatch.setattr(
        p1series,
        "_edge_coefficient",
        lambda d: edge_coefficient(d) * (2 if d == degree else 1),
    )
    return _run_criterion(name)


def test_tail_closed_forms_criterion_fails_on_a_corrupted_tail(monkeypatch, cold_caches):
    # a doubled degree-5 cover factor first changes the tails at y^5, which
    # only a check at order 5 or above can see
    result = _run_with_doubled_edge(monkeypatch, 5, "tail closed forms")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: unit tail is not the -1/4 power of the discriminant series"
    )


def test_square_root_ratio_criterion_fails_on_a_corrupted_tail(monkeypatch, cold_caches):
    # a doubled degree-2 cover factor moves the ratio first at y^2
    result = _run_with_doubled_edge(monkeypatch, 2, "square root ratio")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: ratio mismatch at order 2: RatFun(6/lam^4) vs RatFun(2/lam^4)"
    )


def test_tail_series_first_terms_criterion_fails_on_a_corrupted_leaf(monkeypatch, cold_caches):
    # doubling the weight of a bare leaf at the end of a degree-one edge
    # doubles the lone one-edge tail at y^1; the y^0 part stays zero
    vertex_weight = p1series._vertex_weight
    monkeypatch.setattr(
        p1series,
        "_vertex_weight",
        lambda sign, f, total, ks: vertex_weight(sign, f, total, ks)
        * (2 if (f, total) == (1, 1) else 1),
    )
    assert p1series.tree_series_eps(6, 12).coeff(0).is_zero()
    result = _run_criterion("tail series first terms")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: unmarked y^1 part is not the one-edge tail"
    )


_Z_SHIFT_FAILURE = (
    "IdentityFailed: rewritten value of z^1 times the class is not its three-point sum "
    "over the dressing and the unit's value squared"
)


def test_verify_sees_swapped_marked_tail_rows(monkeypatch):
    # the zero idempotent's rows read as the infinity one's: the marked
    # series' y^0 part turns into the restriction at infinity, and the
    # three-point sums of criterion 1, which read the marked series, part
    # from the rewritten values, which read the tails alone
    rows = p1series._marked_rows

    def swapped(degree):
        den, pairs = rows(degree)
        return den, tuple((inf, zero) for zero, inf in pairs)

    monkeypatch.setattr(p1series, "_marked_rows", swapped)
    assert _verify_failures() == {
        "tail closed forms": _Z_SHIFT_FAILURE,
        "tail series first terms": "IdentityFailed: marked y^0 part is not the "
        "restriction at zero",
    }


def test_verify_sees_a_marked_series_without_its_z_order_cut(monkeypatch):
    # every z power of the insertion meets the rows up to z^z_order, so a z^m
    # in it reaches z^(m + z_order); only the z-shift identity can see it
    mutant(
        monkeypatch, p1series, "tree_series_S", "rows[: z_order - m + 1]", "rows[: z_order + 1]"
    )
    assert _verify_failures() == {
        "tail series first terms": "IdentityFailed: marked series of z^1 times the class "
        "is not z^1 times its series at z order 11"
    }


def test_verify_sees_swapped_restriction_rows_in_the_graph_sums(monkeypatch):
    # each placement reads an insertion at the other fixed point, which
    # turns each point class into minus the other one and leaves the unit
    # as it is: the pairings and the string relation still hold, and the
    # divisor relation is the first check that fails
    mutant(
        monkeypatch,
        p1series,
        "p1_graph_sum",
        "zero if level == LEVEL_ZERO else inf",
        "inf if level == LEVEL_ZERO else zero",
    )
    assert _verify_failures() == {
        "pairings and relations": "IdentityFailed: divisor relation fails at n=2 delta=1"
    }


@pytest.mark.parametrize(
    "name, old, new",
    [
        # the transform of a marking that carries z^m reads the tail's
        # z^(k - m) coefficient at t^k, not its z^k one
        ("_weight", "a**j", "a**k"),
        # the empty tail of such a marking stands at t^m, not at t^0
        ("_weight", "not j", "not k"),
        # an idempotent's value at shift m stands at lam^(m - 2D)
        ("stilde_at_zero", "i + m - 2 * degree", "i - 2 * degree"),
        # a later key's values overwrite what an earlier key wrote to the
        # same coefficient of the marked series; only criterion 1's
        # z-dependent insertion has keys whose lam and z powers sum alike
        ("tree_series_S", "c0 * a + c1 * b + num.pop(key, 0)", "c0 * a + c1 * b"),
    ],
)
def test_verify_sees_a_corrupted_z_shift(monkeypatch, cold_caches, name, old, new):
    # no insertion free of z reads a shift, so only the three-point sums of
    # z-dependent insertions in criterion 1 can see these; the rewritten
    # values are cached, so the caches start cold
    mutant(monkeypatch, p1series, name, old, new)
    assert _verify_failures() == {"tail closed forms": _Z_SHIFT_FAILURE}


@pytest.mark.parametrize(
    "old, new, where",
    [
        # the framing twist (delta_e + b)*t first differs at b = 1, so at
        # basepoint degree 2 and cover degree 3
        ("fn *= delta_e - b", "fn *= delta_e + b", "delta 3 beta 2 twisted True"),
        # the quintic's degree-0 sector has isotropy order 5
        ("fd = isotropy_order(model.d, j_sector(model, beta_e)) * ", "fd = ",
         "delta 1 beta 0 twisted False"),
    ],
)
def test_verify_sees_a_corrupted_edge_factor(monkeypatch, old, new, where):
    # the ladder route reads no edge factor, so only the closed edge route
    # of the dual-route criterion can see these
    mutant(monkeypatch, jfun, "edge_contribution", old, new)
    assert _verify_failures() == {
        "dual route coefficients": "IdentityFailed: edge routes disagree at phase lg "
        f"weights (1, 1, 1, 1, 1) {where} vertex None"
    }


@pytest.mark.parametrize(
    "old, new, twisted",
    [
        # each section divides as if its weight's H part had the other sign
        ("q[j] -= x * q[j - 1]", "q[j] += x * q[j - 1]", False),
        # every weight's H part flips sign
        ("x = c * (lcm_a // a)", "x = -c * (lcm_a // a)", False),
        # the framing twist lam - b*z - H gains +H
        ("out[j + 1].get((l, n), 0) - c", "out[j + 1].get((l, n), 0) + c", True),
    ],
)
def test_verify_sees_a_corrupted_ladder(monkeypatch, cold_caches, old, new, twisted):
    # each mutant moves only the H parts of the ladder, which the quintic's
    # LG phase has none of, so the closed routes first part from it at the
    # geometric quintic; the mirror-map entries are cached, so the caches
    # start cold
    mutant(monkeypatch, jfun, "_ladder", old, new)
    where = "geometric weights (1, 1, 1, 1, 1)"
    assert _verify_failures() == {
        "dual route coefficients": f"IdentityFailed: routes disagree at phase {where} "
        f"beta 1 twisted {twisted}",
        "leading term normalization": "IdentityFailed: mu_1 is not the closed "
        f"z-non-negative part at {where} eps 2/3 twisted {twisted}",
    }


@pytest.mark.parametrize(
    "old, new, where, beta",
    [
        # the last section, at the age or at d, goes missing
        ("range(degree, 0, -d)", "range(degree, d, -d)", "lg", 1),
        # the first section, at the degree itself, goes missing
        ("range(degree, 0, -d)", "range(degree - d, 0, -d)", "lg", 1),
        # the last obstruction, within d below zero, goes missing
        ("range(degree + d, 0, d)", "range(degree + d, -d, d)", "geometric", 5),
        # the first obstruction, one step above the degree, goes missing
        ("range(degree + d, 0, d)", "range(degree + 2 * d, 0, d)", "geometric", 5),
    ],
)
def test_verify_sees_a_moved_window_end(monkeypatch, cold_caches, old, new, where, beta):
    # each end of the section and obstruction windows moves by one step;
    # the ladder and the closed routes part at the quintic, and the cached
    # mirror-map entries make the caches start cold
    mutant(monkeypatch, jfun, "_ladder", old, new)
    quintic = "weights (1, 1, 1, 1, 1)"
    assert _verify_failures() == {
        "dual route coefficients": f"IdentityFailed: routes disagree at phase lg {quintic} "
        f"beta {beta} twisted False",
        "leading term normalization": "IdentityFailed: mu_1 is not the closed "
        f"z-non-negative part at {where} {quintic} eps 2/3 twisted False",
    }


def test_leading_terms_criterion_fails_on_a_doubled_leading_term(monkeypatch):
    # a degree-0 coefficient whose positive-z part is 2z, not z
    coefficient = jfun.unstable_J_coefficient

    def doubled(model, beta, epsilon=None, twisted=False):
        value = coefficient(model, beta, epsilon, twisted)
        return value + jfun.state_unit(model) * Z if beta == 0 else value

    monkeypatch.setattr(jfun, "unstable_J_coefficient", doubled)
    assert jfun.positive_z_part(doubled(LG_MODEL, 0)) == jfun.state_unit(LG_MODEL) * (2 * Z)
    result = _run_criterion("leading term normalization")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: leading term is not z at lg weights (1, 1, 1, 1, 1) eps 2/3"
    )


def test_leading_terms_criterion_fails_on_a_nonzero_mu_0(monkeypatch):
    # the leading terms stay z, but the table keeps a constant at degree 0
    table = jfun.mu_table

    def kept(model, epsilon, twisted=False):
        out = table(model, epsilon, twisted)
        out[0] = out[0] + jfun.state_unit(model)
        return out

    monkeypatch.setattr(jfun, "mu_table", kept)
    result = _run_criterion("leading term normalization")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: mu_0 is nonzero at lg weights (1, 1, 1, 1, 1) eps 2/3"
    )


def test_leading_terms_criterion_fails_on_a_positive_filter_that_drops_z0(
    monkeypatch, cold_caches
):
    # a filter keeping only z^k with k > 0 leaves every leading term z and
    # mu_0 zero, but drops the z^0 terms of the mirror-map entries above
    # degree 0, which the criterion reads against the closed product form
    def strictly_positive(value):
        kept = [
            RatFun({k: v for k, v in f.num.items() if k[1] > 0}, f.den[(0, 0)])
            for f in value.coeffs
        ]
        return CohClass(kept, value.relation, value.r)

    monkeypatch.setattr(jfun, "positive_z_part", strictly_positive)
    result = _run_criterion("leading term normalization")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: mu_1 is not the closed z-non-negative part at lg weights "
        "(1, 1, 1, 1, 1) eps 2/3 twisted False"
    )


def test_pairing_relations_criterion_fails_on_a_doubled_edge_weight(monkeypatch, cold_caches):
    # the string and divisor relations hold for any edge weights, and the
    # pairings at delta 1 see degree-1 edges first
    result = _run_with_doubled_edge(monkeypatch, 1, "pairings and relations")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: two opposite point classes must pair to 1 at delta 1"
    )


@pytest.mark.parametrize(
    "degree, message",
    [
        # 1/4 at degree 2 becomes 0 (and 1/36 at degree 3 becomes -13/18)
        (2, "<tau_2(pt)> at degree 2 is RatFun(0), not RatFun(1/4)"),
        (3, "<tau_4(pt)> at degree 3 is RatFun(1/18), not RatFun(1/36)"),
    ],
)
def test_pairing_relations_criterion_pins_every_edge_degree(
    monkeypatch, cold_caches, degree, message
):
    # the one-point descendants of the line's J-function see the edge
    # weights above degree 1 that the relations cannot
    result = _run_with_doubled_edge(monkeypatch, degree, "pairings and relations")
    assert result["status"] == "fail"
    assert result["first_failure"] == f"IdentityFailed: {message}"


def test_pairing_relations_criterion_fails_on_a_corrupted_cotangent_integral(
    monkeypatch, cold_caches
):
    # the graph sums take every component's cotangent integral from
    # psi_integral_genus0, so doubling it on four-pointed components breaks
    # the string relation at its first base
    psi = p1series.psi_integral_genus0
    monkeypatch.setattr(
        p1series, "psi_integral_genus0", lambda exps: psi(exps) * (2 if len(exps) == 4 else 1)
    )
    result = _run_criterion("pairings and relations")
    assert result["status"] == "fail"
    assert result["first_failure"] == "IdentityFailed: string relation fails at n=2 delta=1"


def test_dual_route_criterion_fails_on_a_doubled_coefficient(monkeypatch):
    # the closed route covers every degree of every chamber model, so a
    # doubled mixed-weight coefficient at degree 6 is caught
    ladder = jfun._ladder
    mixed = GlsmModel((1, 1, 2, 2), 2, 4, LG)
    assert not ladder(mixed, 6, False).is_zero()

    def doubled(model, beta, twisted):
        value = ladder(model, beta, twisted)
        return value * 2 if (model, beta, twisted) == (mixed, 6, False) else value

    monkeypatch.setattr(jfun, "_ladder", doubled)
    result = _run_criterion("dual route coefficients")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: routes disagree at phase lg weights (1, 1, 2, 2) beta 6 "
        "twisted False"
    )


def _unreduced_lam_term(num, den, exponent):
    # cli._lam_term less its gcd, so 3/6 stays 3/6
    coeff = str(num) if den == 1 else f"{num}/{den}"
    if exponent == 0:
        return coeff
    power = "lam" if exponent == 1 else f"lam^{exponent}"
    if den == 1 and num in (1, -1):
        return power if num == 1 else f"-{power}"
    return f"{coeff}*{power}"


def _verify_failures():
    report = run("verify", {})
    return {c["name"]: c["first_failure"] for c in report["checks"] if c["status"] == "fail"}


def test_verify_reads_back_the_coefficient_tables(monkeypatch, cold_caches):
    # the values stay right and only their text goes wrong, so only the
    # read-back of the rendered tables can see it
    monkeypatch.setattr(cli, "_lam_term", _unreduced_lam_term)
    assert _verify_failures() == {
        "dual route coefficients": "IdentityFailed: phase lg weights (1, 1, 1, 1, 1) twisted "
        "True cell 3,-1,0: coefficient '-3/6' is not in lowest terms"
    }


def test_verify_reads_back_the_tail_strings(monkeypatch):
    # -lam^i written as lam^i: the unit tail's y^1 part, -1/lam^2, reads
    # back with the wrong sign
    lam_term = cli._lam_term

    def unsigned(num, den, exponent):
        out = lam_term(num, den, exponent)
        return out[1:] if out.startswith("-lam") else out

    monkeypatch.setattr(cli, "_lam_term", unsigned)
    assert _verify_failures() == {
        "tail closed forms": "IdentityFailed: unit tail at y^1 renders as 'lam^-2', which "
        "reads back as another value"
    }


@pytest.mark.parametrize(
    "text, want, ok",
    [
        ("0", {}, True),
        ("lam - 1/2*lam^-3 + 7", {1: 1, -3: Fraction(-1, 2), 0: 7}, True),
        ("-lam^2 - 3", {2: -1, 0: -3}, True),
        ("2/4*lam", {1: Fraction(1, 2)}, False),
        ("lam^2", {2: -1}, False),
        ("lam + lam", {1: 2}, False),
        ("1*lam^+2", {2: 1}, False),
        ("lam2", {2: 1}, False),
    ],
)
def test_rendered_reader(text, want, ok):
    # the reader requires str(Fraction) coefficients, one term per power and
    # the renderer's own spelling of the powers
    if ok:
        criteria._read_rendered(text, want, "here")
    else:
        with pytest.raises(IdentityFailed):
            criteria._read_rendered(text, want, "here")


def test_partial_order_criterion_names_the_top_of_a_bad_chain(monkeypatch):
    # a chain that repeats its top appends no edge; the message names the
    # top graph exactly as graph_to_obj writes it
    tops = []

    def repeated(model, graph, cap):
        tops.append(graph)
        return [[graph, graph]]

    monkeypatch.setattr(criteria.gr, "descending_chains", repeated)
    result = _run_criterion("partial order chains")
    assert result["status"] == "fail"
    assert len(tops) == 1
    assert result["first_failure"] == (
        "IdentityFailed: descent step did not append one edge below "
        f"{criteria.gr.graph_to_obj(tops[0])}"
    )


def test_partial_order_criterion_checks_each_step_by_the_public_route(monkeypatch):
    # the chain search never calls minimal_expansions; the criterion does,
    # on every step of each longest chain, so a public step that finds
    # nothing fails it
    monkeypatch.setattr(criteria.gr, "minimal_expansions", lambda model, graph: {})
    result = _run_criterion("partial order chains")
    assert result["status"] == "fail"
    assert result["first_failure"] == (
        "IdentityFailed: chain step is not a minimal expansion"
    )


def test_contraction_corpus_criterion_fails_when_a_basepoint_loses_its_order(monkeypatch):
    # each contracted tail must reappear as a basepoint of its degree; a
    # pass that records order 0 instead breaks degree conservation
    contraction_pass = criteria.gr.contraction_pass

    def dropped(model, graph, records, epsilon):
        graph, records, changed = contraction_pass(model, graph, records, epsilon)
        if changed:
            host, _, mult = records[-1]
            records = records[:-1] + ((host, 0, mult),)
        return graph, records, changed

    monkeypatch.setattr(criteria.gr, "contraction_pass", dropped)
    result = _run_criterion("contraction corpus")
    assert result["status"] == "fail"
    assert result["first_failure"].startswith("IdentityFailed: degree not conserved at ")


def test_stability_margin_criterion_fails_on_a_margin_of_one(monkeypatch):
    # a shift as large as 1 carries k*epsilon - 1 across zero for some k
    monkeypatch.setattr(criteria, "choose_delta", lambda epsilon: 1)
    result = _run_criterion("stability margin scan")
    assert result["status"] == "fail"
    assert result["first_failure"].startswith("IdentityFailed: shift 1 flips the sign of ")


_SMALL_CONFIGS = {
    "sectors": {"model": QUINTIC_LG},
    "stability": {"stability": {"genus": 1, "degree": "2/5", "special_points": 1,
                                "basepoint_orders": [1], "epsilon": "2/5"}},
    "contract": {
        "model": dict(QUINTIC_LG, epsilon="2/5"),
        "contract": {"graph": {
            "kind": "dual",
            "vertices": [
                {"genus": 0, "degree": 1, "legs": []},
                {"genus": 1, "degree": 1, "legs": [[1, "4/5"]]},
            ],
            "edges": [{"ends": [0, 1], "mults": ["3/5", "2/5"]}],
        }},
    },
    "graphs": {"model": dict(QUINTIC_LG, epsilon="2/5"),
               "graphs": {"genus": 0, "markings": 1, "degree": 0, "edge_degree": 1}},
    "aut": {"model": QUINTIC_LG, "aut": {"graph": FIG_TOP}},
    "order": {"model": QUINTIC_LG, "order": {"a": FIG_SPLIT, "b": FIG_TOP}},
    "p1": {"p1": {"y_order": 2, "z_order": 2}},
    "ifun": {"model": QUINTIC_GEOM, "ifun": {"q_max": 3, "twisted": True}},
    "mu": {"model": QUINTIC_GEOM, "mu": {"epsilon": "2/7", "twisted": True}},
    "edge": {"model": QUINTIC_LG, "edge": {"delta": 2, "beta": 1, "epsilon": "2/5"}},
    "jwc": {"model": QUINTIC_GEOM, "jwc": {"epsilon_1": "2/7", "epsilon_2": "2/3", "q_max": 4}},
}


def test_subcommands_run_without_sympy(monkeypatch, cold_caches):
    # sympy is a test extra; no subcommand may need it (verify is covered by
    # the acceptance tests and takes minutes)
    monkeypatch.setitem(sys.modules, "sympy", None)
    for command in sorted(set(cli._HANDLERS) - {"verify"}):
        report = run(command, _SMALL_CONFIGS[command])
        assert report_passed(report), (command, report["checks"])


def test_package_imports_only_the_standard_library():
    package = pathlib.Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def _checked_definitions(tree):
    """(name, node, class name or None) of a module's top-level functions
    and classes, private ones included and dunders left out, and of the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, node.name


def _module_names(tree):
    """Names a file binds to modules: its module imports (``import json``,
    ``from . import graphs as gr``), and the names it assigns from a
    subscript, as the benchmark does from its table of glsmx modules
    (``gr = self.m["graphs"]``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and not node.module):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _uses(node, owners, modules, chain=()):
    """(kind, name, chain) of each name read under node.  Kind "attr" is an
    attribute read (x.name); kind "name" is a bare name, an import or an
    attribute read on a module (gr.name, self.m["graphs"].name).  chain
    holds the keys of the checked definitions that enclose the read."""
    if id(node) in owners:
        chain += (owners[id(node)],)
    if isinstance(node, ast.Name):
        yield "name", node.id, chain
    elif isinstance(node, ast.alias):
        yield "name", node.asname or node.name, chain
        yield "name", node.name, chain
    elif isinstance(node, ast.Attribute):
        yield "attr", node.attr, chain
        value = node.value
        if isinstance(value, ast.Subscript) or (
            isinstance(value, ast.Name) and value.id in modules
        ):
            yield "name", node.attr, chain
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, owners, modules, chain)


def test_no_public_surface_only_tests_use():
    # every top-level function and class of the package, private ones
    # included, and every public method must be used somewhere in the
    # package or the benchmark outside its own definition: a method through
    # an attribute read, a function or class through a bare name, an import
    # or a read on a module.  A use inside an unused definition does not
    # count, so the scan repeats until no further name drops out, and a
    # helper kept only for a test fails here.
    root = pathlib.Path(cli.__file__).parents[2]
    package = sorted((root / "src" / "glsmx").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package}
    for path in sorted((root / "perfbench").glob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    owners = {}  # id(definition node) -> (module, class name or None, name)
    for path in package:
        for name, node, owner in _checked_definitions(trees[path]):
            owners[id(node)] = (path.stem, owner, name)
    chains = collections.defaultdict(list)
    for tree in trees.values():
        for kind, name, chain in _uses(tree, owners, _module_names(tree)):
            chains[kind, name].append(chain)
    unused = set()
    while True:
        dropped = {
            key
            for key in owners.values()
            if key not in unused
            and not any(
                key not in chain and not unused.intersection(chain)
                for chain in chains["attr" if key[1] else "name", key[2]]
            )
        }
        if not dropped:
            break
        unused |= dropped
    assert unused == set()


@pytest.mark.parametrize("bad", ["config_type", "config_path", "flag_path"])
def test_main_bad_out_exits_one(bad, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "report.json")
    config = {"model": QUINTIC_LG}
    argv = ["sectors", "--config", str(tmp_path / "config.json")]
    if bad == "config_type":
        config["out"] = ["x"]
        expected = "error: 'out' must be a path string"
    else:
        if bad == "config_path":
            config["out"] = missing
        else:
            argv += ["--out", missing]
        expected = f"error: cannot write {missing!r}: "
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(expected)
    assert "Traceback" not in captured.err


def test_criteria_registry_shape():
    # the names and their order fix the check list that verify prints
    assert [name for name, _ in criteria.CRITERIA] == [
        "tail closed forms",
        "square root ratio",
        "tail series first terms",
        "dual route coefficients",
        "leading term normalization",
        "pairings and relations",
        "graph census",
        "contraction corpus",
        "partial order chains",
        "stability margin scan",
    ]
    bodies = [body for _, body in criteria.CRITERIA]
    assert all(callable(body) for body in bodies)
    assert len(set(bodies)) == 10


@pytest.mark.parametrize(
    "command, block",
    [
        ("jwc", {"epsilon_1": "1/2", "epsilon_2": "2/3", "q_max": 4}),
        ("mu", {"epsilon": "1/2"}),
        ("edge", {"delta": 2, "beta": 1, "epsilon": "1/2"}),
        ("stability", {"genus": 0, "degree": 1, "special_points": 1, "epsilon": "1/2"}),
        ("stability", {"genus": 1, "degree": "2/5", "special_points": 1,
                       "basepoint_orders": [1], "epsilon": "1"}),
        ("contract", {"graph": _SMALL_CONFIGS["contract"]["contract"]["graph"],
                      "epsilon": "1/3"}),
    ],
)
def test_on_wall_epsilon_fails(command, block, tmp_path, capsys):
    config = {"model": QUINTIC_LG, command: block}
    report = run(command, config)
    assert [c["name"] for c in report["checks"]] == ["OnWall"]
    assert not report_passed(report)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main([command, "--config", str(config_path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["name"] == "OnWall"


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_nonpositive_stability_epsilon_fails(epsilon, tmp_path, capsys):
    # epsilon_stable compares basepoint orders with 1/epsilon
    config = {"stability": {"genus": 0, "degree": 1, "special_points": 1,
                            "basepoint_orders": [1], "epsilon": epsilon}}
    report = run("stability", config)
    assert [c["name"] for c in report["checks"]] == ["ConfigError"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["stability", "--config", str(config_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


_STABLE_BLOCK = {"genus": 1, "degree": "2/5", "special_points": 2, "basepoint_orders": [1],
                 "epsilon": "2/5", "light_delta": "1/2", "light_markings": 1}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"genus": -3, "degree": 0, "special_points": 9, "basepoint_orders": [],
          "light_markings": 0}, "stability.genus must be non-negative"),
        ({"degree": -2}, "stability.degree must be non-negative"),
        ({"special_points": -4, "light_markings": 0},
         "stability.special_points must be non-negative"),
        ({"light_markings": -3}, "stability.light_markings must be non-negative"),
        ({"basepoint_orders": [-1]}, "basepoint order must be non-negative"),
        ({"light_markings": 3}, "stability.light_markings exceeds stability.special_points"),
    ],
)
def test_negative_stability_inputs_fail(changes, message, tmp_path, capsys):
    # the unchanged block is a stable component, so only the refusal fails it
    assert run("stability", {"stability": _STABLE_BLOCK})["results"] == {"stable": True}
    config = {"stability": dict(_STABLE_BLOCK, **changes)}
    report = run("stability", config)
    assert report["checks"] == [{"name": "ConfigError", "status": "fail", "first_failure": message}]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["stability", "--config", str(config_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def _with(graph, **changes):
    out = json.loads(json.dumps(graph))
    out.update(changes)
    return out


_BAD_ENDPOINT = _with(FIG_TOP, edges=[{"ends": [0, 7], "mults": ["4/5", "1/5"]}])
_BAD_BULLET = _with(FIG_TOP, v_bullet=5)
_ZERO_DEN_LEG = _with(
    FIG_TOP,
    vertices=[
        {"genus": 1, "degree": 0, "legs": [[1, "1/0"]]},
        {"genus": 2, "degree": 2, "legs": []},
    ],
)
_ZERO_DEN_MULT = _with(FIG_TOP, edges=[{"ends": [0, 1], "mults": ["4/5", "1/0"]}])
# a fixed-locus graph has no distinguished vertex, so it is no operand of
# the partial order
_LOC = {
    "kind": "loc",
    "vertices": [
        {"genus": 1, "degree": 0, "legs": [], "extra_legs": 0, "level": "0"},
        {"genus": 1, "degree": 1, "legs": [], "extra_legs": 0, "level": "inf"},
    ],
    "edges": [{"ends": [0, 1], "mults": ["1/5", "4/5"], "delta": 1}],
}
# a census graph (quintic LG, epsilon 2/5, g=1, n=1, beta=2, delta=2) whose
# level-zero basepoint is a tail that contract would take away
_LOC_TAIL = {
    "kind": "loc",
    "vertices": [
        {"genus": 0, "degree": 1, "legs": [], "extra_legs": 0, "level": "0"},
        {"genus": 1, "degree": 1, "legs": [[1, "4/5"]], "extra_legs": 0, "level": "inf"},
    ],
    "edges": [{"ends": [0, 1], "mults": ["3/5", "2/5"], "delta": 2}],
}
_STR_DELTA = _with(
    _LOC,
    edges=[
        {"ends": [0, 1], "mults": ["0", "0"], "delta": 1},
        {"ends": [0, 1], "mults": ["0", "0"], "delta": "2"},
    ],
)
_LIST_DELTA = _with(_LOC, edges=[{"ends": [0, 1], "mults": ["0", "0"], "delta": [2]}])
_INT_LEVEL = _with(
    _LOC,
    vertices=[
        {"genus": 1, "degree": 0, "legs": [], "extra_legs": 0, "level": 0},
        {"genus": 1, "degree": 1, "legs": [], "extra_legs": 0, "level": "inf"},
    ],
)
_THREE_ENDS = _with(FIG_TOP, edges=[{"ends": [0, 1, 1], "mults": ["4/5", "1/5"]}])
# malformed records: a field missing, an edge or a leg not in its shape
_LIST_EDGE = _with(FIG_TOP, edges=[[0, 1]])
_NO_MULTS = _with(FIG_TOP, edges=[{"ends": [0, 1]}])
_ONE_MULT = _with(FIG_TOP, edges=[{"ends": [0, 1], "mults": ["4/5"]}])
_NO_GENUS = _with(
    FIG_TOP,
    vertices=[{"genus": 1, "degree": 0, "legs": [[1, "3/5"]]}, {"degree": 2, "legs": []}],
)
_SHORT_LEG = _with(
    FIG_TOP,
    vertices=[{"genus": 1, "degree": 0, "legs": [[1]]}, {"genus": 2, "degree": 2, "legs": []}],
)
_NO_EDGES = {k: v for k, v in FIG_TOP.items() if k != "edges"}
# multiplicity strings that do not read as a rational
_WORD_MULT = _with(FIG_TOP, edges=[{"ends": [0, 1], "mults": ["x", "1/5"]}])
_SPACED_LEG = _with(
    FIG_TOP,
    vertices=[
        {"genus": 1, "degree": 0, "legs": [[1, "3/5 1"]]},
        {"genus": 2, "degree": 2, "legs": []},
    ],
)
_FAILURE_TEXT = [
    (_ZERO_DEN_LEG, "vertex 0 leg 1 multiplicity '1/0' has a zero denominator"),
    (_ZERO_DEN_MULT, "edge 0 side 1 multiplicity '1/0' has a zero denominator"),
    (_LOC, "a fixed-locus graph has no distinguished vertex"),
    (_LOC_TAIL, "a fixed-locus graph has no distinguished vertex"),
    (_STR_DELTA, "edge 1 covering degree '2' is not an integer or null"),
    (_LIST_DELTA, "edge 0 covering degree [2] is not an integer or null"),
    (_INT_LEVEL, "vertex 0 level 0 is not null, '0' or 'inf'"),
    (_THREE_ENDS, "edge 0 ends [0, 1, 1] are not a pair of vertex indices"),
    (_LIST_EDGE, "edge 0 [0, 1] is not an object"),
    (_NO_MULTS, "edge 0 has no 'mults' field"),
    (_ONE_MULT, "edge 0 mults ['4/5'] are not a pair of multiplicities"),
    (_NO_GENUS, "vertex 1 has no 'genus' field"),
    (_SHORT_LEG, "vertex 0 leg [1] is not a [label, multiplicity] pair"),
    (_NO_EDGES, "graph has no 'edges' field"),
    (_WORD_MULT, "edge 0 side 0 multiplicity 'x' is not an integer or a 'p/q' string"),
    (_SPACED_LEG, "vertex 0 leg 1 multiplicity '3/5 1' is not an integer or a 'p/q' string"),
]


# a decimal exponent: Fraction would build 10^3000000 (seconds) before any
# check, and str() of an epsilon past 4,300 digits raises
_EXPONENT_LEG = _with(
    FIG_TOP,
    vertices=[
        {"genus": 1, "degree": 0, "legs": [[1, "1e3000000"]]},
        {"genus": 2, "degree": 2, "legs": []},
    ],
)


@pytest.mark.parametrize(
    "command, config, expected",
    [
        ("mu", {"model": QUINTIC_LG, "mu": {"epsilon": "1e5000"}},
         "mu.epsilon: cannot read '1e5000' as a rational"),
        ("mu", {"model": dict(QUINTIC_LG, epsilon="1e3000000")},
         "model.epsilon: cannot read '1e3000000' as a rational"),
        ("sectors", {"model": dict(QUINTIC_LG, epsilon="2E-1")},
         "model.epsilon: cannot read '2E-1' as a rational"),
        ("aut", {"model": QUINTIC_LG, "aut": {"graph": _EXPONENT_LEG}},
         "vertex 0 leg 1 multiplicity '1e3000000' is not an integer or a 'p/q' string"),
    ],
)
def test_a_decimal_exponent_fails_promptly(command, config, expected, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    start = time.perf_counter()
    code, out, err = _main_bytes([command, "--config", str(config_path)])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert (check["name"], check["status"]) == ("ConfigError", "fail")
    assert expected in check["first_failure"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, block",
    [
        ("aut", {"graph": _BAD_ENDPOINT}),
        ("order", {"a": _BAD_BULLET, "b": FIG_TOP}),
        ("order", {"a": FIG_TOP, "b": _BAD_ENDPOINT}),
        ("aut", {"graph": _ZERO_DEN_LEG}),
        ("order", {"a": FIG_TOP, "b": _ZERO_DEN_MULT}),
        ("contract", {"graph": _ZERO_DEN_MULT, "epsilon": "2/5"}),
        ("contract", {"graph": _ZERO_DEN_LEG, "epsilon": "2/5"}),
        ("order", {"a": _LOC, "b": FIG_TOP}),
        ("order", {"a": FIG_TOP, "b": _LOC}),
        ("aut", {"graph": _STR_DELTA}),
        ("aut", {"graph": _LIST_DELTA}),
        ("aut", {"graph": _INT_LEVEL}),
        ("contract", {"graph": _LOC_TAIL, "epsilon": "2/5"}),
        ("aut", {"graph": _THREE_ENDS}),
        ("aut", {"graph": _LIST_EDGE}),
        ("order", {"a": FIG_TOP, "b": _NO_MULTS}),
        ("contract", {"graph": _NO_GENUS, "epsilon": "2/5"}),
        ("aut", {"graph": _ONE_MULT}),
        ("contract", {"graph": _ONE_MULT, "epsilon": "2/5"}),
        ("order", {"a": _SHORT_LEG, "b": FIG_TOP}),
        ("aut", {"graph": _NO_EDGES}),
        ("aut", {"graph": _WORD_MULT}),
        ("order", {"a": FIG_TOP, "b": _WORD_MULT}),
        ("contract", {"graph": _WORD_MULT, "epsilon": "2/5"}),
        ("aut", {"graph": _SPACED_LEG}),
        ("order", {"a": _SPACED_LEG, "b": FIG_TOP}),
        ("contract", {"graph": _SPACED_LEG, "epsilon": "2/5"}),
    ],
)
def test_out_of_range_graph_fails_cleanly(command, block, tmp_path, capsys):
    config = {"model": QUINTIC_LG, command: block}
    report = run(command, config)
    assert [c["name"] for c in report["checks"]] == ["ConfigError"]
    failure = report["checks"][0]["first_failure"]
    assert failure.startswith("cannot read ")
    expected = next(
        (text for bad, text in _FAILURE_TEXT if bad in block.values()),
        "outside vertices",
    )
    assert expected in failure
    if command == "order":
        # the message names the operand it could not take
        bad_key = next(k for k, v in block.items() if v is not FIG_TOP)
        assert failure.startswith(f"cannot read {bad_key!r}")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([command, "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["checks"][0]["status"] == "fail"
    assert "Traceback" not in captured.err


def _set_int_field(field, value):
    graph = _with(FIG_TOP)
    if field == "genus":
        graph["vertices"][1]["genus"] = value
    elif field == "degree":
        graph["vertices"][1]["degree"] = value
    elif field == "extra_legs":
        graph["vertices"][0]["extra_legs"] = value
    elif field == "leg label":
        graph["vertices"][0]["legs"][0][0] = value
    elif field == "end":
        graph["edges"][0]["ends"][1] = value
    else:
        graph["v_bullet"] = value
    return graph


@pytest.mark.parametrize(
    "field, what",
    [
        ("genus", "vertex 1 genus"),
        ("degree", "vertex 1 degree"),
        ("extra_legs", "vertex 0 extra_legs"),
        ("leg label", "vertex 0 leg label"),
        ("end", "edge 0 end"),
        ("v_bullet", "v_bullet"),
    ],
)
def test_graph_int_field_is_not_cast(field, what, tmp_path, capsys):
    # int() would read 1.5 as 1 and true or "1" as 1, and the report would
    # describe another graph
    for bad in (True, 1.5, "1"):
        config = {"model": QUINTIC_LG, "aut": {"graph": _set_int_field(field, bad)}}
        report = run("aut", config)
        assert [c["name"] for c in report["checks"]] == ["ConfigError"], (field, bad)
        assert report["checks"][0]["first_failure"].startswith(
            f"cannot read 'graph': {what} {bad!r} is not an integer"
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["aut", "--config", str(config_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, what",
    [("leg", "vertex 0 leg 1 multiplicity"), ("edge", "edge 0 side 1 multiplicity")],
)
def test_graph_multiplicity_is_not_cast(field, what, tmp_path, capsys):
    # Fraction() would read 0.6 as 5404319552844595/9007199254740992 and
    # true as 1, that is 0, and the report would describe another graph
    for bad in (0.6, True, [1]):
        graph = _with(FIG_TOP)
        if field == "leg":
            graph["vertices"][0]["legs"][0][1] = bad
        else:
            graph["edges"][0]["mults"][1] = bad
        config = {"model": QUINTIC_LG, "aut": {"graph": graph}}
        report = run("aut", config)
        assert report["checks"] == [
            {
                "name": "ConfigError",
                "status": "fail",
                "first_failure": (
                    f"cannot read 'graph': {what} {bad!r} is not an integer or a 'p/q' string"
                ),
            }
        ], (field, bad)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["aut", "--config", str(config_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


def test_order_refuses_a_fractional_degree():
    # read with int(), a degree of 3/2 made the two graphs isomorphic
    marked, bullet = FIG_TOP["vertices"]
    a = _with(FIG_TOP, vertices=[marked, dict(bullet, degree=1.5)])
    b = _with(FIG_TOP, vertices=[marked, dict(bullet, degree=1)])
    report = run("order", {"model": QUINTIC_LG, "order": {"a": a, "b": b}})
    assert report["checks"] == [
        {
            "name": "ConfigError",
            "status": "fail",
            "first_failure": "cannot read 'a': vertex 1 degree 1.5 is not an integer",
        }
    ]


# --- contract sweep over the subcommands, verify with one malformed config --

_CHAMBER_MODELS = [
    QUINTIC_LG,
    QUINTIC_GEOM,
    {"weights": [1, 1, 2, 2], "N": 2, "d": 4, "phase": "lg"},
    {"weights": [1, 1], "N": 2, "d": 2, "phase": "geometric"},
]

# Mostly valid draws with some invalid ones mixed in.  Epsilons are small
# rationals, walls (1/k), zero, negatives and zero denominators included;
# floor(1/eps) stays at most 2 * Q_CAP, so a chamber past the cap is refused
# cheaply.
_EPSILONS = st.one_of(
    st.builds(
        lambda p, q: f"{p}/{q}",
        st.sampled_from([2, 3, 2, 3, 1, 0, -1]),
        st.integers(1, 2 * jfun.Q_CAP),
    ),
    st.sampled_from(["1/0", "0/0", "-2/0"]),
)
_TWIST = st.sampled_from([False, True, False, True, "yes"])
_Q = st.integers(-1, jfun.Q_CAP + 1)
# valid figure graphs, out-of-range indices and zero-denominator multiplicities
_GRAPHS = st.sampled_from(
    [FIG_TOP, FIG_SPLIT, FIG_TOP, FIG_SPLIT, _BAD_ENDPOINT, _BAD_BULLET, _ZERO_DEN_LEG,
     _ZERO_DEN_MULT, _with(FIG_TOP, v_bullet="0"), "graph"]
)
_GRAPH_FIELDS = ("genus", "markings", "degree", "edge_degree")
_GRAPH_CAPS = dict(zip(_GRAPH_FIELDS, ("g", "n", "beta", "delta")))
# (genus, markings, degree, edge degree) up to (1, 2, 1, 2): every size with
# edge degree at most 1, and the edge degree 2 sizes that enumerate within
# 60 ms on the quintic; (1, 2, 1, 2) alone takes about 2 s
_GRAPH_SIZES = list(itertools.product((0, 1), (0, 1, 2), (0, 1), (0, 1))) + [
    (0, 0, 1, 2),
    (1, 0, 0, 2),
    (0, 1, 0, 2),
    (1, 0, 1, 2),
]


def _graph_block(sizes, field, bad):
    block = dict(zip(_GRAPH_FIELDS, sizes))
    if field is not None:
        block[field] = _ENUM_BOUNDS[_GRAPH_CAPS[field]] + 1 if bad == "cap" else bad
    return block


_BLOCKS = {
    "aut": st.fixed_dictionaries({"graph": _GRAPHS}),
    "order": st.fixed_dictionaries({"a": _GRAPHS, "b": _GRAPHS}),
    "contract": st.fixed_dictionaries(
        {"graph": _GRAPHS, "epsilon": st.one_of(st.none(), _EPSILONS)}
    ),
    "ifun": st.fixed_dictionaries({"q_max": _Q, "twisted": _TWIST}),
    "mu": st.fixed_dictionaries({"epsilon": _EPSILONS, "twisted": _TWIST}),
    "edge": st.builds(
        lambda beta, gap, epsilon, twisted, vertex: {
            "delta": beta + gap,
            "beta": beta,
            "epsilon": epsilon,
            "twisted": twisted,
            "unstable_vertex": vertex,
        },
        st.sampled_from([0, 1, 2, 3, -1]),
        st.sampled_from([1, 2, 3, 0]),
        st.one_of(st.none(), _EPSILONS),
        _TWIST,
        st.sampled_from([None, None, "0", "inf", "nowhere"]),
    ),
    "jwc": st.fixed_dictionaries(
        {"epsilon_1": _EPSILONS, "epsilon_2": _EPSILONS, "q_max": _Q}
    ),
    # y stays at most 3 (a y=3 report takes about half a second); negative and
    # above-cap orders are refused before any series work
    "p1": st.fixed_dictionaries(
        {
            "y_order": st.sampled_from([0, 1, 2, 3, -1, p1series.Y_ORDER_CAP + 1]),
            "z_order": st.sampled_from([0, 2, 4, -1, p1series.Z_ORDER_CAP + 1]),
            "delta": st.sampled_from([1, 2, 3, 0, -1, "1"]),
        }
    ),
    # half the draws spoil one size with an above-cap, negative or string
    # value, each refused before any enumeration
    "graphs": st.builds(
        _graph_block,
        st.sampled_from(_GRAPH_SIZES),
        st.sampled_from([None] * 4 + list(_GRAPH_FIELDS)),
        st.sampled_from(["cap", -1, "1"]),
    ),
    "sectors": st.just({}),
    "stability": st.fixed_dictionaries(
        {
            "genus": st.sampled_from([0, 1, 2, -1, "1"]),
            "degree": st.sampled_from([0, 1, "2/5", "-1", "x", None]),
            "special_points": st.integers(-1, 4),
            "basepoint_orders": st.sampled_from([[], [1], [1, 3], [0, 2], "1", ["a"]]),
            "epsilon": st.one_of(st.none(), _EPSILONS),
            "light_delta": st.sampled_from([None, "1/2", "1/3", "0", "x"]),
            "light_markings": st.sampled_from([0, 1, 2, -1]),
        }
    ),
}


def _main_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(_BLOCKS))
@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(_CHAMBER_MODELS), data=st.data())
def test_chamber_commands_keep_the_contract(command, model, data):
    _assert_contract(command, {"model": model, command: data.draw(_BLOCKS[command])})


def test_verify_with_malformed_truncations_keeps_the_contract():
    # the truncations block is read before any criterion runs
    config = {"model": QUINTIC_LG, "truncations": {"q_max": -1}}
    assert [c["name"] for c in run("verify", config)["checks"]] == ["ConfigError"]
    _assert_contract("verify", config)


# values that spoil one field of a graph object, and the deletion of a
# record's field
_JUNK = [None, True, -1, 0, 3, 1.5, "1", "x", "3/5 1", "1/0", "loc", "inf", [], [0, 1], {}]
_DELETE = object()


def _graph_sites(graph):
    """(path, names) for every field of a graph object: the keys down to the
    field, and the words a message about it names, its vertex or edge and
    the field itself."""
    words = {"vertices": "vert", "edges": "edge", "v_bullet": "v_bullet", "kind": "fixed-locus"}
    sites = [((key,), (words[key],)) for key in graph]
    for vi, v in enumerate(graph["vertices"]):
        where = f"vertex {vi}"
        sites.append((("vertices", vi), (where,)))
        for field in ("genus", "degree", "legs", "extra_legs", "level"):
            sites.append((("vertices", vi, field), (where, "leg" if field == "legs" else field)))
        for li in range(len(v["legs"])):
            leg = ("vertices", vi, "legs", li)
            sites += [(leg, (where, "leg")), (leg + (0,), (where, "leg label"))]
            sites.append((leg + (1,), (where, "multiplicity")))
    for ei in range(len(graph["edges"])):
        where = f"edge {ei}"
        edge = ("edges", ei)
        sites.append((edge, (where,)))
        for field, word in (("ends", "end"), ("mults", "mult"), ("delta", "covering degree")):
            sites.append((edge + (field,), (where, word)))
        for side in (0, 1):
            sites.append((edge + ("ends", side), (where, "end")))
            sites.append((edge + ("mults", side), (where, f"side {side} multiplicity")))
    return sites


def _mutated(graph, path, value):
    out = json.loads(json.dumps(graph))
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    if value is _DELETE:
        node.pop(last, None)
    else:
        node[last] = value
    return out


@pytest.mark.parametrize("command", ["aut", "order", "contract"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_graph_commands_keep_the_contract(command, data):
    # one field of a valid graph object spoiled or dropped: the command
    # exits 0 or 1 with no traceback, and a graph it cannot read fails with
    # a message that names the operand, the vertex or edge and the field.
    # The warm rerun of _assert_contract also checks that the caches these
    # commands read through carry nothing from one request into the next
    keys = ["a", "b"] if command == "order" else ["graph"]
    key = data.draw(st.sampled_from(keys))
    # a fixed-locus graph is no operand of order or contract at all
    base = data.draw(st.sampled_from([FIG_TOP, FIG_SPLIT] + [_LOC] * (command == "aut")))
    path, names = data.draw(st.sampled_from(_graph_sites(base)))
    value = data.draw(st.sampled_from(_JUNK + [_DELETE] * isinstance(path[-1], str)))
    block = dict.fromkeys(keys, FIG_TOP)
    block[key] = _mutated(base, path, value)
    if command == "contract":
        block["epsilon"] = data.draw(st.sampled_from([None, "2/5", "2/7"]))
    model = data.draw(st.sampled_from([QUINTIC_LG, dict(QUINTIC_LG, epsilon="2/5")]))
    report = _assert_contract(command, {"model": model, command: block})
    first = report["checks"][0] if report and report["checks"] else {}
    failure = first.get("first_failure") or ""
    if failure.startswith("cannot read "):
        assert failure.startswith(f"cannot read {key!r}: ")
        assert all(name in failure for name in names), (path, value, failure)


def _assert_contract(command, config):
    """Run the command on the config through main, twice in the same
    process, and check the exit code, stderr and bytes; the report, or
    None when main printed an error instead."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        out_path = os.path.join(tmp, "report.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        code, out, err = _main_bytes([command, "--config", config_path])
        assert code in (0, 1)
        assert "Traceback" not in err
        if err:
            assert err.startswith("error:")
        else:
            report = json.loads(out)
            assert (code == 0) == report_passed(report)
        # a warm second run in the same process, written to --out as well
        again = _main_bytes([command, "--config", config_path, "--out", out_path])
        assert again == (code, out, err)
        if out:
            with open(out_path, encoding="utf-8") as handle:
                assert handle.read() == out
    return json.loads(out) if out else None
