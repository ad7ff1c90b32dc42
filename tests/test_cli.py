from __future__ import annotations

import ast
import contextlib
import gc
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmx import cli, jfun, p1series
from glsmx.cli import main, report_passed, run
from glsmx.graphs import _ENUM_BOUNDS

QUINTIC_LG = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg"}
QUINTIC_GEOM = dict(QUINTIC_LG, phase="geometric")

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


def test_handler_error_becomes_failing_check():
    report = run("mu", {"model": dict(QUINTIC_LG, epsilon="1/2")})
    assert report["checks"][0]["name"] == "OnWall"
    assert report["checks"][0]["status"] == "fail"
    assert not report_passed(report)


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


def test_main_bad_config_goes_to_stderr(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    code = main(["sectors", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err


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


def test_subcommands_run_without_sympy(monkeypatch):
    # sympy is a test extra; no subcommand may need it (verify is covered by
    # the acceptance tests and takes minutes)
    monkeypatch.setitem(sys.modules, "sympy", None)
    jfun._ladder.cache_clear()
    jfun._ladder_plus.cache_clear()
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
    assert len(cli.CRITERIA) == 10
    names = set()
    for fn in cli.CRITERIA:
        assert callable(fn)
        names.add(fn.__name__)
    assert len(names) == 10


@pytest.mark.parametrize(
    "command, block",
    [
        ("jwc", {"epsilon_1": "1/2", "epsilon_2": "2/3", "q_max": 4}),
        ("mu", {"epsilon": "1/2"}),
        ("edge", {"delta": 2, "beta": 1, "epsilon": "1/2"}),
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
    ],
)
def test_out_of_range_graph_fails_cleanly(command, block, tmp_path, capsys):
    config = {"model": QUINTIC_LG, command: block}
    report = run(command, config)
    assert [c["name"] for c in report["checks"]] == ["ConfigError"]
    failure = report["checks"][0]["first_failure"]
    assert failure.startswith("cannot read ")
    if _ZERO_DEN_LEG in block.values():
        assert "vertex 0 leg 1 multiplicity '1/0' has a zero denominator" in failure
    elif _ZERO_DEN_MULT in block.values():
        assert "edge 0 side 1 multiplicity '1/0' has a zero denominator" in failure
    else:
        assert "outside vertices" in failure
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([command, "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["checks"][0]["status"] == "fail"
    assert "Traceback" not in captured.err


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


def _assert_contract(command, config):
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
