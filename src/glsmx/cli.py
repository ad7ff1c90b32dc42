"""Command line front end and bundled verification suite.

The ``glsmx`` executable reads a single JSON configuration document,
dispatches on a subcommand, and prints a JSON report with a fixed field
order: the command name, an echo of the parsed inputs, the results, and a
list of named checks.  Every rational number is rendered as an exact
``p/q`` string; coefficient tables are keyed ``"beta,zpower,Hpower"`` with
values written as rational functions of lam.  Reports are deterministic,
so two runs on the same configuration produce identical bytes.

``glsmx verify`` runs the acceptance checks below; the process exits 0
exactly when every check in the report passes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction as Frac

from . import graphs as gr
from . import jfun
from . import p1series as p1
from .algebra import (
    LAM,
    RF_ONE,
    RF_ZERO,
    RatFun,
    TruncSeries,
    Z,
    render_ratfun,
    series_root_pow,
)
from .errors import ConfigError, GlsmxError, IdentityFailed
from .graphs import _frac_str
from .model import (
    GEOMETRIC,
    LG,
    GlsmModel,
    choose_delta,
    graph_multiplicities,
    isotropy_order,
    list_sectors,
    make_sector,
    solve_last_multiplicity,
)

DEFAULT_Q_MAX = 8
DEFAULT_Y_MAX = 6
DEFAULT_Z_CAP = 12

# entry cap for exhaustive descending-chain searches; desk-scale triples
# bottom out well before this
_CHAIN_CAP = 16


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_frac(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{what} must be an integer or a 'p/q' string")
    try:
        return Frac(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what}: cannot read {value!r} as a rational") from None


def _parse_optional_frac(value, what):
    return None if value is None else _parse_frac(value, what)


def _parse_bool(value, what):
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be a boolean")
    return value


def _parse_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer")
    return value


def _params(config, command):
    block = config.get(command, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{command!r} section must be an object")
    return block


def _model_from_config(config):
    block = config.get("model")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'model' object")
    weights = block.get("weights")
    if not isinstance(weights, list) or not weights:
        raise ConfigError("model.weights must be a non-empty list")
    weights = tuple(_parse_int(w, "model.weights entry") for w in weights)
    n_aux = _parse_int(block.get("N"), "model.N")
    d = _parse_int(block.get("d"), "model.d")
    phase = block.get("phase")
    if phase not in (LG, GEOMETRIC):
        raise ConfigError(f"model.phase must be {LG!r} or {GEOMETRIC!r}")
    epsilon = _parse_optional_frac(block.get("epsilon"), "model.epsilon")
    return GlsmModel(weights, n_aux, d, phase, epsilon)


def _model_echo(model):
    return {
        "weights": list(model.weights),
        "N": model.N,
        "d": model.d,
        "phase": model.phase,
        "epsilon": None if model.epsilon is None else str(model.epsilon),
    }


def _truncations(config):
    block = config.get("truncations", {})
    if not isinstance(block, dict):
        raise ConfigError("'truncations' section must be an object")
    out = {
        "q_max": _parse_int(block.get("q_max", DEFAULT_Q_MAX), "truncations.q_max"),
        "y_max": _parse_int(block.get("y_max", DEFAULT_Y_MAX), "truncations.y_max"),
        "z_cap": _parse_int(block.get("z_cap", DEFAULT_Z_CAP), "truncations.z_cap"),
    }
    for key, value in out.items():
        if value < 0:
            raise ConfigError(f"truncations.{key} must be non-negative")
    return out


def _graph_from_params(params, key):
    inline = params.get(key)
    path = params.get(f"{key}_file")
    if inline is not None and path is not None:
        raise ConfigError(f"give either {key!r} or '{key}_file', not both")
    if path is not None:
        inline = _load_json(path)
    if inline is None:
        raise ConfigError(f"command needs a {key!r} object or '{key}_file' path")
    try:
        return gr.graph_from_obj(inline)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        raise ConfigError(f"cannot read {key!r}: {err}") from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path!r} is not valid JSON: {err}") from None


# ---------------------------------------------------------------------------
# report serialization


def _lam_term(coeff, exponent):
    if exponent == 0:
        return str(coeff)
    power = "lam" if exponent == 1 else f"lam^{exponent}"
    if coeff == 1:
        return power
    if coeff == -1:
        return f"-{power}"
    return f"{coeff}*{power}"


def _join_terms(terms):
    out = terms[0]
    for term in terms[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def _lam_string(f):
    """Exact rendering of a RatFun in lam alone as a Laurent sum."""
    if f.is_zero():
        return "0"
    terms = f.laurent_terms()
    if all(j == 0 for (_, j) in terms):
        return _join_terms([_lam_term(v, i) for (i, _), v in sorted(terms.items(), reverse=True)])
    return f"({render_ratfun(f)})"


def _coh_cells(value):
    """CohClass -> sorted [(z exponent, H exponent, lam string)] cells."""
    cells = []
    for h, part in enumerate(value.coeffs):
        for z_exp, lam_part in part.z_parts().items():
            cells.append((z_exp, h, _lam_string(lam_part)))
    return sorted(cells)


def _coefficient_table(values):
    """{beta: CohClass} -> flat {"beta,zpower,Hpower": lam string}."""
    table = {}
    for beta in sorted(values):
        for z_exp, h, text in _coh_cells(values[beta]):
            table[f"{beta},{z_exp},{h}"] = text
    return table


def _check(name, ok, first_failure=None):
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "first_failure": None if ok else (first_failure or "failed"),
    }


def report_passed(report):
    return all(c["status"] != "fail" for c in report["checks"])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sectors(config, trunc):
    model = _model_from_config(config)
    rows = []
    for sector in list_sectors(model):
        rows.append(
            {
                "multiplicity": _frac_str(sector.mult),
                "narrow": sector.narrow,
                "fixed_coordinates": sorted(sector.fixed_coords),
                "isotropy_order": sector.isotropy_order,
            }
        )
    inputs = {"model": _model_echo(model)}
    return inputs, {"sectors": rows}, []


def _cmd_stability(config, trunc):
    params = _params(config, "stability")
    genus = _parse_int(params.get("genus"), "stability.genus")
    degree = _parse_frac(params.get("degree", 0), "stability.degree")
    special = _parse_int(params.get("special_points", 0), "stability.special_points")
    orders = params.get("basepoint_orders", [])
    if not isinstance(orders, list):
        raise ConfigError("stability.basepoint_orders must be a list")
    orders = tuple(_parse_int(o, "basepoint order") for o in orders)
    epsilon = _parse_optional_frac(params.get("epsilon"), "stability.epsilon")
    light_delta = _parse_optional_frac(params.get("light_delta"), "stability.light_delta")
    light_markings = _parse_int(params.get("light_markings", 0), "stability.light_markings")
    stable = gr.epsilon_stable(
        genus, degree, special, epsilon, orders, light_delta, light_markings
    )
    inputs = {
        "genus": genus,
        "degree": _frac_str(degree),
        "special_points": special,
        "basepoint_orders": list(orders),
        "epsilon": None if epsilon is None else str(epsilon),
        "light_delta": None if light_delta is None else str(light_delta),
        "light_markings": light_markings,
    }
    return inputs, {"stable": stable}, []


def _cmd_contract(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "contract")
    graph = _graph_from_params(params, "graph")
    epsilon = _parse_optional_frac(params.get("epsilon"), "contract.epsilon")
    if epsilon is None:
        epsilon = model.epsilon
    problems = gr.validate(model, graph)
    if problems:
        raise ConfigError(f"input graph is invalid: {problems[0]}")
    record = gr.contract_c(model, graph, epsilon)
    before = gr.total_degree(graph)
    after = gr.total_degree(record.graph) + sum(b.order for b in record.basepoints)
    inputs = {
        "model": _model_echo(model),
        "epsilon": None if epsilon is None else str(epsilon),
        "graph": gr.graph_to_obj(graph),
    }
    results = {
        "graph": gr.graph_to_obj(record.graph),
        "basepoints": [
            {"host": b.host, "order": b.order, "multiplicity": _frac_str(b.mult)}
            for b in record.basepoints
        ],
        "degree_before": before,
        "degree_after_with_basepoints": after,
    }
    checks = [
        _check("degree_conserved", before == after, f"{before} became {after}"),
        _check(
            "fixpoint",
            gr.is_contraction_fixpoint(model, record, epsilon),
            "a second pass would contract further",
        ),
    ]
    return inputs, results, checks


def _cmd_graphs(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "graphs")
    genus = _parse_int(params.get("genus"), "graphs.genus")
    markings = _parse_int(params.get("markings"), "graphs.markings")
    beta = _parse_int(params.get("degree"), "graphs.degree")
    delta = _parse_int(params.get("edge_degree"), "graphs.edge_degree")
    out = gr.enumerate_loc_graphs(model, genus, markings, beta, delta)
    bad = [gr.validate(model, lam) for lam in out]
    first_bad = next((msgs[0] for msgs in bad if msgs), None)
    inputs = {
        "model": _model_echo(model),
        "genus": genus,
        "markings": markings,
        "degree": beta,
        "edge_degree": delta,
    }
    results = {"count": len(out), "graphs": [gr.graph_to_obj(lam) for lam in out]}
    checks = [_check("all_valid", first_bad is None, first_bad)]
    return inputs, results, checks


def _cmd_aut(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "aut")
    graph = _graph_from_params(params, "graph")
    aut, factor = gr.aut_degree(model, graph)
    inputs = {"model": _model_echo(model), "graph": gr.graph_to_obj(graph)}
    results = {"automorphism_order": aut, "degree_factor": _frac_str(factor)}
    return inputs, results, []


def _cmd_order(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "order")
    a = _graph_from_params(params, "a")
    b = _graph_from_params(params, "b")
    inputs = {
        "model": _model_echo(model),
        "a": gr.graph_to_obj(a),
        "b": gr.graph_to_obj(b),
    }
    results = {
        "a_below_b": gr.graph_leq(model, a, b),
        "b_below_a": gr.graph_leq(model, b, a),
        "isomorphic": gr.isomorphic(a, b),
    }
    return inputs, results, []


def _cmd_p1(config, trunc):
    params = _params(config, "p1")
    y_order = _parse_int(params.get("y_order", trunc["y_max"]), "p1.y_order")
    z_order = _parse_int(params.get("z_order", trunc["z_cap"]), "p1.z_order")
    delta = _parse_int(params.get("delta", 1), "p1.delta")
    unit_tail = p1.stilde_at_zero(p1.unit_class(), y_order)
    hyper_tail = p1.stilde_at_zero(p1.hyperplane_class(), y_order)
    checks = []
    multiples = {}
    try:
        ratio = p1.irr_ratio_check(y_order)
        multiples = {str(k): _frac_str(v) for k, v in sorted(ratio["lambda_multiples"].items())}
        checks.append(_check("square_root_ratio", True))
    except IdentityFailed as err:
        checks.append(_check("square_root_ratio", False, str(err)))
    constant = p1.tree_series_eps(y_order, z_order).coeff(0)
    checks.append(
        _check(
            "unmarked_constant_term_zero",
            constant.is_zero(),
            "y^0 part of the unmarked series is nonzero",
        )
    )
    pairings = {
        "point_zero.point_infinity": _lam_string(
            p1.p1_graph_sum(2, delta, [(p1.point_class_zero(), 0), (p1.point_class_infinity(), 0)])
        ),
        "hyperplane.hyperplane": _lam_string(
            p1.p1_graph_sum(2, delta, [(p1.hyperplane_class(), 0), (p1.hyperplane_class(), 0)])
        ),
    }
    inputs = {"y_order": y_order, "z_order": z_order, "delta": delta}
    results = {
        "tail_unit": {f"y^{k}": _lam_string(unit_tail.coeff(k, RF_ZERO)) for k in range(y_order + 1)},
        "tail_hyperplane": {
            f"y^{k}": _lam_string(hyper_tail.coeff(k, RF_ZERO)) for k in range(y_order + 1)
        },
        "ratio_lambda_multiples": multiples,
        "pairings": pairings,
    }
    return inputs, results, checks


def _cmd_ifun(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "ifun")
    q_max = _parse_int(params.get("q_max", trunc["q_max"]), "ifun.q_max")
    twisted = _parse_bool(params.get("twisted", False), "ifun.twisted")
    series = jfun.i_function(model, q_max, twisted)
    values = {beta: series.coefficient(beta) for beta in range(q_max + 1)}
    inputs = {"model": _model_echo(model), "q_max": q_max, "twisted": twisted}
    results = {
        "sectors": {str(b): _frac_str(jfun.j_sector(model, b)) for b in range(q_max + 1)},
        "coefficients": _coefficient_table(values),
    }
    return inputs, results, []


def _cmd_mu(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "mu")
    epsilon = _parse_optional_frac(params.get("epsilon"), "mu.epsilon")
    if epsilon is None:
        epsilon = model.epsilon
    if epsilon is None:
        raise ConfigError("mu needs an epsilon, in the command block or on the model")
    twisted = _parse_bool(params.get("twisted", False), "mu.twisted")
    table = jfun.mu_table(model, epsilon, twisted)
    inputs = {"model": _model_echo(model), "epsilon": str(epsilon), "twisted": twisted}
    results = {
        "beta_max": table.beta_max,
        "sectors": {str(b): _frac_str(table.sector(b)) for b in table.betas()},
        "coefficients": _coefficient_table(dict(table.entries)),
    }
    checks = [
        _check("mu_zero_vanishes", table.entry(0).is_zero(), "mu_0 is nonzero")
    ]
    return inputs, results, checks


def _cmd_edge(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "edge")
    delta = _parse_int(params.get("delta"), "edge.delta")
    beta = _parse_int(params.get("beta", 0), "edge.beta")
    epsilon = _parse_optional_frac(params.get("epsilon"), "edge.epsilon")
    twisted = _parse_bool(params.get("twisted", False), "edge.twisted")
    unstable_vertex = params.get("unstable_vertex")
    value = jfun.edge_contribution(model, delta, beta, epsilon, twisted, unstable_vertex)
    inputs = {
        "model": _model_echo(model),
        "delta": delta,
        "beta": beta,
        "epsilon": None if epsilon is None else str(epsilon),
        "twisted": twisted,
        "unstable_vertex": unstable_vertex,
    }
    results = {"coefficients": _coefficient_table({beta: value})}
    return inputs, results, []


def _cmd_jwc(config, trunc):
    model = _model_from_config(config)
    params = _params(config, "jwc")
    epsilon_1 = _parse_frac(params.get("epsilon_1"), "jwc.epsilon_1")
    epsilon_2 = _parse_frac(params.get("epsilon_2"), "jwc.epsilon_2")
    q_max = _parse_int(params.get("q_max", trunc["q_max"]), "jwc.q_max")
    out = jfun.jwc_check(model, epsilon_1, epsilon_2, q_max, strict=False)
    inputs = {
        "model": _model_echo(model),
        "epsilon_1": str(epsilon_1),
        "epsilon_2": str(epsilon_2),
        "q_max": q_max,
    }
    results = {"gained": out["gained"], "passed": out["passed"]}
    return inputs, results, list(out["checks"])


def _cmd_verify(config, trunc):
    checks = [criterion() for criterion in CRITERIA]
    passed = sum(1 for c in checks if c["status"] == "pass")
    results = {"criteria": len(checks), "passed": passed}
    return {}, results, checks


_HANDLERS = {
    "sectors": _cmd_sectors,
    "stability": _cmd_stability,
    "contract": _cmd_contract,
    "graphs": _cmd_graphs,
    "aut": _cmd_aut,
    "order": _cmd_order,
    "p1": _cmd_p1,
    "ifun": _cmd_ifun,
    "mu": _cmd_mu,
    "edge": _cmd_edge,
    "jwc": _cmd_jwc,
    "verify": _cmd_verify,
}


def run(command, config):
    """Execute one subcommand on a parsed configuration document.

    Domain errors raised while the command runs are folded into the report
    as a failing check; only an unknown command or a non-object config is
    rejected outright.
    """
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    try:
        trunc = _truncations(config)
        inputs, results, checks = _HANDLERS[command](config, trunc)
    except GlsmxError as err:
        inputs, results = {}, {}
        checks = [_check(type(err).__name__, False, str(err))]
    return {"command": command, "inputs": inputs, "results": results, "checks": checks}


# ---------------------------------------------------------------------------
# verification suite


def _expect(condition, message):
    if not condition:
        raise IdentityFailed(message)


def _criterion(name, body, **kwargs):
    try:
        body(**kwargs)
    except Exception as err:  # anything that breaks is a finding, not a crash
        return {
            "name": name,
            "status": "fail",
            "first_failure": f"{type(err).__name__}: {err}",
        }
    return {"name": name, "status": "pass", "first_failure": None}


def _tail_closed_forms_body():
    y_order = 3
    disc = TruncSeries("y", y_order, {0: RF_ONE, 1: RatFun(4) / LAM**2})
    unit_tail = p1.stilde_at_zero(p1.unit_class(), y_order)
    _expect(
        unit_tail == series_root_pow(disc, Frac(-1, 4)),
        "unit tail is not the -1/4 power of the discriminant series",
    )
    hyper_tail = p1.stilde_at_zero(p1.hyperplane_class(), y_order)
    want = (
        series_root_pow(disc, Frac(-1, 4)) + series_root_pow(disc, Frac(1, 4))
    ) * (LAM * Frac(1, 2))
    _expect(
        hyper_tail == want,
        "hyperplane tail is not (lam/2) times the -1/4 plus +1/4 powers",
    )


def criterion_tail_closed_forms():
    return _criterion("tail closed forms", _tail_closed_forms_body)


def _root_ratio_body():
    report = p1.irr_ratio_check(6)
    for k in range(1, 7):
        _expect(report["lambda_multiples"][k] != 0, f"order {k} multiple vanishes")


def criterion_root_ratio():
    return _criterion("square root ratio", _root_ratio_body)


def _unmarked_positivity_body():
    constant = p1.tree_series_eps(6, 12).coeff(0)
    _expect(constant.is_zero(), "unmarked series has a y^0 part")


def criterion_unmarked_positivity():
    return _criterion("unmarked series positivity", _unmarked_positivity_body)


_DUAL_ROUTE_CASES = (
    (GlsmModel((1, 1, 1, 1, 1), 1, 5, LG), 6),
    (GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC), 3),
)


def _closed_route_value(model, beta, twisted):
    """Closed product form of the degree-beta coefficient, written straight
    from the section monomial count; deliberately separate from the
    weight-table route so the two can disagree."""
    unit = jfun.state_unit(model)
    hyper = jfun.state_hyperplane(model)
    if model.phase == LG:
        if not make_sector(model, jfun.j_sector(model, beta)).narrow:
            return unit * RF_ZERO
        m1 = graph_multiplicities(model, beta)[0]
        value = unit * (Z * Frac(isotropy_order(model.d, m1), model.d))
        for w in model.weights:
            a = Frac(w * (beta + 1), model.d)
            top = -((-(w * (beta + 1) + 1)) // model.d) - 1
            for k in range(1, top + 1):
                value = value * (unit * (Z * (k - a)) - hyper * Frac(w, model.d))
        for b in range(1, beta + 1):
            value = value / ((hyper + unit * (Z * b)) ** model.N)
    else:
        value = unit * Z
        for m in range(1, model.d * beta + 1):
            value = value * ((hyper * (-model.d) - unit * (Z * m)) ** model.N)
        for w in model.weights:
            for b in range(1, w * beta + 1):
                value = value / (hyper * w + unit * (Z * b))
    if twisted:
        level = jfun.lambda_level(model, gr.LEVEL_ZERO)
        for b in range(beta):
            value = value * (level - unit * (Z * b))
    return value


def _dual_route_body():
    for model, beta_top in _DUAL_ROUTE_CASES:
        for beta in range(beta_top + 1):
            for twisted in (False, True):
                ladder = jfun.unstable_J_coefficient(model, beta, None, twisted)
                closed = _closed_route_value(model, beta, twisted)
                _expect(
                    (ladder - closed).is_zero(),
                    f"routes disagree at phase {model.phase} beta {beta} "
                    f"twisted {twisted}",
                )


def criterion_dual_route():
    return _criterion("dual route coefficients", _dual_route_body)


_NORMALIZATION_MODELS = (
    GlsmModel((1, 1, 1, 1, 1), 1, 5, LG),
    GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC),
    GlsmModel((1, 1, 2, 2), 2, 4, LG),
    GlsmModel((1, 1), 2, 2, GEOMETRIC),
)
_NORMALIZATION_EPS = (Frac(2, 3), Frac(2, 5), Frac(2, 7))


def _leading_terms_body():
    for model in _NORMALIZATION_MODELS:
        expected = jfun.state_unit(model) * Z
        for epsilon in _NORMALIZATION_EPS:
            for twisted in (False, True):
                where = f"{model.phase} weights {model.weights} eps {epsilon}"
                lead = jfun.positive_z_part(
                    jfun.unstable_J_coefficient(model, 0, epsilon, twisted)
                )
                _expect((lead - expected).is_zero(), f"leading term is not z at {where}")
                table = jfun.mu_table(model, epsilon, twisted)
                _expect(table.entry(0).is_zero(), f"mu_0 is nonzero at {where}")
                for beta in (table.beta_max + 1, table.beta_max + 2):
                    _expect(
                        table.entry(beta).is_zero(),
                        f"mu_{beta} beyond the chamber is nonzero at {where}",
                    )


def criterion_leading_terms():
    return _criterion("leading term normalization", _leading_terms_body)


def _pairing_relations_body():
    one = p1.unit_class()
    hyp = p1.hyperplane_class()
    got = p1.p1_graph_sum(2, 1, [(p1.point_class_zero(), 0), (p1.point_class_infinity(), 0)])
    _expect(got == RF_ONE, "two opposite point classes must pair to 1 at delta 1")
    got = p1.p1_graph_sum(2, 1, [(hyp, 0), (hyp, 0)])
    _expect(got == RF_ONE, "two hyperplane classes must pair to 1 at delta 1")
    bases = (
        (2, 1, ((hyp, 0), (p1.point_class_infinity(), 1))),
        (2, 1, ((one, 1), (hyp, 0))),
        (3, 1, ((hyp, 0), (one, 0), (p1.point_class_infinity(), 0))),
        (2, 2, ((hyp, 1), (hyp, 0))),
        (3, 2, ((one, 1), (hyp, 0), (hyp, 0))),
    )
    for n, delta, ins in bases:
        lhs = p1.p1_graph_sum(n + 1, delta, list(ins) + [(one, 0)])
        rhs = RF_ZERO
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                dropped = list(ins)
                dropped[i] = (alpha, k - 1)
                rhs = rhs + p1.p1_graph_sum(n, delta, dropped)
        _expect(lhs == rhs, f"string relation fails at n={n} delta={delta}")
        lhs = p1.p1_graph_sum(n + 1, delta, list(ins) + [(hyp, 0)])
        rhs = p1.p1_graph_sum(n, delta, list(ins)) * RatFun(delta)
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                contact = list(ins)
                contact[i] = (hyp * alpha, k - 1)
                rhs = rhs + p1.p1_graph_sum(n, delta, contact)
        _expect(lhs == rhs, f"divisor relation fails at n={n} delta={delta}")


def criterion_pairing_relations():
    return _criterion("pairings and relations", _pairing_relations_body)


# Counts frozen from the brute-force partition enumeration in the test
# suite; keys are (genus, markings, degree, edge degree).
_CENSUS = {
    (0, 0, 0, 1): 0,
    (0, 0, 0, 2): 0,
    (0, 0, 1, 1): 0,
    (0, 0, 1, 2): 0,
    (0, 0, 2, 1): 0,
    (0, 0, 2, 2): 0,
    (0, 0, 3, 1): 2,
    (0, 0, 3, 2): 11,
    (0, 1, 0, 1): 2,
    (0, 1, 0, 2): 6,
    (0, 1, 1, 1): 3,
    (0, 1, 1, 2): 12,
    (0, 1, 2, 1): 4,
    (0, 1, 2, 2): 19,
    (0, 1, 3, 1): 6,
    (0, 1, 3, 2): 30,
    (0, 2, 0, 1): 20,
    (0, 2, 0, 2): 70,
    (0, 2, 1, 1): 35,
    (0, 2, 1, 2): 160,
    (0, 2, 2, 1): 50,
    (0, 2, 2, 2): 275,
    (0, 2, 3, 1): 70,
    (0, 2, 3, 2): 440,
    (1, 0, 0, 1): 2,
    (1, 0, 0, 2): 9,
    (1, 0, 1, 1): 0,
    (1, 0, 1, 2): 0,
    (1, 0, 2, 1): 0,
    (1, 0, 2, 2): 0,
    (1, 0, 3, 1): 0,
    (1, 0, 3, 2): 0,
    (1, 1, 0, 1): 4,
    (1, 1, 0, 2): 20,
    (1, 1, 1, 1): 7,
    (1, 1, 1, 2): 44,
    (1, 1, 2, 1): 10,
    (1, 1, 2, 2): 73,
    (1, 1, 3, 1): 14,
    (1, 1, 3, 2): 112,
    (1, 2, 0, 1): 40,
    (1, 2, 0, 2): 240,
    (1, 2, 1, 1): 75,
    (1, 2, 1, 2): 570,
    (1, 2, 2, 1): 110,
    (1, 2, 2, 2): 995,
    (1, 2, 3, 1): 150,
    (1, 2, 3, 2): 1560,
}


def _graph_census_body(brute=None):
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 5))
    for (genus, markings, beta, delta), expected in sorted(_CENSUS.items()):
        where = f"(g={genus}, n={markings}, beta={beta}, delta={delta})"
        out = gr.enumerate_loc_graphs(model, genus, markings, beta, delta)
        _expect(len(out) == expected, f"count at {where}: {len(out)} vs {expected}")
        if brute is not None:
            live = brute(model, genus, markings, beta, delta)
            _expect(live == expected, f"oracle count at {where}: {live} vs {expected}")
        for lam in out:
            _expect(not gr.validate(model, lam), f"invalid graph emitted at {where}")
            for ei, edge in enumerate(lam.edges):
                order = gr.basepoint_order_on_edge(model, lam, ei)
                if order:
                    _expect(
                        edge.delta > order,
                        f"edge degree {edge.delta} does not exceed basepoint "
                        f"order {order} at {where}",
                    )


def criterion_graph_census(brute=None):
    """Pass a callable (model, g, n, beta, delta) -> count to compare against
    a live enumeration oracle on top of the frozen counts."""
    return _criterion("graph census", _graph_census_body, brute=brute)


def _chain_graph(model, degrees):
    # genus-2 anchor followed by a chain of rational tails; multiplicities
    # are solved from the far end inward
    k = len(degrees)
    out_side = [None] * k
    in_side = [None] * k
    out_side[k - 1] = solve_last_multiplicity(model, 0, degrees[-1], [])
    for i in range(k - 1, 0, -1):
        in_side[i] = (-out_side[i]) % 1
        out_side[i - 1] = solve_last_multiplicity(
            model, 0, degrees[i - 1], [in_side[i]]
        )
    in_side[0] = (-out_side[0]) % 1
    anchor_leg = solve_last_multiplicity(model, 2, 0, [in_side[0]])
    vertices = [gr.Vertex(2, 0, ((1, anchor_leg),))]
    vertices += [gr.Vertex(0, b) for b in degrees]
    edges = tuple(gr.Edge((i, i + 1), (in_side[i], out_side[i])) for i in range(k))
    return gr.DualGraph(tuple(vertices), edges)


def _contraction_corpus_body():
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    rng = random.Random(48117)
    eps_choices = (None, Frac(1, 4), Frac(2, 5), Frac(2, 3), Frac(3, 2))
    for _ in range(50):
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        epsilon = eps_choices[rng.randrange(len(eps_choices))]
        graph = _chain_graph(model, degrees)
        where = f"degrees {degrees} eps {epsilon}"
        _expect(not gr.validate(model, graph), f"corpus graph invalid at {where}")
        record = gr.contract_c(model, graph, epsilon)
        _expect(
            gr.is_contraction_fixpoint(model, record, epsilon),
            f"contraction not idempotent at {where}",
        )
        total = gr.total_degree(record.graph) + sum(b.order for b in record.basepoints)
        _expect(total == gr.total_degree(graph), f"degree not conserved at {where}")
        hosted = {}
        for b in record.basepoints:
            hosted.setdefault(b.host, []).append(b.order)
        for vi, vertex in enumerate(record.graph.vertices):
            stable = gr.epsilon_stable(
                vertex.genus,
                vertex.degree + sum(hosted.get(vi, ())),
                gr.vertex_valence(record.graph, vi),
                epsilon,
                hosted.get(vi, ()),
            )
            _expect(stable, f"vertex {vi} unstable after contraction at {where}")


def criterion_contraction_corpus():
    return _criterion("contraction corpus", _contraction_corpus_body)


def _figure_graphs():
    top = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(2, 2)),
        (gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )
    chain_mid = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 1), gr.Vertex(1, 1)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )
    chain_far = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 1), gr.Vertex(1, 1)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        2,
    )
    loop = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 2)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 1), (Frac(0), Frac(0))),
        ),
        1,
    )
    loop_split = gr.DualGraph(
        (
            gr.Vertex(1, 0, ((1, Frac(3, 5)),)),
            gr.Vertex(0, 1),
            gr.Vertex(1, 1),
        ),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 1), (Frac(0), Frac(0))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )
    return top, (chain_mid, chain_far, loop, loop_split)


def _partial_order_body():
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top, predecessors = _figure_graphs()
    _expect(not gr.validate(model, top), "top graph is invalid")
    _expect(gr.graph_leq(model, top, top), "order must be reflexive")
    for pred in predecessors:
        _expect(not gr.validate(model, pred), "predecessor graph is invalid")
        _expect(gr.infinity_stable_graph(model, pred), "predecessor not infinity stable")
        _expect(gr.graph_leq(model, pred, top), "predecessor is not below the top graph")
        _expect(not gr.graph_leq(model, top, pred), "order relation reversed")
    rng = random.Random(93202)
    built = 0
    attempts = 0
    while built < 20:
        attempts += 1
        _expect(attempts < 4000, "random top generation stalled")
        g0, g1 = rng.randint(0, 1), rng.randint(0, 2)
        b0, b1 = rng.randint(0, 2), rng.randint(0, 1)
        bullet = rng.randint(0, 1)
        # exhaustive chain enumeration blows up exponentially in the
        # distinguished vertex's genus + degree; cap that budget at 2
        if (g0 + b0 if bullet == 0 else g1 + b1) > 2:
            continue
        m_edge = Frac(rng.randrange(5), 5)
        extra = Frac(rng.randrange(5), 5)
        last0 = solve_last_multiplicity(model, g0, b0, [m_edge, extra])
        last1 = solve_last_multiplicity(model, g1, b1, [(-m_edge) % 1])
        graph = gr.DualGraph(
            (
                gr.Vertex(g0, b0, ((1, extra), (2, last0))),
                gr.Vertex(g1, b1, ((3, last1),)),
            ),
            (gr.Edge((0, 1), (m_edge, (-m_edge) % 1)),),
            bullet,
        )
        if gr.validate(model, graph):
            continue
        if not gr.infinity_stable_graph(model, graph):
            continue
        built += 1
        chains = gr.descending_chains(model, graph, _CHAIN_CAP)
        _expect(chains, "descending chain search found nothing")
        longest = max(chains, key=len)
        _expect(len(longest) < _CHAIN_CAP, "chain search hit the cap")
        for chain in chains:
            # each descent appends exactly one edge (a split of the
            # distinguished vertex, or one unit of its genus traded for a
            # loop), so the deepest graph in the chain bounds its length
            bottom = chain[-1]
            bound = len(bottom.edges) + sum(v.genus for v in bottom.vertices) + 2
            _expect(
                len(chain) == len(bottom.edges) - len(graph.edges) + 1,
                f"descent step did not append one edge below {gr.graph_to_obj(graph)}",
            )
            _expect(
                len(chain) <= bound,
                f"chain of {len(chain)} entries exceeds {bound} below {gr.graph_to_obj(graph)}",
            )
        for above, below in zip(longest, longest[1:]):
            _expect(not gr.validate(model, below), "chain entry fails validation")
            _expect(gr.graph_leq(model, below, above), "chain step not certified by graph_leq")
            _expect(not gr.graph_leq(model, above, below), "chain step reversed")


def criterion_partial_order():
    return _criterion("partial order chains", _partial_order_body)


def _stability_margin_body():
    rng = random.Random(7741)
    seen = 0
    while seen < 100:
        epsilon = Frac(rng.randint(1, 160), rng.randint(1, 40))
        if epsilon > 4 or (1 / epsilon).denominator == 1:
            continue
        delta = choose_delta(epsilon)
        k_hi = int(2 / epsilon) + 2
        for k in range(-k_hi, k_hi + 1):
            lhs = k * epsilon - 1
            if abs(lhs) > 1:
                continue
            _expect(
                (lhs > 0) == (lhs + delta > 0),
                f"shift {delta} flips the sign of {k}*{epsilon} - 1",
            )
        seen += 1


def criterion_stability_margin():
    return _criterion("stability margin scan", _stability_margin_body)


CRITERIA = (
    criterion_tail_closed_forms,
    criterion_root_ratio,
    criterion_unmarked_positivity,
    criterion_dual_route,
    criterion_leading_terms,
    criterion_pairing_relations,
    criterion_graph_census,
    criterion_contraction_corpus,
    criterion_partial_order,
    criterion_stability_margin,
)


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="glsmx",
        description="exact wall-crossing bookkeeping for abelian GLSM data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    blurbs = {
        "sectors": "classify the torsion sectors of a model",
        "stability": "test one component against a stability parameter",
        "contract": "contract unstable rational tails into basepoints",
        "graphs": "enumerate fixed-locus graphs at a desk-scale bound",
        "aut": "automorphism order and degree factor of a graph",
        "order": "compare two decorated graphs in the partial order",
        "p1": "tail series and pairings on the parameterized line",
        "ifun": "small-chamber series coefficients",
        "mu": "mirror-map table of one chamber",
        "edge": "localization factor of one edge cover",
        "jwc": "wall-crossing identity checks between two chambers",
        "verify": "run the bundled acceptance checks",
    }
    for name in _HANDLERS:
        p = sub.add_parser(name, help=blurbs[name])
        p.add_argument("--config", help="path to the JSON configuration document")
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument(
            "--y-order", type=int, dest="y_order", help="override truncations.y_max"
        )
        p.add_argument(
            "--q-order", type=int, dest="q_order", help="override truncations.q_max"
        )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _load_json(args.config) if args.config else {}
        if not isinstance(config, dict):
            raise ConfigError("configuration must be a JSON object")
        if args.y_order is not None or args.q_order is not None:
            block = config.setdefault("truncations", {})
            if not isinstance(block, dict):
                raise ConfigError("'truncations' section must be an object")
            if args.y_order is not None:
                block["y_max"] = args.y_order
            if args.q_order is not None:
                block["q_max"] = args.q_order
        out_path = config.get("out")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("'out' must be a path string")
        out_path = args.out or out_path
        report = run(args.command, config)
    except GlsmxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: cannot write {out_path!r}: {err.strerror or err}", file=sys.stderr)
            return 1
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
