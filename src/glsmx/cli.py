"""The ``glsmx`` command.

The ``glsmx`` executable reads a single JSON configuration document,
dispatches on a subcommand, and prints a JSON report with a fixed field
order: the command name, an echo of the parsed inputs, the results, and a
list of named checks.  Every rational number is rendered as an exact
``p/q`` string; coefficient tables are keyed ``"beta,zpower,Hpower"`` with
values written as rational functions of lam.  Reports are deterministic,
so two runs on the same configuration produce identical bytes.

``glsmx verify`` runs the acceptance checks of ``glsmx.criteria``; the
process exits 0 exactly when every check in the report passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import graphs as gr
from . import jfun
from . import p1series as p1
from .algebra import join_terms
from .errors import ConfigError, GlsmxError, IdentityFailed, check_record
from .graphs import _read_frac
from .model import GEOMETRIC, LG, GlsmModel, check_off_wall, list_sectors

DEFAULT_Q_MAX = 8
DEFAULT_Y_MAX = 6
DEFAULT_Z_CAP = 12

# rendered table entries and sector strings held per process; the chamber
# commands over the four acceptance models at beta <= 8 render a few hundred
_CELL_CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_frac(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{what} must be an integer or a 'p/q' string")
    try:
        return _read_frac(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what}: cannot read {value!r} as a rational") from None


def _parse_optional_frac(value, what):
    return None if value is None else _parse_frac(value, what)


def _parse_optional_epsilon(value, what):
    # None is the infinity chamber; any other value must sit off every wall
    value = _parse_optional_frac(value, what)
    return None if value is None else check_off_wall(value)


def _parse_bool(value, what):
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be a boolean")
    return value


def _parse_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer")
    return value


def _parse_count(value, what):
    value = _parse_int(value, what)
    if value < 0:
        raise ConfigError(f"{what} must be non-negative")
    return value


def _params(config, command):
    block = config.get(command, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{command!r} section must be an object")
    return block


# GlsmModel is frozen, so every request with the same model block shares
# one instance; a config that fails validation raises on every call
_glsm_model = functools.lru_cache(maxsize=64)(GlsmModel)


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
    epsilon = block.get("epsilon")
    _parse_optional_frac(epsilon, "model.epsilon")
    # keyed on the epsilon as given, since hashing a Fraction costs more
    # than the rest of the lookup; the model reads it as a Fraction
    return _glsm_model(weights, n_aux, d, phase, epsilon)


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
    return {
        "q_max": _parse_count(block.get("q_max", DEFAULT_Q_MAX), "truncations.q_max"),
        "y_max": _parse_count(block.get("y_max", DEFAULT_Y_MAX), "truncations.y_max"),
        "z_cap": _parse_count(block.get("z_cap", DEFAULT_Z_CAP), "truncations.z_cap"),
    }


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
    except ValueError as err:
        raise ConfigError(f"cannot read {key!r}: {err}") from None


def _dual_graph_from_params(params, key):
    """A graph operand that needs a distinguished vertex, so a dual graph."""
    graph = _graph_from_params(params, key)
    if isinstance(graph, gr.LocGraph):
        raise ConfigError(
            f"cannot read {key!r}: a fixed-locus graph has no distinguished vertex"
        )
    return graph


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read {path!r}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path!r} is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path!r} is not valid JSON: {err}") from None
    except RecursionError:
        raise ConfigError(f"{path!r} nests too deeply to read as JSON") from None


# ---------------------------------------------------------------------------
# report serialization


def _frac_str(m):
    return str(m if isinstance(m, Fraction) else Fraction(m))


def _lam_term(num, den, exponent):
    """The term num/den*lam^exponent, reduced by one gcd, with the
    coefficient written as str(Fraction) writes it."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    coeff = str(num) if den == 1 else f"{num}/{den}"
    if exponent == 0:
        return coeff
    power = "lam" if exponent == 1 else f"lam^{exponent}"
    if den == 1 and num in (1, -1):
        return power if num == 1 else f"-{power}"
    return f"{coeff}*{power}"


def _lam_string(f):
    """Exact rendering of a RatFun in lam alone as a Laurent sum."""
    if f.is_zero():
        return "0"
    den = f.den[(0, 0)]
    return join_terms([_lam_term(v, den, i) for (i, _), v in sorted(f.num.items(), reverse=True)])


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _cells(beta, value):
    """The cells of one table entry, as (("beta,zpower,Hpower", lam
    string), ...) ordered by z power, then H power.  Cached per process and
    keyed by the CohClass value, never by its identity, so equal values
    built apart share their text and no value can read another's."""
    cells = {}
    for h, part in enumerate(value.coeffs):
        den = part.den[(0, 0)]
        for (i, j), v in sorted(part.num.items(), reverse=True):
            cells.setdefault((j, h), []).append(_lam_term(v, den, i))
    return tuple((f"{beta},{j},{h}", join_terms(terms)) for (j, h), terms in sorted(cells.items()))


def _coefficient_table(values):
    """{beta: CohClass} -> flat {"beta,zpower,Hpower": lam string}, ordered
    by beta, then z power, then H power."""
    table = {}
    for beta in sorted(values):
        table.update(_cells(beta, values[beta]))
    return table


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _sector_cell(model, beta):
    """The sector of the degree-beta coefficient as a report string."""
    return _frac_str(jfun.j_sector(model, beta))


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
    genus = _parse_count(params.get("genus"), "stability.genus")
    degree = _parse_frac(params.get("degree", 0), "stability.degree")
    if degree < 0:
        raise ConfigError("stability.degree must be non-negative")
    special = _parse_count(params.get("special_points", 0), "stability.special_points")
    orders = params.get("basepoint_orders", [])
    if not isinstance(orders, list):
        raise ConfigError("stability.basepoint_orders must be a list")
    orders = tuple(_parse_count(o, "basepoint order") for o in orders)
    epsilon = _parse_optional_epsilon(params.get("epsilon"), "stability.epsilon")
    light_delta = _parse_optional_frac(params.get("light_delta"), "stability.light_delta")
    light_markings = _parse_count(params.get("light_markings", 0), "stability.light_markings")
    # light markings are special points that weigh light_delta instead of 1
    if light_markings > special:
        raise ConfigError("stability.light_markings exceeds stability.special_points")
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
    graph = _dual_graph_from_params(params, "graph")
    epsilon = _parse_optional_epsilon(params.get("epsilon"), "contract.epsilon")
    if epsilon is None:
        epsilon = model.epsilon
    problems = gr.validate(model, graph)
    if problems:
        raise ConfigError(f"input graph is invalid: {problems[0]}")
    if epsilon is not None:
        # 2g - 2 + n + epsilon*degree sums the components' positive ampleness
        # degrees over any epsilon-stable object, and contraction keeps g, n
        # and the degree, so when it is not positive no fixpoint exists
        genus, degree = gr.total_genus(graph), gr.total_degree(graph)
        markings = sum(len(v.legs) + v.extra_legs for v in graph.vertices)
        weight = 2 * genus - 2 + markings + epsilon * degree
        if weight <= 0:
            raise ConfigError(
                f"no {epsilon}-stable object has genus {genus}, {markings} markings and "
                f"degree {degree}: 2g - 2 + n + epsilon*degree = {weight} is not positive"
            )
    contracted, basepoints = gr.contract_c(model, graph, epsilon)
    before = gr.total_degree(graph)
    after = gr.total_degree(contracted) + sum(order for _, order, _ in basepoints)
    inputs = {
        "model": _model_echo(model),
        "epsilon": None if epsilon is None else str(epsilon),
        "graph": gr.graph_to_obj(graph),
    }
    results = {
        "graph": gr.graph_to_obj(contracted),
        "basepoints": [
            {"host": host, "order": order, "multiplicity": _frac_str(mult)}
            for host, order, mult in basepoints
        ],
        "degree_before": before,
        "degree_after_with_basepoints": after,
    }
    unstable = gr.first_unstable_vertex(contracted, basepoints, epsilon)
    checks = [
        check_record("degree_conserved", before == after, f"{before} became {after}"),
        check_record(
            "fixpoint",
            unstable is None,
            f"vertex {unstable} is not stable after contraction",
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
    checks = [check_record("all_valid", first_bad is None, first_bad)]
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
    a = _dual_graph_from_params(params, "a")
    b = _dual_graph_from_params(params, "b")
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
    # refuse bad orders, then a bad degree, before any tail work; the y
    # order alone first, so its error wins over the z order's
    p1._check_orders(y_order, 0)
    p1._check_orders(y_order, z_order)
    pairings = {
        "point_zero.point_infinity": _lam_string(
            p1.p1_graph_sum(2, delta, [(p1.point_class_zero(), 0), (p1.point_class_infinity(), 0)])
        ),
        "hyperplane.hyperplane": _lam_string(
            p1.p1_graph_sum(2, delta, [(p1.hyperplane_class(), 0), (p1.hyperplane_class(), 0)])
        ),
    }
    unit_tail = p1.stilde_at_zero(p1.unit_class(), y_order)
    hyper_tail = p1.stilde_at_zero(p1.hyperplane_class(), y_order)
    checks = []
    multiples = {}
    try:
        ratio = p1.irr_ratio_check(y_order)
        multiples = {str(k): _frac_str(v) for k, v in sorted(ratio["lambda_multiples"].items())}
        checks.append(check_record("square_root_ratio", True))
    except IdentityFailed as err:
        checks.append(check_record("square_root_ratio", False, str(err)))
    constant = p1.tree_series_eps(y_order, z_order).coeff(0)
    checks.append(
        check_record(
            "unmarked_constant_term_zero",
            constant.is_zero(),
            "y^0 part of the unmarked series is nonzero",
        )
    )
    inputs = {"y_order": y_order, "z_order": z_order, "delta": delta}
    results = {
        "tail_unit": {f"y^{k}": _lam_string(unit_tail.coeff(k)) for k in range(y_order + 1)},
        "tail_hyperplane": {
            f"y^{k}": _lam_string(hyper_tail.coeff(k)) for k in range(y_order + 1)
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
    values = jfun.i_function(model, q_max, twisted)
    inputs = {"model": _model_echo(model), "q_max": q_max, "twisted": twisted}
    results = {
        "sectors": {str(b): _sector_cell(model, b) for b in range(q_max + 1)},
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
        "beta_max": max(table),
        "sectors": {str(b): _sector_cell(model, b) for b in table},
        "coefficients": _coefficient_table(table),
    }
    checks = [check_record("mu_zero_vanishes", table[0].is_zero(), "mu_0 is nonzero")]
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
    out = jfun.jwc_check(model, epsilon_1, epsilon_2, q_max)
    inputs = {
        "model": _model_echo(model),
        "epsilon_1": str(epsilon_1),
        "epsilon_2": str(epsilon_2),
        "q_max": q_max,
    }
    results = {"gained": out["gained"], "passed": out["passed"]}
    return inputs, results, list(out["checks"])


def _cmd_verify(config, trunc):
    # only verify runs the suite, so the other commands skip its import
    from .criteria import CRITERIA, run_criterion

    checks = [run_criterion(name, body) for name, body in CRITERIA]
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
        checks = [check_record(type(err).__name__, False, str(err))]
    return {"command": command, "inputs": inputs, "results": results, "checks": checks}


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
