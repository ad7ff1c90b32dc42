"""Golden digests of enumeration, chain and chamber output.

Counts alone cannot see a change of representative: the census keeps the
first graph met per isomorphism class, and descending chains list minimal
expansions in the order they are generated.  These digests pin the exact
bytes, so any reordering of candidates shows up here.  The chamber reports
(`ifun`, `mu`, `jwc`, `edge`), the `p1` reports and the fixed-locus graph
sums are pinned the same way, so a cached coefficient that drifted from a
fresh one would change their bytes.  The unstable J-coefficients and edge
factors themselves are pinned by repr over every degree and option the
chamber commands reach, so a change of how they are evaluated must keep
them byte for byte.  The tail series and the ratio-check coefficients are
pinned by repr from cold caches, so a rewrite of the tail recursion must
reproduce them exactly.  repr is the report renderer: it writes each RatFun
as the Laurent sum that the reports print (`algebra.render_ratfun`, every
exponent on its own variable), so a digest here pins the same text as a
report cell would.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as Frac

import pytest

from helpers_p1 import POINT_MODEL
from glsmx import graphs as gr
from glsmx import jfun
from glsmx import p1series as p1
from glsmx.algebra import LAM, RatFun, Z
from glsmx.cli import run
from glsmx.errors import ConfigError
from glsmx.model import GEOMETRIC, LG, GlsmModel

CENSUS_MODEL = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg", "epsilon": "2/5"}
QUINTIC_LG = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg"}
QUINTIC_GEOM = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "geometric"}
MIXED_LG = {"weights": [1, 1, 2, 2], "N": 2, "d": 4, "phase": "lg"}
GEOM_11 = {"weights": [1, 1], "N": 2, "d": 2, "phase": "geometric"}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "key, digest",
    [
        ((0, 1, 1, 1), "60966ad3c35cdfb282b9af81a32ab53aaa4f41c01b39e6c852c7c40f51f58efe"),
        ((1, 1, 1, 2), "a4f9dc8afdb1fe1ac9ff000c6ee000f670415cebf260d66d822dd661830c1cff"),
        ((0, 2, 1, 1), "639315b036027742638a77ddd5c646ed56b7f0ea3f202bec80b74ba4cc29e5b8"),
    ],
)
def test_graphs_report_bytes(key, digest):
    assert _sha(_graphs_report(CENSUS_MODEL, key)) == digest


def _graphs_report(model, key):
    genus, markings, degree, edge_degree = key
    config = {
        "model": model,
        "graphs": {
            "genus": genus,
            "markings": markings,
            "degree": degree,
            "edge_degree": edge_degree,
        },
    }
    return json.dumps(run("graphs", config), indent=2)


# the geometric phase (residue target 0), d = 4 and d = 2, and the infinity
# chamber, where a level-zero vertex may not be a basepoint
@pytest.mark.parametrize(
    "model, key, digest",
    [
        (dict(QUINTIC_GEOM, epsilon="2/5"), (0, 1, 1, 2),
         "359d82e7cd2125ebc787f3c6e2985eb63fa1af00b18e6b65dee2afeb3cb2a712"),
        (dict(QUINTIC_GEOM, epsilon="2/5"), (1, 1, 1, 2),
         "5bdb1c01b7f47d213fa5433435fb1d898b748d3b33d647bad98bf4720dea0128"),
        (dict(QUINTIC_GEOM, epsilon="2/5"), (0, 2, 0, 2),
         "9e16adf06288f6223482074949042621a81ce66223ac8a6f10df742c515c8b64"),
        (dict(MIXED_LG, epsilon="2/7"), (0, 2, 1, 1),
         "6c6692a7460a6100a45f6864a547d49eecab9bc042ac249abe184a143ea1804f"),
        (dict(MIXED_LG, epsilon="2/7"), (1, 1, 1, 2),
         "d65b8d23867c12d348ced15094c82106d6cce70d2feda6a8755f89e1f278469e"),
        (dict(MIXED_LG, epsilon="2/7"), (0, 1, 2, 2),
         "e9e7c047a8a083edee152f5e0fa41677cc93c18228adda06cff4e0fe18052030"),
        (GEOM_11, (0, 2, 1, 1),
         "361da0673e1e1ef19430f54d8eacaed827cb8dd6da3e75a53183537379145c02"),
        (GEOM_11, (1, 1, 1, 2),
         "205e60331297318bfa54b947694ba0867a64993964a0c1f991c1204950280607"),
        (GEOM_11, (0, 0, 2, 2),
         "68461cb836ea1044bbb809d0d1895d5f20e0e78e01f5ea5ae9e1a1e7ed275829"),
    ],
)
def test_graphs_report_bytes_other_phases(model, key, digest):
    assert _sha(_graphs_report(model, key)) == digest


# at epsilon 2/7 a basepoint may have degree up to 3, and its edge must cover
# more than that: at edge degree 3 every degree-3 basepoint is pruned, at 4
# one is kept
@pytest.mark.parametrize(
    "key, digest",
    [
        ((0, 0, 3, 3), "6fa1be8b7f2301990a8ec89077365d121a88533625fe31e1b069455675dd84cd"),
        ((0, 1, 3, 3), "9159ff0539378cc582543565aed10e365bf5d7b73734b10abf72b6e7538fc931"),
        ((0, 2, 3, 2), "59e3de5c4e171b950dff500c00eceda420a229d10d9ccd86699a62c29d96c20f"),
        ((0, 0, 3, 4), "95336241a5e46701fe39e5ad97592c940d74f76dbcd9bb3da1cf9f8c4cfd9417"),
        ((0, 1, 3, 4), "ede1055cc1221f7fee93ab9323052084da88032da7ebff9be88070e14e486870"),
        ((0, 2, 3, 3), "4e538bfcc74a0c331255a58af61dd24628957cd15c7ab5a52df0f4c11f5161f8"),
    ],
)
def test_graphs_report_bytes_deep_basepoints(key, digest):
    assert _sha(_graphs_report(dict(QUINTIC_LG, epsilon="2/7"), key)) == digest


def test_descending_chain_bytes():
    # a partial-order criterion top whose distinguished vertex has genus 1,
    # so both the loop and the split expansions occur
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top = gr.DualGraph(
        (
            gr.Vertex(0, 2, ((1, Frac(0)), (2, Frac(3, 5)))),
            gr.Vertex(1, 1, ((3, Frac(2, 5)),)),
        ),
        (gr.Edge((0, 1), (Frac(1, 5), Frac(4, 5))),),
        1,
    )
    chains = gr.descending_chains(model, top, 16)
    assert len(chains) == 190
    text = json.dumps([[gr.graph_to_obj(g) for g in chain] for chain in chains])
    assert _sha(text) == "49c86015672cae3c48f316525ffeba196704ecdd0edb34f3696c8dd718657838"


def test_descending_chain_bytes_on_two_genus_one_vertices():
    # the benchmark's first chain top at edge multiplicity 2/5 and leg 1/5:
    # both vertices have genus 1 and degree 1, the largest chain search
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top = gr.DualGraph(
        (
            gr.Vertex(1, 1, ((1, Frac(1, 5)), (2, Frac(4, 5)))),
            gr.Vertex(1, 1, ((3, Frac(3, 5)),)),
        ),
        (gr.Edge((0, 1), (Frac(2, 5), Frac(3, 5))),),
        0,
    )
    chains = gr.descending_chains(model, top, 16)
    assert len(chains) == 2214
    assert _sha(repr(chains)) == (
        "137ec336a47fa0cab719e1d3ebedaa51a1bd6a2a5bb8b83595f838e922b8dcfc"
    )


def test_descending_chain_bytes_on_a_degree_two_centre():
    # the benchmark's second chain top at edge multiplicity 0 and leg 4/5:
    # a genus-0 degree-2 centre splits into halves of equal genus and
    # degree, so a split and its complement (halves exchanged) both occur
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top = gr.DualGraph(
        (
            gr.Vertex(0, 2, ((1, Frac(4, 5)), (2, Frac(0)))),
            gr.Vertex(1, 1, ((3, Frac(1, 5)),)),
        ),
        (gr.Edge((0, 1), (Frac(0), Frac(0))),),
        0,
    )
    chains = gr.descending_chains(model, top, 16)
    assert len(chains) == 148
    assert _sha(repr(chains)) == (
        "6880c05662b05bd70467184f3f04d26f7a1c224c280635449a07fc0b20b9558a"
    )


def _tail_chain_degrees():
    # the tail degrees of the contraction-corpus criterion, drawn as it
    # draws them (its epsilon draw is skipped here)
    rng = random.Random(48117)
    out = []
    for _ in range(50):
        out.append([rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
        rng.randrange(5)
    return out


# the contraction-corpus epsilons, with 2/7 for 1/4: 1/4 is a wall, where
# the contract report only reads OnWall
@pytest.mark.parametrize(
    "epsilon, basepoints, digest",
    [
        (None, 0, "bd378f13dfa6ac32bf756981688febde7f1922043645a75a5d9cf97a04880c8c"),
        ("2/7", 50, "bb63f9a7187bf11da4391e41ebbd8dfad72a0e3085ad2c964b19145004c313d0"),
        ("2/5", 35, "4e457a01d57730d7e0b515728cafa49fdbabccaa7f5a8b0f9baf771fb1c3ec2d"),
        ("2/3", 18, "08ba69a9af6ff81f1a29cae8c48b527f055147f5ec001a98ea6f41d8ff80d321"),
        ("3/2", 0, "46f16707a597ac91ab76119f69747849498abd3a674d17a2d9064005abe12240"),
    ],
)
def test_contract_report_bytes_on_the_tail_chains(epsilon, basepoints, digest):
    from glsmx.criteria import _chain_graph

    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    reports = []
    for degrees in _tail_chain_degrees():
        block = {"graph": gr.graph_to_obj(_chain_graph(model, degrees))}
        if epsilon is not None:
            block["epsilon"] = epsilon
        reports.append(run("contract", {"model": QUINTIC_LG, "contract": block}))
    assert sum(len(r["results"]["basepoints"]) for r in reports) == basepoints
    assert _sha(json.dumps(reports, indent=2)) == digest


def _mixed_scale_pair():
    # a has a 1/10 loop at its distinguished vertex, so scale 10; merging
    # both vertices over both edges gives b, whose one leg has scale 5
    a = gr.DualGraph(
        (gr.Vertex(0, 1), gr.Vertex(1, 1, ((1, Frac(1, 5)),))),
        (
            gr.Edge((0, 1), (Frac(0), Frac(0))),
            gr.Edge((0, 0), (Frac(1, 10), Frac(9, 10))),
        ),
        0,
    )
    b = gr.DualGraph((gr.Vertex(2, 2, ((1, Frac(1, 5)),)),), (), 0)
    return a, b


def test_graph_leq_table_bytes():
    # every pair of a chain of the genus-one figure top up to three steps
    # apart (so |V(a)| - |V(b)| runs over 0..3), both ways; the chain ends
    # of neighbouring chains, both ways; and the mixed-scale pair
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top = gr.DualGraph(
        (
            gr.Vertex(0, 2, ((1, Frac(0)), (2, Frac(3, 5)))),
            gr.Vertex(1, 1, ((3, Frac(2, 5)),)),
        ),
        (gr.Edge((0, 1), (Frac(1, 5), Frac(4, 5))),),
        1,
    )
    chains = gr.descending_chains(model, top, 16)
    seen = set()
    steps = []
    for chain in chains:
        for i, above in enumerate(chain):
            for below in chain[i + 1 : i + 4]:
                if (above, below) in seen:
                    continue
                seen.add((above, below))
                steps.append([gr.graph_leq(model, below, above), gr.graph_leq(model, above, below)])
    ends = [chain[-1] for chain in chains]
    across = [[gr.graph_leq(model, p, q), gr.graph_leq(model, q, p)] for p, q in zip(ends, ends[1:])]
    a, b = _mixed_scale_pair()
    mixed = [gr.graph_leq(model, a, b), gr.graph_leq(model, b, a)]
    assert (len(steps), sum(s[0] for s in steps), sum(s[1] for s in steps)) == (358, 358, 0)
    assert (len(across), sum(s[0] for s in across), sum(s[1] for s in across)) == (189, 1, 95)
    assert mixed == [True, False]
    text = json.dumps({"steps": steps, "across": across, "mixed": mixed})
    assert _sha(text) == "76c2b85b6a9bde7cd4ca2539bab7a39236ad93ba6ef32a997a18817c2523b874"


# edge degree 4 and 3 at epsilon 2/7: (0, 1, 3, 4) is 578 trees with four
# edges, (1, 1, 2, 3) is 399 graphs, 120 of them with a cycle; repr covers
# each representative with its tie count
@pytest.mark.parametrize(
    "key, count, digest",
    [
        ((0, 1, 3, 4), 578, "070a1791e8b390a27ef40d8af7dbfa4cd155d92fb56530197a24570e77e13050"),
        ((1, 1, 2, 3), 399, "c15e9b4549e771f674e685bf61d74393beba527c2e0cd88e13c9798e3f3a841a"),
    ],
)
def test_deep_census_bytes(key, count, digest):
    census = gr._census(GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 7)), *key)
    assert len(census) == count
    assert _sha(repr(census)) == digest


# the point model's census at genus 0 and degree 0 is the p1 fixed-locus
# trees; one digest covers n <= 5 markings at one covering degree
@pytest.mark.parametrize(
    "delta, digest",
    [
        (0, "ec41e550377870e004deffc76bc911de55bb1247552e54c0f30c81a0d89c1bbb"),
        (1, "aef7787d4fab0174cce23a52f587cae0b22d1fbda5d65d3aa234dd2ed1a46d65"),
        (2, "4133956a6b64d56151b349c24fcd7fa84b406713c083ca139c388ff5873fea14"),
        (3, "fd2ee639102d1785db7908bce28678dcb62aa109d560377584aca5753981c6a1"),
    ],
)
def test_point_model_census_bytes(delta, digest):
    text = "\n".join(
        repr([g for g, _ in gr._census(POINT_MODEL, 0, n, 0, delta)]) for n in range(6)
    )
    assert _sha(text) == digest


# eps = 2/17 is the geometric-quintic chamber with 8 unstable degrees
@pytest.mark.parametrize(
    "command, model, block, digest",
    [
        ("ifun", QUINTIC_GEOM, {"q_max": 8, "twisted": True},
         "c124282aa2077e3464fda083973428444e4f746c2caeca6b6686789572061ac3"),
        ("ifun", MIXED_LG, {"q_max": 8, "twisted": True},
         "d09c559b5f0a488cf648081f8cfb51b18c00bba4bb178d8e41e8e92c9b73a192"),
        ("mu", QUINTIC_GEOM, {"epsilon": "2/17"},
         "17a96981eb3e57884b47dcdde448c18cb17ffddcbee8c075ff9c3b8c5cbb0577"),
        ("mu", QUINTIC_GEOM, {"epsilon": "2/17", "twisted": True},
         "b25a9e6f9c7b813bf3362b19f5f0dd1cd446eab5b1de2c0870b53dda80f31ffd"),
        ("jwc", QUINTIC_LG, {"epsilon_1": "2/7", "epsilon_2": "2/3", "q_max": 6},
         "36bd1f1721f84f4342318f82b04b050dd828c4ac5e2322896a59973088e0f0c0"),
        ("jwc", QUINTIC_GEOM, {"epsilon_1": "2/7", "epsilon_2": "2/3", "q_max": 6},
         "ac922199a7d1971b8d0e6f06b984eead0736c9ddf3dbe0e9fe8118167c720402"),
        ("edge", MIXED_LG,
         {"delta": 3, "beta": 2, "epsilon": "2/5", "twisted": True, "unstable_vertex": "inf"},
         "120c6633dd78ec6c5ff925b6f6460629e9cf01cacc59bc663e442b9c2664875f"),
        ("edge", QUINTIC_GEOM,
         {"delta": 3, "beta": 2, "epsilon": "2/5", "twisted": True, "unstable_vertex": "0"},
         "dbdfebe8c4d82c8762ae3883845b9af914406fe7c9b78bc6def4dbc55e612398"),
    ],
)
def test_chamber_report_bytes(command, model, block, digest):
    report = run(command, {"model": model, command: block})
    assert _sha(json.dumps(report, indent=2)) == digest


# every (weights, N, d) the chamber workload and the genus-zero anchors use,
# in both phases; one digest covers beta <= Q_CAP and both twists
@pytest.mark.parametrize(
    "weights, n_aux, d, phase, digest",
    [
        ((1, 1, 1, 1, 1), 1, 5, LG,
         "a1d6c4d55ac52b475c73266dc30a510abb2cd2fbb68cf6396f0f601bb8cfb12c"),
        ((1, 1, 1, 1, 1), 1, 5, GEOMETRIC,
         "1c4494dc39286ac9199a788ecdd9fc15daec871eae418e94999c0dd6f20c831e"),
        ((1, 1, 2, 2), 2, 4, LG,
         "6023cf4f7cff394d66a792bf5d01b5bb64d9838129fc514d5ec7fc9a4d48e65d"),
        ((1, 1, 2, 2), 2, 4, GEOMETRIC,
         "435ec1273674d5341a503f38399dcfa6fe344c2f6ae82cff2e80e82eb6e64ff2"),
        ((1, 1), 2, 2, LG,
         "ff5b2906a9c635aebe63ee12a4d912e267eed0e9fcd55b35519356422ed241ab"),
        ((1, 1), 2, 2, GEOMETRIC,
         "6ceafd870a509b557f78cd1c9a9b0a30ad61968886f5715382bdafccbe9e1c6f"),
        ((1, 1, 1, 1, 2), 1, 6, LG,
         "32fe90472e12cfb06e002465a30f5b58b15ee9388de10fa259b4c681f93dc568"),
        ((1, 1, 1, 1, 2), 1, 6, GEOMETRIC,
         "b8d94c0beb782c5bd2007f263fc158a3801bd2faadafc136bbe617fc4031f425"),
        ((1, 1, 1, 1, 1, 1), 2, 3, LG,
         "d6e5aa2bfe5badbc2645fb1b1c9ed8dfcac9de8bed6b3ec0da163aa95c91c9d7"),
        ((1, 1, 1, 1, 1, 1), 2, 3, GEOMETRIC,
         "a776e740dff7b5a525dbf4c8520c2c4d9a6ff2804a4e1f8d9434cf3ace9518c9"),
    ],
)
def test_unstable_coefficient_bytes(weights, n_aux, d, phase, digest):
    model = GlsmModel(weights, n_aux, d, phase)
    text = "\n".join(
        repr(jfun.unstable_J_coefficient(model, beta, None, twisted))
        for beta in range(jfun.Q_CAP + 1)
        for twisted in (False, True)
    )
    assert _sha(text) == digest


# the four chamber models; one digest covers delta <= 5, beta < delta, both
# twists and every unstable-vertex option
@pytest.mark.parametrize(
    "model, digest",
    [
        (QUINTIC_LG, "b7e05c647c19eee162b5aa3726979e0b4bf773e09d3bc6f548e1b1c3c7ed057a"),
        (QUINTIC_GEOM, "195261738c8f7f6e80abcc5c0fe1183560c09c2e516e97ed2a0016525448356d"),
        (MIXED_LG, "138613e06f1be0140ddbea07cb2d8424c06c0a368654d9d7fd4a12468cd4c96e"),
        (GEOM_11, "f411ac2fbc2a2a6300ef315e82d60b6cce07ebaaca808606679511292b37beeb"),
    ],
)
def test_edge_factor_bytes(model, digest):
    model = GlsmModel(model["weights"], model["N"], model["d"], model["phase"])
    text = "\n".join(
        repr(jfun.edge_contribution(model, delta, beta, None, twisted, vertex))
        for delta in range(1, 6)
        for beta in range(delta)
        for twisted in (False, True)
        for vertex in (None, gr.LEVEL_ZERO, gr.LEVEL_INF)
    )
    assert _sha(text) == digest


@pytest.mark.parametrize(
    "y_order, delta, digest",
    [
        (3, 1, "aa5b461b40988d95992bba3e5f4afb6d9d69c9adbc4cfc5b78c2105ee092fc15"),
        (3, 2, "2013becaf0399366547a66ef9336800a6f846299daa0963cdb79940f5fb72edc"),
        (5, 1, "1fa063bae2b7cd615484a4934c30583de26579bd46c5d3d8e5eae10d2c694c12"),
        (5, 2, "b8469fa1df0b663d2fdbcf9f5d52cde6d22d824211a2cb11c920b627b7e1311f"),
    ],
)
def test_p1_report_bytes(y_order, delta, digest):
    report = run("p1", {"p1": {"y_order": y_order, "delta": delta}})
    assert _sha(json.dumps(report, indent=2)) == digest


def _lam_dependent_class():
    # (2 - 3 lam) + (1/2 + 5/lam) H: restrictions with several lam powers
    return p1.unit_class() * (RatFun(2) - RatFun(3) * LAM) + p1.hyperplane_class() * (
        RatFun(Frac(1, 2)) + RatFun(5) / LAM
    )


def test_tail_series_bytes_on_a_lam_dependent_class():
    alpha = _lam_dependent_class()
    assert _sha(repr(p1.tree_series_S(alpha, 4, 5))) == (
        "ad32c4727e213ff51d8540f2318af610765ccde81e4cb908083088f6105b764f"
    )
    assert _sha(repr(p1.stilde_at_zero(alpha, 4))) == (
        "9ef377c496c3c46dcc2a182db646faa13b94411f34dd76a40c353c34e9bd6347"
    )


# 2 - lam + (3 + 1/lam) H, the MIX class of test_p1series
_TAIL_CLASSES = {
    "unit": p1.unit_class,
    "hyperplane": p1.hyperplane_class,
    "point_at_infinity": p1.point_class_infinity,
    "mix": lambda: p1.unit_class() * (RatFun(2) - LAM)
    + p1.hyperplane_class() * (RatFun(3) + RatFun(1) / LAM),
}


def _tail_orders():
    return [(y, z) for y in range(9) for z in sorted({0, y})]


def test_unmarked_tail_series_bytes(cold_caches):
    text = "\n".join(repr(p1.tree_series_eps(y, z)) for y, z in _tail_orders())
    assert _sha(text) == "2a9167cf61da883d313a372e60843a211c38f0dfdf32f4f36a80f1c92baa29b4"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("unit", "ca232e8051a472b2eb3ff6064ad0953487460bdf8ef51d1eb1fec0291c77d066"),
        ("hyperplane", "5b0aec8a93ff96942ed943bdb0772b9a74ee16d380dfe1c5b0ffb3a413f6df11"),
        ("point_at_infinity", "e577f418855caee27fdc40d1434578046c5bc45b65e97143e5b50a125a3e2c1e"),
        ("mix", "37e7c42a41ad3194c3d9c7e1b5e856380bfbd79fe2dd619982ddd019752038b1"),
    ],
)
def test_marked_tail_series_bytes(name, digest, cold_caches):
    alpha = _TAIL_CLASSES[name]()
    text = "\n".join(repr(p1.tree_series_S(alpha, y, z)) for y, z in _tail_orders())
    assert _sha(text) == digest


def test_ratio_check_coefficient_bytes(cold_caches):
    coefficients = p1.irr_ratio_check(8)["coefficients"]
    assert _sha(repr(coefficients)) == (
        "c9927e11e5e397a299d3f5222d35d2960e15af4a490d7c532630ec4d7ca1ba49"
    )


def _seeded_tail_class(rng, kind):
    # "lam": lam powers -2..2 over small denominators; "rational": no lam;
    # "z": lam powers times z^0 to z^3; "zero": the zero class
    def coeff():
        terms = {}
        for _ in range(0 if kind == "zero" else rng.randint(1, 3)):
            lam = 0 if kind == "rational" else rng.randint(-2, 2)
            terms[lam, rng.randint(0, 3) if kind == "z" else 0] = Frac(
                rng.randint(-6, 6), rng.randint(1, 5)
            )
        return RatFun(terms)

    return p1.unit_class() * coeff() + p1.hyperplane_class() * coeff()


def _tail_corpus_text():
    rng = random.Random(40)
    kinds = ("lam", "rational", "z", "zero")
    classes = [_seeded_tail_class(rng, kind) for kind in kinds for _ in range(16)]
    text = [
        repr(p1.tree_series_S(alpha, y, z)) for alpha in classes for y in range(9) for z in range(7)
    ]
    for alpha in (p1.unit_class() * (RatFun(1) / Z), p1.hyperplane_class() * (Z + RatFun(1) / Z)):
        with pytest.raises(ConfigError) as err:
            p1.tree_series_S(alpha, 2, 1)
        text.append(f"ConfigError: {err.value}")
    return "\n".join(text)


def test_marked_tail_series_bytes_on_a_seeded_corpus(cold_caches):
    # 64 seeded classes, 16 of each kind, at every y order up to 8 and z
    # order up to 6, a z in the class cut at the z order, and the refusal
    # of negative z powers
    assert _sha(_tail_corpus_text()) == (
        "eaa0b0d0082a899ccf467362352bf1d4c09cb371a80ecc2e9836d59470dbf067"
    )


def _seeded_class(rng):
    # unit and hyperplane coefficients with lam powers -1..2, so the
    # restrictions at both fixed points carry several lam powers
    def coeff():
        return sum(
            (RatFun(Frac(rng.randint(-5, 5), rng.randint(1, 4))) * LAM ** e for e in range(-1, 3)),
            RatFun(0),
        )

    return p1.unit_class() * coeff() + p1.hyperplane_class() * coeff()


def _seeded_insertions(n, delta):
    # one marking carries a cotangent power high enough that the sum
    # reaches the dimension 2 delta + n - 2 and is nonzero
    rng = random.Random(1000 * n + delta)
    insertions = [(_seeded_class(rng), 0) for _ in range(n)]
    if n:
        i = rng.randrange(n)
        insertions[i] = (insertions[i][0], rng.randint(max(1, 2 * delta - 2), 2 * delta))
    return insertions


# unmarked covers of degree above one integrate to zero
_ZERO_SUM = "c1e515f7b8fdff549e0940c65a15ff9b6e6deb1bb02736c2c6542f6b37505470"


@pytest.mark.parametrize(
    "n, delta, digest",
    [
        (0, 1, "a82f00d5c15d880b65080a4e238ed924d89da2a9c42a5e48962d39686c576fd5"),
        (0, 2, _ZERO_SUM),
        (0, 3, _ZERO_SUM),
        (1, 1, "e33cadd4277b1c389e24030d4a4a2437c5a5fb0efb6b022b5eb6037741354913"),
        (1, 2, "bccc753439d64235fe64169ec032cdb40ba58491938fde4a604dd00c4006ff54"),
        (1, 3, "39fee46bae1d6076e88728aa91f12dfb170f0974918f57f50f6522a14d6e3bbe"),
        (2, 1, "00f9f8bf66d008da3bdd36306586f102b66ce286bf67fea7832c9593986c9203"),
        (2, 2, "050fd48d03c8b9a89215d520560c9ac38af2c2964af840976498e7c4aa5d2772"),
        (2, 3, "cdfe583215db6ea7ab0f343e536f867ba5d1ea41580c82fb75c836e4ffcf5793"),
        (3, 1, "6a66df83a544a4936776b422a2dd8932f89c86ee43390669a42241b1017ec63f"),
        (3, 2, "b6246ecdb7830b3293d887e645cc95a397fdbb1b6edf7980dba8d9d223e985cd"),
        (3, 3, "b3648994b27ac9addbc2bcd8028f4b9817df058fab8cb213a2f0f4eb4e199bdf"),
        (4, 1, "5a02df61057150aa544d862402bd145b07fb5ad285eea2d52e54c03f8b3fe95b"),
        (4, 2, "8d8b1e8e15597374cd1d7e3c48abe03b51c44e23e22155c5ad8f814a7fb86483"),
        (4, 3, "82b4c02c07c882b97945ef66c40f552c2c99e6ae7767c17f53b39b5e365b6097"),
        (5, 1, "5e2bfbe5614ff8100172ab6e664bdfa0bd1ae7bbc1ecb2fefdf94bd6f54a8fe2"),
        (5, 2, "941ac252d9dc67b802a232fd95ed096d3e5688b8b45ac8cdcd45d30f1fdf8221"),
    ],
)
def test_graph_sum_bytes_on_lam_dependent_insertions(n, delta, digest):
    assert _sha(repr(p1.p1_graph_sum(n, delta, _seeded_insertions(n, delta)))) == digest
