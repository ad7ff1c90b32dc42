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
reproduce them exactly.
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
from glsmx.algebra import LAM, RatFun
from glsmx.cli import run
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
         "db3b10b1f20d4b37b6f42214bd85b6aedeb30f6d301472b69269c2ede2d424fa"),
        ((1, 1, 1, 1, 1), 1, 5, GEOMETRIC,
         "6537d41217861a823ac5b0372a464cff78dc4d54ec08d988145ad772a0640a72"),
        ((1, 1, 2, 2), 2, 4, LG,
         "bb940ab49718b2a0743aa9cf1f9c9f236ddf210dd1ed467f023d49d2e439897b"),
        ((1, 1, 2, 2), 2, 4, GEOMETRIC,
         "de7a8b4357cb926633a94ec5a87ba70b0b527a85c8b90b433f8e81b7afb34237"),
        ((1, 1), 2, 2, LG,
         "8e70c74bf733d32fd8c046ff3244f4b9e24098ba89b3966501f7b513c4b71f54"),
        ((1, 1), 2, 2, GEOMETRIC,
         "6ceafd870a509b557f78cd1c9a9b0a30ad61968886f5715382bdafccbe9e1c6f"),
        ((1, 1, 1, 1, 2), 1, 6, LG,
         "87d76e0e1f544aa3c6a5a175e9e6ee2af96038e8889e7a4cbf691c298d3766fa"),
        ((1, 1, 1, 1, 2), 1, 6, GEOMETRIC,
         "356418c0e2c6285a8a84f8ef63eb4c44606abcbbba484902b9e69fa230ca9c76"),
        ((1, 1, 1, 1, 1, 1), 2, 3, LG,
         "b406d1f44929298ebf4cff9581d3dd211f128a9f45d3a5ae36b7416e35a70947"),
        ((1, 1, 1, 1, 1, 1), 2, 3, GEOMETRIC,
         "4878b2fa94eab8d111bb321ded3a4fdcb4c82581fd998d1cb51e5c34efea40f9"),
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
        (QUINTIC_LG, "ebdba49708a9de8bac25d9d5cc5fd5af2c2e3ba1c38870636d6beeb69a307339"),
        (QUINTIC_GEOM, "ccf76cd62317ab555980e45deb33941f22faccb991e53d5f3f52df63c843905d"),
        (MIXED_LG, "2bd88672f10c584a409b883995be16101960d8140fa1d36e8d1d9a3fbdf5dc39"),
        (GEOM_11, "b7e46b5a9cf9db39e2258e0b8e0821a79a07d4aa4007ec56fc7a067c51155dca"),
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
        (3, 1, "e0ee94a690336a806f9cb6ee05f8d28d7cfbc8aad6d3909ca605fe7a2e380503"),
        (3, 2, "6d07f07af008e4e4af2d351aadea9e51ff06432861690272a57a329115c1ce42"),
        (5, 1, "235f9aab7303db74774c5678305fa1dcdb51c580232994860d42d9eb22ea70ff"),
        (5, 2, "0f4b491cae55c5ad43f6a0a7e2af3e5506f9a81b4d804dd2e85b742a6f3792c2"),
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
        "3c5546689b2c00ce9fb2ee8a49f08d5781f687039bcdf515bc5a8559f2f918ef"
    )
    assert _sha(repr(p1.stilde_at_zero(alpha, 4))) == (
        "6984d614dc6579fbb861d5673825cb60533d0e0d1129e28e80f4201d0bfa8dd9"
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
    assert _sha(text) == "f27bef92ddefc9901924d2481e8495975f450e92f7a3212dc70a029180e39181"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("unit", "37fdf9b1e2f9787c25634a647316fb71f55bf1b6b17cf9892b4669e535db4c35"),
        ("hyperplane", "7be4ae0eb60a24d5c2b284476efa38f830f3a35f876160917edab8ae8691d665"),
        ("point_at_infinity", "d5cea49fcfe318a6af1a15f8ffa0ed13ce83e19407757a4fcfc1cb15f26e0bfc"),
        ("mix", "a135c960c33d49155b35be6aa2d50c6fa64175ae814c6a6aec7982783f07219a"),
    ],
)
def test_marked_tail_series_bytes(name, digest, cold_caches):
    alpha = _TAIL_CLASSES[name]()
    text = "\n".join(repr(p1.tree_series_S(alpha, y, z)) for y, z in _tail_orders())
    assert _sha(text) == digest


def test_ratio_check_coefficient_bytes(cold_caches):
    coefficients = p1.irr_ratio_check(8)["coefficients"]
    assert _sha(repr(coefficients)) == (
        "0f9429a707ae091d440bb49912f04a2589e9be5ea02871902fe3c27d4d9e165f"
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
        (1, 1, "7be50e4814819fedb4bdf7073c54c70b96fe8382d899a719fc9ce6cd820e00d2"),
        (1, 2, "328cc427bdf626a283be45f68661f34b90a566349034377492086899d6f8f352"),
        (1, 3, "ddf5472dc33ba417889197c1e20fb72a6a63d1d6844fa134d2d4db3c54fe8065"),
        (2, 1, "ac335a2303293b5638924f8b9b51d29d3809a075243387dd42955430192cf7a8"),
        (2, 2, "6603c289cbb16ce2126e47017a490d86881e4e0752e9f67893fef1901e732854"),
        (2, 3, "bcfa8a27b36e6431534e3f529e947cf412fb979f07d5500533e1f94a4f3e93ec"),
        (3, 1, "a6770cec7c7ea45bd8d2e9351aacc566efe4829c9760699601c2e3fbf19c9cdc"),
        (3, 2, "7b37f3162ef8ed6f6365cf2b05dbe239773afe29bbd17456d950bec76b8fc8dd"),
        (3, 3, "3ebd5b1be387758d9588b626a821a81289a3c748b296e0b0621869b40d080ce2"),
        (4, 1, "2601a01a71da81625aa89d52bb727a2f1c6e9f33d20421e2da0d349c669caf09"),
        (4, 2, "99130bfde7ad45678e63cf9a74fa2416a80ee0969b86f03921598c422e00978d"),
        (4, 3, "75f03ba19602c24531abeff972082c3a33948fdd0b3e1cc1fbfd9eefab98b506"),
        (5, 1, "157eae2e19f2608d1795e5101289beffbea2bcc25f4d2e3556864ef23e9f7803"),
        (5, 2, "e081b8c382057997b4d0bf6987f9e921242994c3465a309300f6a36bca208959"),
    ],
)
def test_graph_sum_bytes_on_lam_dependent_insertions(n, delta, digest):
    assert _sha(repr(p1.p1_graph_sum(n, delta, _seeded_insertions(n, delta)))) == digest
