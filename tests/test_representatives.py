"""Golden digests of enumeration and chain output.

Counts alone cannot see a change of representative: the census keeps the
first graph met per isomorphism class, and descending chains list minimal
expansions in the order they are generated.  These digests pin the exact
bytes, so any reordering of candidates shows up here.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as Frac

import pytest

from glsmx import graphs as gr
from glsmx.cli import run
from glsmx.model import LG, GlsmModel

CENSUS_MODEL = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg", "epsilon": "2/5"}


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
    genus, markings, degree, edge_degree = key
    config = {
        "model": CENSUS_MODEL,
        "graphs": {
            "genus": genus,
            "markings": markings,
            "degree": degree,
            "edge_degree": edge_degree,
        },
    }
    assert _sha(json.dumps(run("graphs", config), indent=2)) == digest


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
