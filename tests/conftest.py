"""Fixtures shared by the test modules."""

from fractions import Fraction as Frac

import pytest

from glsmx import cli, graphs, jfun, p1series

# the process-wide caches: the jfun coefficient ladders, the p1 vertex
# weights, the rooted-tree tables that the graph sums and the tails share,
# the placement tables of the graph sums, the p1 tail coefficients, marked
# series, the Lagrange root rows and rewritten values per degree and the
# rewritten bases, shared across orders and calls, the parsed models,
# rationals, vertices and edges of the report inputs, and the census's
# levelled structures, vertex profiles and the graph parts that the census
# and the chain search share
_CACHES = (
    cli._glsm_model,
    graphs._read_frac,
    graphs._vertex,
    graphs._edge,
    graphs._levelled_structures,
    graphs._vertex_profiles,
    graphs._shared_vertex,
    graphs._shared_edge,
    jfun._ladder,
    jfun._ladder_plus,
    p1series._vertex_weight,
    p1series._vertex,
    p1series._hanging,
    p1series._branch,
    p1series._placements,
    p1series._tail_terms,
    p1series._marked_basis,
    p1series._root_row,
    p1series._rewritten,
    p1series._rewrite_basis,
)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the caches before the test and again after it, so a
    test that patches a factor hands none of its values to the next one.
    Yields the clearing function, for a second cold start inside a test."""
    _clear_caches()
    yield _clear_caches
    _clear_caches()


def homogeneous_degree(f):
    """Total degree in (lam, z) of a RatFun whose terms all have the same
    one, else None."""
    degrees = {i + j for (i, j) in f.num}
    return degrees.pop() if len(degrees) == 1 else None


def laurent_terms(f):
    """{(lam_exp, z_exp): Frac} of the Laurent polynomial a RatFun is."""
    c = f.den[(0, 0)]
    return {k: Frac(v, c) for k, v in f.num.items()}
