"""Correctness oracles, one per op kind, independent of the code being timed.

Each check reads the program's output and compares it with something the
benchmark computes on its own: the frozen census counts, closed forms
evaluated in `exact`, automorphism counts by brute force over vertex
permutations, relations between several results, and digests of the
results recorded from an earlier commit.  The chain check also asks
`graph_leq` to certify each step, as the partial-order criterion does; it
runs after the timed loop.  A failed check marks its op as failed; it never
stops the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction as F

import exact
import plans

LAM0 = F(7, 3)
LAM1 = F(-5, 2)
Z0 = F(2, 5)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    def __init__(self, plan, digests, corrupt=()):
        self.plan = plan
        self.digests = dict(digests)
        self.corrupt = set(corrupt)
        self.census = dict(plans.CENSUS)
        if "census_count" in self.corrupt:
            self.census[(0, 2, 0, 1)] += 1
        if "digest" in self.corrupt:
            for rid in sorted(self.digests):
                if any(r.rid == rid for r in plan.requests):
                    self.digests[rid] = "0" * 64
                    break
        self.failures = {}
        self.seen_digests = {}
        self.sum_values = {}
        self.tree_values = {}
        self.steps = []  # (rid, above, below) pairs for graph_leq
        self._corrupted_once = set()

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, rid, message):
        self.failures.setdefault(rid, []).append(message)

    def _once(self, kind):
        """True the first time a corruption of this kind is applied."""
        if kind in self.corrupt and kind not in self._corrupted_once:
            self._corrupted_once.add(kind)
            return True
        return False

    def _digest(self, req, text):
        got = digest(text)
        self.seen_digests[req.rid] = got
        want = self.digests.get(req.rid)
        if want is not None and want != got:
            self.fail(req.rid, "results differ from the recorded digest")

    # -- entry points ----------------------------------------------------------

    def check(self, req, value, error):
        """Immediate checks; they never call into glsmx."""
        if error is not None:
            self.fail(req.rid, f"raised {error}")
            return
        if req.is_report():
            report, _ = value
            for c in report.get("checks", []):
                if c.get("status") != "pass":
                    self.fail(req.rid, f"check {c.get('name')} failed: {c.get('first_failure')}")
            self._digest(req, json.dumps(report.get("results"), indent=2, sort_keys=False))
        getattr(self, "_check_" + req.kind)(req, value)

    def finish(self, graphs_module, model):
        """Checks that need every result or that call graph_leq."""
        for n, (rid, above, below) in enumerate(self.steps):
            down = graphs_module.graph_leq(model, below, above)
            up = graphs_module.graph_leq(model, above, below)
            if n == 0 and self._once("chain_step"):
                up = True
            if not down or up:
                self.fail(rid, "a chain step is not certified in exactly one direction")
        for rel in self.plan.extra.get("relations", ()):
            self._check_relation(rel)
        self._check_linearity()

    # -- census ------------------------------------------------------------------

    def _check_graphs(self, req, value):
        report, _ = value
        p = req.params
        key = (p["genus"], p["markings"], p["degree"], p["edge_degree"])
        res = report["results"]
        if res.get("count") != self.census[key] or len(res.get("graphs", ())) != self.census[key]:
            self.fail(req.rid, f"count {res.get('count')} vs frozen {self.census[key]}")
            return
        for obj in res["graphs"]:
            problem = loc_graph_problem(obj)
            if problem:
                self.fail(req.rid, problem)
                return

    def _check_aut(self, req, value):
        report, _ = value
        res = report["results"]
        graph = report["inputs"]["graph"]
        aut = brute_automorphisms(graph)
        if self._once("aut_order"):
            aut += 1
        if res.get("automorphism_order") != aut:
            self.fail(req.rid, f"automorphism order {res.get('automorphism_order')} vs {aut}")
        factor = F(aut)
        for vi, ei, side in degree_half_edges(graph):
            factor /= exact.isotropy(5, F(graph["edges"][ei]["mults"][side]))
        if res.get("degree_factor") != str(factor):
            self.fail(req.rid, f"degree factor {res.get('degree_factor')} vs {factor}")

    def _check_order(self, req, value):
        report, _ = value
        res = report["results"]
        same = req.params["relation"] == "relabel"
        want = {"a_below_b": True, "b_below_a": same, "isomorphic": same}
        if res != want:
            self.fail(req.rid, f"order {res} vs {want}")

    def _check_contract(self, req, value):
        report, _ = value
        res = report["results"]
        eps = req.params["epsilon"]
        eps = None if eps is None else F(eps)
        graph = res["graph"]
        before = sum(req.params["degrees"])
        after = sum(v["degree"] for v in graph["vertices"]) + sum(
            b["order"] for b in res["basepoints"]
        )
        if before != after or res.get("degree_before") != before:
            self.fail(req.rid, f"degree {before} became {after}")
        hosted = {}
        for b in res["basepoints"]:
            hosted.setdefault(b["host"], []).append(b["order"])
        for vi, v in enumerate(graph["vertices"]):
            orders = hosted.get(vi, [])
            valence = len(v["legs"]) + sum(
                (e["ends"][0] == vi) + (e["ends"][1] == vi) for e in graph["edges"]
            )
            if not component_stable(v["genus"], v["degree"] + sum(orders), valence, eps, orders):
                self.fail(req.rid, f"vertex {vi} unstable after contraction")

    def _check_descending_chains(self, req, chains):
        rid = req.rid
        if not chains:
            self.fail(rid, "no chain found")
            return
        top = chains[0][0]
        vertices, (ends, mults), bullet = plans.chain_top(req.params)
        built = [(g, b, tuple(legs)) for g, b, legs in vertices]
        if ([(v.genus, v.degree, tuple(v.legs)) for v in top.vertices] != built
                or [(e.ends, e.mults) for e in top.edges] != [(ends, mults)]
                or top.v_bullet != bullet):
            self.fail(rid, "the first chain does not start at the requested top")
            return
        top_edges = len(top.edges)
        genus = dual_total_genus(top)
        degree = sum(v.degree for v in top.vertices)
        checked = set()
        steps = set()
        for chain in chains:
            if chain[0] is not top and dual_text(chain[0]) != dual_text(top):
                self.fail(rid, "a chain does not start at the top graph")
                return
            if len(chain) >= plans.CHAIN_CAP:
                self.fail(rid, "a chain reaches the length cap")
                return
            for i, g in enumerate(chain):
                if len(g.edges) != top_edges + i:
                    self.fail(rid, "a descent step does not add exactly one edge")
                    return
                if id(g) in checked:
                    continue
                checked.add(id(g))
                if dual_total_genus(g) != genus or sum(v.degree for v in g.vertices) != degree:
                    self.fail(rid, "a chain entry changes total genus or degree")
                    return
                if dual_graph_problem(g):
                    self.fail(rid, f"invalid chain entry: {dual_graph_problem(g)}")
                    return
            for above, below in zip(chain, chain[1:]):
                if (id(above), id(below)) not in steps:
                    steps.add((id(above), id(below)))
                    self.steps.append((rid, above, below))
        text = "\n".join(sorted("|".join(dual_text(g) for g in c) for c in chains))
        self._digest(req, text)

    # -- series ------------------------------------------------------------------

    def _check_p1(self, req, value):
        report, _ = value
        res = report["results"]
        y = req.params["y_order"]
        unit, hyper = {}, {}
        for k in range(y + 1):
            lo = exact.binom(F(-1, 4), k) * 4**k
            hi = exact.binom(F(1, 4), k) * 4**k
            unit[f"y^{k}"] = exact.lam_monomial(lo, -2 * k)
            hyper[f"y^{k}"] = exact.lam_monomial((lo + hi) / 2, 1 - 2 * k)
        if self._once("p1_tail"):
            unit["y^1"] = exact.lam_monomial(F(-2), -2)
        ratio = exact.root_ratio_multiples(y)
        multiples = {str(k): str(ratio[k]) for k in range(1, y + 1)}
        want = {
            "tail_unit": unit,
            "tail_hyperplane": hyper,
            "ratio_lambda_multiples": multiples,
            "pairings": {"point_zero.point_infinity": "1", "hyperplane.hyperplane": "1"},
        }
        for part, expected in want.items():
            if res.get(part) != expected:
                self.fail(req.rid, f"{part} differs from the closed form")

    def _check_stilde_at_zero(self, req, series):
        y = req.params["y"]
        c0, c1 = (poly_at(part, LAM0) for part in req.params["alpha"])
        lo = exact.disc_power(F(-1, 4), y)
        hi = exact.disc_power(F(1, 4), y)
        if series.order != y:
            self.fail(req.rid, f"series order {series.order} vs {y}")
        for k in range(y + 1):
            scale = LAM0 ** (-2 * k)
            want = (c0 * lo[k] + c1 * LAM0 / 2 * (lo[k] + hi[k])) * scale
            coeff = series.coeffs.get(k)
            got = F(0) if coeff is None else exact.eval_ratfun(coeff, LAM0)
            if got != want:
                self.fail(req.rid, f"y^{k} coefficient differs from the closed form")
                return
        self._digest(req, series_text(series))

    def _check_tree_series_S(self, req, tree):
        y, z = req.params["y"], req.params["z"]
        c0, c1 = (poly_at(part, LAM0) for part in req.params["alpha"])
        series = tree.series
        values = []
        for k in range(y + 1):
            coeff = series.coeffs.get(k)
            values.append(F(0) if coeff is None else exact.eval_ratfun(coeff, LAM0, Z0))
        if values[0] != c0 + c1 * LAM0 or tree.z_order != z or series.order != y:
            self.fail(req.rid, "constant term is not the restriction at the zero point")
        self.tree_values[req.rid] = (req.params["alpha"], y, z, values)
        self._digest(req, series_text(series) + f"|z={tree.z_order}")

    def _check_p1_graph_sum(self, req, value):
        self.sum_values[req.rid] = (exact.eval_ratfun(value, LAM0), exact.eval_ratfun(value, LAM1))
        self._digest(req, exact.canon_ratfun(value))

    def _check_relation(self, rel):
        missing = [t for t in rel["terms"] if t not in self.sum_values]
        if missing:
            return  # the missing term already failed on its own
        for slot in (0, 1):
            lhs = self.sum_values[rel["lhs"]][slot]
            rhs = sum((F(c) * self.sum_values[t][slot] for c, t in rel["rhs"]), F(0))
            if self._once("relation"):
                rhs += 1
            if lhs != rhs:
                for t in sorted(rel["terms"]):
                    self.fail(t, f"{rel['kind']} relation fails at n={rel['n']} delta={rel['delta']}")
                return

    def _check_linearity(self):
        by_order = {}
        for rid, (alpha, y, z, values) in self.tree_values.items():
            by_order.setdefault((y, z), {})[plans.class_text(alpha)] = (rid, alpha, values)
        for (y, z), entries in by_order.items():
            unit = entries.get(plans.class_text(plans.UNIT))
            hyper = entries.get(plans.class_text(plans.HYPER))
            if unit is None or hyper is None:
                continue
            for rid, alpha, values in entries.values():
                c0, c1 = (poly_at(part, LAM0) for part in alpha)
                want = [c0 * u + c1 * h for u, h in zip(unit[2], hyper[2])]
                if values != want:
                    self.fail(rid, "tail series is not linear in the insertion")

    # -- chambers ----------------------------------------------------------------

    def _model(self, req):
        m = plans.model_config(req.params["model"])
        return m["weights"], m["N"], m["d"], m["phase"]

    def _table_matches(self, req, table, want):
        got = {}
        for cell, text in table.items():
            try:
                v = exact.eval_lam_string(text, LAM0)
            except ValueError as err:
                self.fail(req.rid, str(err))
                return
            if v:
                got[cell] = v
        want = {c: v for c, v in want.items() if v}
        if got != want:
            bad = sorted(set(got) ^ set(want) | {c for c in got if c in want and got[c] != want[c]})
            self.fail(req.rid, f"coefficient cells differ from the closed form: {bad[:3]}")

    def _check_ifun(self, req, value):
        report, _ = value
        w, n_aux, d, phase = self._model(req)
        q, twisted = req.params["q_max"], req.params["twisted"]
        want = {}
        for beta in range(q + 1):
            coeff = exact.closed_coefficient(w, n_aux, d, phase, beta, twisted, LAM0)
            want.update(exact.hz_cells(beta, coeff))
        if self._once("ifun_cell"):
            cell = sorted(want)[0]
            want[cell] += 1
        self._table_matches(req, report["results"]["coefficients"], want)
        sectors = {str(b): str(exact.j_sector(d, phase, b)) for b in range(q + 1)}
        if report["results"]["sectors"] != sectors:
            self.fail(req.rid, "sectors differ")

    def _check_mu(self, req, value):
        report, _ = value
        w, n_aux, d, phase = self._model(req)
        eps, twisted = F(req.params["epsilon"]), req.params["twisted"]
        beta_max = int(1 / eps)
        res = report["results"]
        want = {}
        for beta in range(beta_max + 1):
            coeff = exact.closed_coefficient(w, n_aux, d, phase, beta, twisted, LAM0)
            cells = exact.hz_cells(beta, coeff, keep=lambda e: e >= 0)
            if beta == 0:
                cells["0,1,0"] = cells.get("0,1,0", F(0)) - 1
            want.update(cells)
        self._table_matches(req, res["coefficients"], want)
        sectors = {str(b): str(exact.j_sector(d, phase, b)) for b in range(beta_max + 1)}
        if res["beta_max"] != beta_max or res["sectors"] != sectors:
            self.fail(req.rid, "beta_max or sectors differ")

    def _check_edge(self, req, value):
        report, _ = value
        w, n_aux, d, phase = self._model(req)
        p = req.params
        val = exact.edge_value(w, n_aux, d, phase, p["delta"], p["beta"], p["twisted"],
                               p["unstable_vertex"], LAM0)
        self._table_matches(req, report["results"]["coefficients"], exact.hz_cells(p["beta"], val))

    def _check_jwc(self, req, value):
        report, _ = value
        p = req.params
        b1, b2 = int(1 / F(p["epsilon_1"])), int(1 / F(p["epsilon_2"]))
        low, high = sorted((b1, b2))
        want = {"gained": list(range(low + 1, min(high, p["q_max"]) + 1)), "passed": True}
        if report["results"] != want or len(report["checks"]) != 4:
            self.fail(req.rid, f"jwc {report['results']} vs {want}")


# ---------------------------------------------------------------------------
# graph helpers written from the definitions


def poly_at(coeffs, lam):
    return sum((F(c) * lam**i for i, c in enumerate(coeffs)), F(0))


def series_text(series):
    return f"{series.variable}:{series.order}:" + ";".join(
        f"{k}={exact.canon_ratfun(v)}" for k, v in sorted(series.coeffs.items())
    )


def _connected(nv, ends):
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in ends:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(nv)}) == 1


def loc_graph_problem(obj):
    """First violated invariant of a fixed-locus graph object, or None."""
    verts, edges = obj["vertices"], obj["edges"]
    nv = len(verts)
    mults = {i: [F(m) for _, m in v["legs"]] for i, v in enumerate(verts)}
    for e in edges:
        a, b = e["ends"]
        if verts[a]["level"] == verts[b]["level"] or not e["delta"] or e["delta"] < 1:
            return "edge does not join the two levels with a positive degree"
        m0, m1 = F(e["mults"][0]), F(e["mults"][1])
        if (m0 + m1).denominator != 1:
            return "edge multiplicities do not sum to an integer"
        mults[a].append(m0)
        mults[b].append(m1)
    for i, v in enumerate(verts):
        if exact.vertex_defect("lg", 5, v["genus"], v["degree"], mults[i]).denominator != 1:
            return f"vertex {i} has a non-integral multiplicity defect"
    if nv and not _connected(nv, [e["ends"] for e in edges]):
        return "graph is not connected"
    return None


def dual_graph_problem(g):
    mults = {i: [m for _, m in v.legs] for i, v in enumerate(g.vertices)}
    for e in g.edges:
        mults[e.ends[0]].append(e.mults[0])
        mults[e.ends[1]].append(e.mults[1])
    for i, v in enumerate(g.vertices):
        defect = exact.vertex_defect("lg", 5, v.genus, v.degree, mults[i], v.extra_legs)
        if defect.denominator != 1:
            return f"vertex {i} has a non-integral multiplicity defect"
    if not _connected(len(g.vertices), [e.ends for e in g.edges]):
        return "graph is not connected"
    return None


def dual_total_genus(g):
    return len(g.edges) - len(g.vertices) + 1 + sum(v.genus for v in g.vertices)


def dual_text(g):
    verts = ";".join(
        f"{v.genus},{v.degree},{v.extra_legs},{v.level},{sorted(v.legs)}" for v in g.vertices
    )
    edges = ";".join(f"{e.ends},{e.mults},{e.delta}" for e in g.edges)
    return f"{verts}/{edges}/{g.v_bullet}"


def _vertex_key(v):
    return (v["genus"], v["degree"], v.get("extra_legs", 0), v.get("level") or "",
            tuple(sorted((l, F(m)) for l, m in v["legs"])))


def _edge_class(e, perm):
    a, b = e["ends"]
    sides = sorted([(perm[a], F(e["mults"][0])), (perm[b], F(e["mults"][1]))])
    return (tuple(sides), e.get("delta") or 0)


def brute_automorphisms(obj):
    """Automorphism count: vertex permutations preserving decorations and
    the edge multiset, times the permutations of identical parallel edges,
    times two for each loop whose two sides carry the same multiplicity."""
    verts, edges = obj["vertices"], obj["edges"]
    nv = len(verts)
    keys = [_vertex_key(v) for v in verts]
    ident = list(range(nv))
    base = sorted(_edge_class(e, ident) for e in edges)
    count = 0
    for perm in itertools.permutations(range(nv)):
        if any(keys[i] != keys[perm[i]] for i in range(nv)):
            continue
        if sorted(_edge_class(e, perm) for e in edges) == base:
            count += 1
    for cls in set(base):
        for k in range(2, base.count(cls) + 1):
            count *= k
    for e in edges:
        if e["ends"][0] == e["ends"][1] and F(e["mults"][0]) == F(e["mults"][1]):
            count *= 2
    return count


def degree_half_edges(obj):
    """Half-edges whose isotropy orders divide the covering degree, for a
    fixed-locus graph: every half-edge at a vertex that is not pointlike,
    and one half-edge at each bare two-valent vertex."""
    verts, edges = obj["vertices"], obj["edges"]
    out = []
    for vi, v in enumerate(verts):
        he = [(ei, side) for ei, e in enumerate(edges) for side in (0, 1) if e["ends"][side] == vi]
        bare = v["genus"] == 0 and not v["legs"]
        pointlike = bare and ((v["degree"] == 0 and len(he) in (1, 2)) or (v["degree"] > 0 and len(he) == 1))
        if not pointlike:
            out += [(vi, ei, side) for ei, side in he]
        elif v["degree"] == 0 and len(he) == 2:
            out.append((vi,) + he[0])  # both sides have the same isotropy
    return out


def component_stable(genus, degree, special, eps, orders):
    """Stability of one component for the chamber eps (None: infinity)."""
    if eps is None:
        return not any(orders) and (degree > 0 or 2 * genus - 2 + special > 0)
    if any(o > 1 / eps for o in orders):
        return False
    return eps * degree + 2 * genus - 2 + special > 0
