"""Turn planned requests into calls on glsmx and run them as a closed loop.

One client, one process, no threads: each request is sent only after the
previous one has returned.  A report request goes through `cli.run` plus the
`json.dumps(report, indent=2)` rendering that `glsmx`'s `main` does; the
other requests call the library function directly.  Arguments are built
before the clock starts and checks run after it stops, so a request's
latency covers only the call into glsmx and the rendering.  Latencies are
normalised to the reference host's speed by the probes of pace.py, taken
around and during each request; the raw wall times are kept beside them.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

import pace
import plans


def render(report):
    return json.dumps(report, indent=2) + "\n"


class Executor:
    def __init__(self, glsmx_modules, plan, checker, tracer=None):
        self.m = glsmx_modules
        self.plan = plan
        self.checker = checker
        self.tracer = tracer
        self.render = render
        self.kept = {}  # census rid -> {index: graph object}
        self.wanted = {}
        for r in plan.requests:
            if r.needs is not None:
                self.wanted.setdefault(r.needs, set()).add(r.params["index"])
        self.latencies = []  # (rid, normalised seconds)
        self.raw_latencies = []  # (rid, wall seconds)
        self.samples = []  # kernel times of pace.py taken around each request

    def run(self):
        tracer = self.tracer
        meter = pace.Meter(sample=tracer is None)
        for req in self.plan.requests:
            call = self._materialize(req)
            meter.start()
            try:
                if tracer is not None:
                    tracer.install()
                    token = tracer.begin(req.rid)
                t0 = time.perf_counter()
                try:
                    value, error = call(), None
                except Exception as exc:  # a failing op is counted, never fatal
                    value, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end(token)
                    tracer.uninstall()
            finally:
                meter.disarm()
            raw, scaled, samples = meter.result(t0, t1)
            self.raw_latencies.append((req.rid, raw))
            self.latencies.append((req.rid, scaled))
            self.samples.append(samples)
            try:
                self.checker.check(req, value, error)
            except Exception as exc:  # a check that cannot read the output
                self.checker.fail(req.rid, f"check raised {type(exc).__name__}: {exc}")
            self._keep(req, value)

    def finish(self):
        model = self.m["model"].GlsmModel((1, 1, 1, 1, 1), 1, 5, "lg")
        try:
            self.checker.finish(self.m["graphs"], model)
        except Exception as exc:
            self.checker.fail("finish", f"deferred checks raised {type(exc).__name__}: {exc}")

    # -- building calls --------------------------------------------------------

    def _report(self, command, config):
        cli = self.m["cli"]

        def call():
            report = cli.run(command, config)
            text = self.render(report)
            if self.tracer is not None:
                self.tracer.counters["report_bytes"] += len(text)
            return report, text

        return call

    def _materialize(self, req):
        p = req.params
        kind = req.kind
        if kind == "graphs":
            return self._report("graphs", {"model": plans.CENSUS_MODEL, "graphs": dict(p)})
        if kind == "aut":
            graph = self.kept[req.needs][p["index"]]
            return self._report("aut", {"model": plans.CENSUS_MODEL, "aut": {"graph": graph}})
        if kind == "order":
            a, b = order_pair(self.kept[req.needs][p["index"]], p)
            return self._report("order", {"model": plans.CENSUS_MODEL, "order": {"a": a, "b": b}})
        if kind == "contract":
            config = {"model": plans.QUINTIC_LG,
                      "contract": {"graph": plans.tail_chain_graph(p["degrees"]),
                                   "epsilon": p["epsilon"]}}
            return self._report("contract", config)
        if kind == "descending_chains":
            gr = self.m["graphs"]
            model = self.m["model"].GlsmModel((1, 1, 1, 1, 1), 1, 5, "lg")
            vertices, (ends, mults), bullet = plans.chain_top(p)
            top = gr.DualGraph(
                tuple(gr.Vertex(g, b, legs) for g, b, legs in vertices),
                (gr.Edge(ends, mults),),
                bullet,
            )
            return lambda: self.m["graphs"].descending_chains(model, top, plans.CHAIN_CAP)
        if kind == "p1":
            return self._report("p1", {"p1": dict(p)})
        if kind == "stilde_at_zero":
            alpha = self._coh(p["alpha"])
            return lambda: self.m["p1series"].stilde_at_zero(alpha, p["y"])
        if kind == "tree_series_S":
            alpha = self._coh(p["alpha"])
            return lambda: self.m["p1series"].tree_series_S(alpha, p["y"], p["z"])
        if kind == "p1_graph_sum":
            ins = [(self._coh(a), k) for a, k in p["insertions"]]
            return lambda: self.m["p1series"].p1_graph_sum(p["n"], p["delta"], ins)
        model = plans.model_config(p["model"])
        body = {k: v for k, v in p.items() if k != "model"}
        return self._report(kind, {"model": model, kind: body})

    def _coh(self, alpha):
        al = self.m["algebra"]
        coeffs = []
        for part in alpha:
            poly = {(i, 0): F(c) for i, c in enumerate(part) if c}
            coeffs.append(al.RatFun(poly) if poly else al.RatFun(0))
        return al.CohClass(coeffs, al.PROJLINE)

    def _keep(self, req, value):
        wanted = self.wanted.get(req.rid)
        if not wanted or value is None:
            return
        report, _ = value
        graphs = report["results"].get("graphs", [])
        self.kept[req.rid] = {i: graphs[i] for i in wanted if i < len(graphs)}


def order_pair(loc_obj, params):
    """Two dual graphs in a known order relation: `relabel` permutes the
    vertices (each below the other, isomorphic); `merge` contracts one edge
    at the distinguished vertex (a strictly below b).  Census graphs are
    connected with at least one edge and no loops, so the distinguished
    vertex always has an edge to contract."""
    verts = [dict(v, level=None) for v in loc_obj["vertices"]]
    edges = [dict(e, delta=None) for e in loc_obj["edges"]]
    rng = random.Random(params["pick"])
    positive = [i for i, v in enumerate(verts) if v["degree"] > 0] or list(range(len(verts)))
    bullet = rng.choice(positive)
    a = {"kind": "dual", "vertices": verts, "edges": edges, "v_bullet": bullet}
    if params["relation"] == "relabel":
        perm = list(range(len(verts)))
        rng.shuffle(perm)  # vertex i moves to position perm[i]
        new_verts = [None] * len(verts)
        for i, v in enumerate(verts):
            new_verts[perm[i]] = v
        new_edges = [dict(e, ends=[perm[x] for x in e["ends"]]) for e in edges]
        return a, {"kind": "dual", "vertices": new_verts, "edges": new_edges, "v_bullet": perm[bullet]}
    ei = rng.choice([i for i, e in enumerate(edges) if bullet in e["ends"]])
    other = edges[ei]["ends"][1] if edges[ei]["ends"][0] == bullet else edges[ei]["ends"][0]
    u, w = verts[bullet], verts[other]
    merged = {
        "genus": u["genus"] + w["genus"],
        "degree": u["degree"] + w["degree"],
        "legs": sorted(u["legs"] + w["legs"], key=lambda leg: leg[0]),
        "extra_legs": 0,
        "level": None,
    }
    keep = [i for i in range(len(verts)) if i not in (bullet, other)]
    remap = {old: new for new, old in enumerate(keep)}
    remap[bullet] = remap[other] = len(keep)
    new_verts = [verts[i] for i in keep] + [merged]
    new_edges = [dict(e, ends=[remap[x] for x in e["ends"]]) for j, e in enumerate(edges) if j != ei]
    return a, {"kind": "dual", "vertices": new_verts, "edges": new_edges, "v_bullet": len(keep)}
