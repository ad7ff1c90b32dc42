"""Opt-in tracing of the calls the benchmark makes into each glsmx layer.

`Tracer.install` replaces, from outside the package, every public function
on the module attributes where each layer looks names up (a layer's own
globals and the names other layers imported from it), and the constructors
and operators of `RatFun`, `CohClass`, `TruncSeries`, `LocGraph` and
`DualGraph`.  `uninstall` puts the originals back; an untraced run never
installs anything.

Accounting: every call that crosses into another layer opens a frame.  A
frame's self time is its duration minus the durations of the frames it
opened, so the six layer self times plus the benchmark's own time add up to
the traced wall time.  Calls inside the same layer open no frame.  Calls
into `cli`, `graphs`, `p1series` and `jfun` are kept as span records (name,
start, end, parent span, request id); calls into the hot leaf layers
`algebra` and `model` are counted and timed but folded into their caller's
span, because one record per rational-function operation would not fit in
memory.
"""

from __future__ import annotations

import json
import time
import types
from fractions import Fraction

LAYERS = ("cli", "graphs", "p1series", "jfun", "algebra", "model")
FOLDED = ("algebra", "model")
TRACED_CLASSES = (
    ("algebra", "RatFun"),
    ("algebra", "CohClass"),
    ("algebra", "TruncSeries"),
    ("graphs", "LocGraph"),
    ("graphs", "DualGraph"),
)
# functions whose inclusive time, or whose nesting depth, a metric needs
TIMED = {
    "graphs.enumerate_loc_graphs", "graphs.canonical_key", "graphs.descending_chains",
    "graphs.aut_degree", "graphs.graph_leq", "graphs.minimal_expansions",
    "p1series.irr_ratio_check", "p1series.tree_series_S", "p1series.tree_series_eps",
    "p1series.stilde_at_zero", "p1series.p1_graph_sum",
    "jfun.unstable_J_coefficient", "jfun.mu_table", "jfun.jwc_check",
    "algebra.RatFun.__init__",
}
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
}
_SKIPPED_METHODS = {"__setattr__", "__hash__", "__repr__"}


def _terms(x):
    """(numerator, denominator) term counts of a RatFun operand; a scalar
    counts as one term over one, anything else as no work."""
    num = getattr(x, "num", None)
    if num is not None:
        return len(num), len(x.den)
    return (1, 1) if isinstance(x, (int, Fraction)) else (0, 0)


class Tracer:
    def __init__(self, modules):
        """modules: {layer name: module object} for the six layers."""
        self.modules = modules
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.stats = {}  # qualified name -> [calls, inclusive seconds, depth]
        self.counters = dict.fromkeys(
            ("ratfun_mul_terms", "ratfun_max_terms", "cohclass_ops", "series_ops",
             "enumerate_candidates", "enumerate_emitted", "expansion_candidates",
             "expansion_kept", "chains_emitted", "unstable_J_repeat", "report_bytes"),
            0,
        )
        self.seen_j_args = set()
        self.spans = []
        self.request_id = None
        self._next_span = 1
        self._root = ["bench", 0.0, 0]
        self.stack = [self._root]
        self._patches = []

    # -- installation -----------------------------------------------------------

    def install(self):
        layer_of = {m.__name__: layer for layer, m in self.modules.items()}
        made = {}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue
                if id(obj) not in made:
                    made[id(obj)] = self.wrap(obj, layer, f"{layer}.{name}")
                self._patch(mod, name, made[id(obj)])
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(self.modules[layer], cls_name)
            names = ["__init__"] if layer == "graphs" else [
                n for n in vars(cls)
                if n not in _SKIPPED_METHODS and (n.startswith("__") or not n.startswith("_"))
            ]
            for name in names:
                raw = vars(cls)[name]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapped = self.wrap(fn, layer, f"{layer}.{cls_name}.{name}")
                self._patch(cls, name, staticmethod(wrapped) if is_static else wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- requests ----------------------------------------------------------------

    def begin(self, request_id):
        self.request_id = request_id
        frame = ["bench", 0.0, self._new_span()]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def end(self, token):
        frame, t0 = token
        t1 = time.perf_counter()
        self.stack.pop()
        self.self_s["bench"] += (t1 - t0) - frame[1]
        self.spans.append((frame[2], 0, self.request_id, "bench.request", t0, t1))

    def _new_span(self):
        sid = self._next_span
        self._next_span += 1
        return sid

    # -- the wrapper -------------------------------------------------------------

    def wrap(self, fn, layer, qual):
        stat = self.stats.setdefault(qual, [0, 0.0, 0])
        before, after = self._hooks(qual)
        timed = qual in TIMED
        keep = layer not in FOLDED
        stack = self.stack
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stat[0] += 1
            if before is not None:
                before(args, kwargs)
            top = stack[-1]
            if top[0] == layer:
                if not timed:
                    result = fn(*args, **kwargs)
                else:
                    stat[2] += 1
                    t0 = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        stat[2] -= 1
                        if not stat[2]:
                            stat[1] += clock() - t0
            else:
                sid = tracer._new_span() if keep else top[2]
                frame = [layer, 0.0, sid]
                stack.append(frame)
                stat[2] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    stat[2] -= 1
                    dur = t1 - t0
                    self_s[layer] += dur - frame[1]
                    top[1] += dur
                    if timed and not stat[2]:
                        stat[1] += dur
                    if keep:
                        spans.append((sid, top[2], tracer.request_id, qual, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, qual):
        c = self.counters
        stats = self.stats
        before = after = None
        if qual == "algebra.RatFun.__init__":
            def after(args, kwargs, result):
                self_ = args[0]
                size = len(self_.num) + len(self_.den)
                if size > c["ratfun_max_terms"]:
                    c["ratfun_max_terms"] = size
        elif qual in ("algebra.RatFun.__mul__", "algebra.RatFun.__rmul__"):
            def before(args, kwargs):
                (an, ad), (bn, bd) = _terms(args[0]), _terms(args[1])
                c["ratfun_mul_terms"] += an * bn + ad * bd
        elif qual == "algebra.RatFun.__truediv__":
            def before(args, kwargs):
                (an, ad), (bn, bd) = _terms(args[0]), _terms(args[1])
                c["ratfun_mul_terms"] += an * bd + ad * bn
        elif qual == "algebra.RatFun.__rtruediv__":
            def before(args, kwargs):
                (an, ad), (bn, bd) = _terms(args[1]), _terms(args[0])
                c["ratfun_mul_terms"] += an * bd + ad * bn
        elif qual.startswith("algebra.CohClass.") and qual.rsplit(".", 1)[1] in _OPERATORS:
            def before(args, kwargs):
                c["cohclass_ops"] += 1
        elif qual.startswith("algebra.TruncSeries.") and qual.rsplit(".", 1)[1] in _OPERATORS:
            def before(args, kwargs):
                c["series_ops"] += 1
        elif qual == "graphs.LocGraph.__init__":
            enum = stats.setdefault("graphs.enumerate_loc_graphs", [0, 0.0, 0])

            def before(args, kwargs):
                if enum[2]:
                    c["enumerate_candidates"] += 1
        elif qual == "graphs.DualGraph.__init__":
            expand = stats.setdefault("graphs.minimal_expansions", [0, 0.0, 0])

            def before(args, kwargs):
                if expand[2]:
                    c["expansion_candidates"] += 1
        elif qual == "graphs.enumerate_loc_graphs":
            def after(args, kwargs, result):
                c["enumerate_emitted"] += len(result)
        elif qual == "graphs.minimal_expansions":
            def after(args, kwargs, result):
                c["expansion_kept"] += len(result)
        elif qual == "graphs.descending_chains":
            def after(args, kwargs, result):
                c["chains_emitted"] += len(result)
        elif qual == "jfun.unstable_J_coefficient":
            seen = self.seen_j_args

            def before(args, kwargs):
                eps = args[2] if len(args) > 2 else kwargs.get("epsilon")
                twisted = args[3] if len(args) > 3 else kwargs.get("twisted", False)
                key = (args[0], args[1], eps, bool(twisted))
                if key in seen:
                    c["unstable_J_repeat"] += 1
                else:
                    seen.add(key)
        return before, after

    # -- results -----------------------------------------------------------------

    def metrics(self, solve_s, overhead_ratio):
        """Per-layer metrics, name -> (value, unit).  solve_s is the traced
        run's wall time; overhead_ratio its time over the untraced run's."""
        def calls(q):
            return self.stats.get(q, [0, 0.0, 0])[0]

        def incl(q):
            return self.stats.get(q, [0, 0.0, 0])[1]

        c = self.counters
        model_calls = sum(s[0] for q, s in self.stats.items() if q.startswith("model."))
        j_calls = calls("jfun.unstable_J_coefficient")
        out = {
            "cli.self_s": (self.self_s["cli"], "s"),
            "cli.requests": (calls("cli.run"), "count"),
            "cli.report_bytes": (c["report_bytes"], "bytes"),
            "graphs.self_s": (self.self_s["graphs"], "s"),
            "graphs.enumerate_s": (incl("graphs.enumerate_loc_graphs"), "s"),
            "graphs.enumerate_candidates": (c["enumerate_candidates"], "count"),
            "graphs.enumerate_emitted": (c["enumerate_emitted"], "count"),
            "graphs.enumerate_yield": (_ratio(c["enumerate_emitted"], c["enumerate_candidates"]), "ratio"),
            "graphs.canonical_key_calls": (calls("graphs.canonical_key"), "count"),
            "graphs.canonical_key_s": (incl("graphs.canonical_key"), "s"),
            "graphs.expansion_candidates": (c["expansion_candidates"], "count"),
            "graphs.expansion_yield": (_ratio(c["expansion_kept"], c["expansion_candidates"]), "ratio"),
            "graphs.chains_s": (incl("graphs.descending_chains"), "s"),
            "graphs.chains_emitted": (c["chains_emitted"], "count"),
            "graphs.aut_degree_s": (incl("graphs.aut_degree"), "s"),
            "graphs.graph_leq_s": (incl("graphs.graph_leq"), "s"),
            "algebra.self_s": (self.self_s["algebra"], "s"),
            "algebra.ratfun_new": (calls("algebra.RatFun.__init__"), "count"),
            "algebra.ratfun_new_s": (incl("algebra.RatFun.__init__"), "s"),
            "algebra.ratfun_mul_terms": (c["ratfun_mul_terms"], "count"),
            "algebra.ratfun_max_terms": (c["ratfun_max_terms"], "count"),
            "algebra.cohclass_ops": (c["cohclass_ops"], "count"),
            "algebra.series_ops": (c["series_ops"], "count"),
            "p1series.self_s": (self.self_s["p1series"], "s"),
            "p1series.irr_ratio_check_s": (incl("p1series.irr_ratio_check"), "s"),
            "p1series.tree_series_s": (
                incl("p1series.tree_series_S") + incl("p1series.tree_series_eps"), "s"),
            "p1series.stilde_at_zero_s": (incl("p1series.stilde_at_zero"), "s"),
            "p1series.graph_sum_s": (incl("p1series.p1_graph_sum"), "s"),
            "p1series.graph_sum_calls": (calls("p1series.p1_graph_sum"), "count"),
            "jfun.self_s": (self.self_s["jfun"], "s"),
            "jfun.unstable_J_calls": (j_calls, "count"),
            "jfun.unstable_J_s": (incl("jfun.unstable_J_coefficient"), "s"),
            "jfun.unstable_J_repeat": (_ratio(c["unstable_J_repeat"], j_calls), "ratio"),
            "jfun.mu_table_s": (incl("jfun.mu_table"), "s"),
            "jfun.jwc_check_s": (incl("jfun.jwc_check"), "s"),
            "model.self_s": (self.self_s["model"], "s"),
            "model.calls": (model_calls, "count"),
            "trace.solve_s": (solve_s, "s"),
            "trace.remainder_s": (solve_s - sum(self.self_s[layer] for layer in LAYERS), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, rid, name, t0, t1 in self.spans:
                handle.write(json.dumps(
                    {"span": sid, "parent": parent, "request": rid, "name": name,
                     "start": t0, "end": t1}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
