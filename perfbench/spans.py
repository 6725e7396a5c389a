"""Span recording around pfaffcalc's public functions, from outside.

A `Tracer` replaces each traced function in every pfaffcalc module
namespace that holds it (a module that did `from .gbengine import nf`
has its own binding), and each traced method on its class.  Every call
becomes one span: (id, name, start, end, parent id, outermost), kept in
memory until `write` is called.  `restore` puts the originals back.

The hot inner layers (`monomials`, `rings`, `fields`, the private
`_merge_sub`) are deliberately not wrapped: they run millions of times
per workload, and a wrapper there would distort the times it reports.
Their cost shows up inside their callers' self times.
"""

import gzip
import sys
import time

# (defining module, attribute path, span name); names are the layer's
# module plus the public function, so a metric reads as <layer>.<fn>.
FUNCTIONS = [
    ("gbengine", "nf", "gbengine.nf"),
    ("gbengine", "buchberger", "gbengine.buchberger"),
    ("gbengine", "interreduce", "gbengine.interreduce"),
    ("gbengine", "schreyer_level", "gbengine.schreyer_level"),
    ("gbengine", "schreyer_resolution", "gbengine.schreyer_resolution"),
    ("resolutions", "free_resolution", "resolutions.free_resolution"),
    ("resolutions", "minimalize", "resolutions.minimalize"),
    ("resolutions", "FreeComplex.check", "resolutions.FreeComplex.check"),
    ("constructions", "module_presentation",
     "constructions.module_presentation"),
    ("constructions", "GradedMatrix.__matmul__",
     "constructions.GradedMatrix.matmul"),
    ("exterior", "ExteriorElement.act", "exterior.ExteriorElement.act"),
    ("exterior", "ExteriorElement.wedge", "exterior.ExteriorElement.wedge"),
    ("exterior", "ExteriorElement.divided_power",
     "exterior.ExteriorElement.divided_power"),
    ("linoracle", "oracle_betti", "linoracle.oracle_betti"),
    ("groebner", "groebner_basis", "groebner.groebner_basis"),
    ("groebner", "dimension_codim", "groebner.dimension_codim"),
    ("groebner", "ideal_quotient", "groebner.ideal_quotient"),
    ("homology", "homology_is_zero", "homology.homology_is_zero"),
    ("homology", "ModuleSpan.contains_column",
     "homology.ModuleSpan.contains_column"),
]


def _ladder_betti_name(pres, *args, **kw):
    return ("resolutions.ladder_betti.qq" if pres.ring.field.char == 0
            else "resolutions.ladder_betti.gf")


class Tracer:
    """Records spans and the benchmark's deterministic counts.

    Counts are computed from arguments and return values seen at the
    wrappers, never from inside the program:
      * `ladder_gens`: generators over all levels a Schreyer frame returns;
      * `frame_gens` / `minimal_gens`: generators of the complex going
        into and coming out of each `minimalize` call;
      * `entry_products`: rows * inner * cols over `GradedMatrix` products.
    """

    def __init__(self):
        self.spans = []
        self.counts = {"ladder_gens": 0, "frame_gens": 0, "minimal_gens": 0,
                       "entry_products": 0}
        self._stack = [0]
        self._active = {}
        self._next_id = 1
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kw):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._active[name] = depth
            self.spans.append((sid, name, t0, t1, parent, depth == 0))

    def span(self, name, fn, *args, **kw):
        """Call fn(*args, **kw) inside a span called `name`."""
        return self._call(name, fn, args, kw)

    def _wrapper(self, name, fn, observe=None):
        """`fn` recorded as span `name`; `name` may instead be a function
        of the call's arguments that returns the span name."""
        call = self._call
        name_of = name if callable(name) else (lambda *args, **kw: name)

        def wrapped(*args, **kw):
            out = call(name_of(*args, **kw), fn, args, kw)
            if observe is not None:
                observe(args, out)
            return out
        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    # -- observers for the deterministic counts ------------------------------

    def _saw_frame(self, args, out):
        levels, _ = out
        self.counts["ladder_gens"] += sum(len(els) for _, els in levels)

    def _saw_minimalize(self, args, out):
        self.counts["frame_gens"] += sum(len(tw) for tw in args[0].twists)
        self.counts["minimal_gens"] += sum(len(tw) for tw in out[0].twists)

    def _saw_matmul(self, args, out):
        a, b = args
        self.counts["entry_products"] += a.nrows * a.ncols * b.ncols

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new):
        for mod in _pfaffcalc_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, key, new)

    def install(self):
        """Wrap every traced function and method; call `restore` to undo."""
        import pfaffcalc.verify as verify
        observers = {
            "gbengine.schreyer_resolution": self._saw_frame,
            "resolutions.minimalize": self._saw_minimalize,
            "constructions.GradedMatrix.matmul": self._saw_matmul,
        }
        targets = FUNCTIONS + [("resolutions", "ladder_betti",
                                _ladder_betti_name)]
        for modname, path, name in targets:
            mod = sys.modules["pfaffcalc." + modname]
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(mod, clsname)
                orig = cls.__dict__[meth]
                self._patch(cls, meth,
                            self._wrapper(name, orig, observers.get(name)))
            else:
                orig = getattr(mod, path)
                self._patch_everywhere(
                    orig, self._wrapper(name, orig, observers.get(name)))
        # verify.<suite>: wrap each check body a suite builder returns
        for suite, entry in list(verify._SUITE_BUILDERS.items()):
            builder = entry[0]
            new_entry = (self._suite_builder(suite, builder),) + entry[1:]
            self._undo.append((verify._SUITE_BUILDERS, suite, entry))
            verify._SUITE_BUILDERS[suite] = new_entry

    def _suite_builder(self, suite, builder):
        name = "verify.%s" % suite

        def build(*args, **kw):
            checks = builder(*args, **kw)
            for chk in checks:
                chk.fn = self._wrapper(name, chk.fn)
            return checks
        return build

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo = []

    # -- reading -------------------------------------------------------------

    def totals(self):
        """{name: (inclusive seconds, self seconds, calls)}.

        Inclusive seconds count only the outermost span of a recursive
        chain, so no interval is counted twice.  Self seconds are a span's
        duration minus the time its direct child spans cover; spans of
        one single-threaded run nest, so children never overlap."""
        child = {}
        for sid, name, t0, t1, parent, outer in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for sid, name, t0, t1, parent, outer in self.spans:
            dur = t1 - t0
            s, selfs, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (s + (dur if outer else 0.0),
                         selfs + dur - child.get(sid, 0.0), calls + 1)
        return out

    def write(self, path):
        """Write every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, name, t0, t1, parent, _ in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                         % (sid, name, t0, t1, parent))


def _pfaffcalc_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pfaffcalc" or
                                  n.startswith("pfaffcalc."))]


SUITES = ("exterior-identities", "complex-closure", "grades", "exactness",
          "resolutions", "gorenstein", "localization", "char-anomaly")

# Per-layer metrics read off the spans: <span name>.s (inclusive seconds),
# <span name>.self_s (seconds minus child spans) or <span name>.calls.
SPAN_METRICS = [
    "gbengine.interreduce.self_s",
    "gbengine.schreyer_level.self_s",
    "gbengine.nf.s",
    "gbengine.nf.calls",
    "gbengine.buchberger.s",
    "gbengine.buchberger.calls",
    "gbengine.schreyer_resolution.s",
    "resolutions.FreeComplex.check.s",
    "resolutions.minimalize.self_s",
    "resolutions.free_resolution.self_s",
    "resolutions.ladder_betti.gf.s",
    "resolutions.ladder_betti.qq.s",
    "constructions.GradedMatrix.matmul.s",
    "constructions.GradedMatrix.matmul.calls",
    "constructions.module_presentation.s",
    "exterior.ExteriorElement.act.s",
    "exterior.ExteriorElement.act.calls",
    "exterior.ExteriorElement.wedge.s",
    "exterior.ExteriorElement.wedge.calls",
    "exterior.ExteriorElement.divided_power.s",
    "exterior.ExteriorElement.divided_power.calls",
    "linoracle.oracle_betti.s",
    "groebner.groebner_basis.s",
    "groebner.dimension_codim.s",
    "groebner.ideal_quotient.s",
    "homology.homology_is_zero.s",
    "homology.ModuleSpan.contains_column.s",
] + ["verify.%s.s" % s for s in SUITES]

# Counts computed from arguments and results at the wrappers.
COUNT_METRICS = [
    ("gbengine.ladder_gens", "count"),
    ("resolutions.units_contracted", "count"),
    ("resolutions.useful_ratio", "ratio"),
    ("constructions.GradedMatrix.matmul.entry_products", "count"),
]


def span_metric_unit(metric):
    return "count" if metric.endswith(".calls") else "s"


def layer_metrics(tracer):
    """{metric: value} for every name in SPAN_METRICS and COUNT_METRICS.
    A layer the workload never calls reads 0."""
    totals = tracer.totals()
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        s, selfs, calls = totals.get(span, (0.0, 0.0, 0))
        out[metric] = {"s": s, "self_s": selfs, "calls": calls}[field]
    c = tracer.counts
    out["gbengine.ladder_gens"] = c["ladder_gens"]
    out["resolutions.units_contracted"] = c["frame_gens"] - c["minimal_gens"]
    out["resolutions.useful_ratio"] = (c["minimal_gens"] / c["frame_gens"]
                                       if c["frame_gens"] else 0.0)
    out["constructions.GradedMatrix.matmul.entry_products"] = \
        c["entry_products"]
    return out
