"""Outside-in layer tracing: wraps the public functions of each gvc layer.

Nothing inside `src/gvc` knows about the tracer.  `install` replaces each
target with a timing wrapper, on its class or in every `gvc` module that
imported it by name (`bicomplex` and `brst` import `total_derivative`,
`iterated_derivative` and `prolong_apply` from `jets`, so wrapping
`gvc.jets` alone would miss their calls); `uninstall` puts the originals
back.

Self time is a call's duration minus the time of the traced calls it
made.  Kernel calls (`grassmann`) run millions of times, so they are
aggregated into counters only; every other traced call is kept in memory
as a span (id, parent id, name, start, end) and written out by `write_spans`.
"""

import json
import sys
import time

from stress_models import PIPELINES

# (layer.function, module, attribute); a dotted attribute is a method.
TARGETS = (
    ("grassmann.mul", "gvc.grassmann", "Poly.__mul__"),
    ("grassmann.add", "gvc.grassmann", "Poly.__add__"),
    ("grassmann.add", "gvc.grassmann", "Poly.__sub__"),
    ("grassmann.deriv", "gvc.grassmann", "Poly.deriv"),
    ("grassmann.substitute", "gvc.grassmann", "Poly.substitute"),
    ("jets.total_derivative", "gvc.jets", "total_derivative"),
    ("jets.prolong_apply", "gvc.jets", "prolong_apply"),
    ("jets.iterated_derivative", "gvc.jets", "iterated_derivative"),
    ("superlie.check_structure", "gvc.superlie", "check_structure"),
    ("superlie.check_invariant_form", "gvc.superlie", "check_invariant_form"),
    ("bicomplex.d_h", "gvc.bicomplex", "d_h"),
    ("bicomplex.d_v", "gvc.bicomplex", "d_v"),
    ("bicomplex.project_rho", "gvc.bicomplex", "project_rho"),
    ("bicomplex.interior", "gvc.bicomplex", "interior"),
    ("bicomplex.lie_derivative", "gvc.bicomplex", "lie_derivative"),
    ("bicomplex.euler_lagrange", "gvc.bicomplex", "euler_lagrange"),
    ("bicomplex.variational_derivative", "gvc.bicomplex", "variational_derivative"),
    ("brst.koszul_tate_apply", "gvc.brst", "KoszulTate.apply"),
    ("brst.antibracket", "gvc.brst", "antibracket"),
    ("brst.nilpotency_residuals", "gvc.brst", "nilpotency_residuals"),
    ("brst.noether_residuals", "gvc.brst", "noether_residuals"),
    ("brst.proper_solution", "gvc.brst", "proper_solution"),
    ("models.generic_euler_lagrange", "gvc.models", "GaugeModel.generic_euler_lagrange"),
    ("models.brst_operator", "gvc.models", "GaugeModel.brst_operator"),
    ("models.noether_operator", "gvc.models", "GaugeModel.noether_operator"),
    ("models.current", "gvc.models", "GaugeModel.current"),
    ("models.pipeline", "gvc.models", "GaugeModel.pipeline"),
    ("modelfile.parse_model", "gvc.modelfile", "parse_model"),
    ("modelfile.spec_model", "gvc.modelfile", "spec_model"),
    ("reporting.render", "gvc.reporting", "Report.render"),
)

# Reported per-layer metrics: (name, unit).
METRICS = (
    [("grassmann.mul.%s" % k, u) for k, u in
     (("calls", "count"), ("self_s", "s"), ("terms_out", "count"))]
    + [("grassmann.add.calls", "count"), ("grassmann.add.self_s", "s")]
    + [("grassmann.deriv.%s" % k, u) for k, u in
       (("calls", "count"), ("self_s", "s"), ("terms_out", "count"))]
    + [("grassmann.substitute.total_s", "s"), ("grassmann.peak_terms", "count")]
    + [("jets.total_derivative.%s" % k, u) for k, u in
       (("calls", "count"), ("self_s", "s"), ("total_s", "s"))]
    + [("jets.prolong_apply.calls", "count"), ("jets.prolong_apply.total_s", "s"),
       ("jets.iterated_derivative.calls", "count")]
    + [("superlie.check_structure.calls", "count"),
       ("superlie.check_structure.total_s", "s"),
       ("superlie.check_invariant_form.total_s", "s")]
    + [("%s.%s.%s" % (layer, fn, k), u)
       for layer, fns in (("bicomplex", ("d_h", "d_v", "project_rho", "interior",
                                         "lie_derivative", "euler_lagrange",
                                         "variational_derivative")),
                          ("brst", ("koszul_tate_apply", "antibracket",
                                    "nilpotency_residuals", "noether_residuals",
                                    "proper_solution")))
       for fn in fns for k, u in (("calls", "count"), ("total_s", "s"))]
    + [("models.%s.calls" % fn, "count") for fn in
       ("generic_euler_lagrange", "brst_operator", "noether_operator", "current")]
    + [("models.pipeline.%s.total_s" % p, "s") for p in PIPELINES]
    + [("modelfile.parse_model.total_s", "s"), ("modelfile.spec_model.total_s", "s"),
       ("reporting.render.total_s", "s")]
)


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, self_s, total_s, terms_out]
        self.spans = []      # (id, parent id, name, start, end)
        self.peak_terms = 0
        self._stack = []     # one [span id, child seconds] per open call
        self._depth = {}     # name -> open calls, so recursion counts total_s once
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        kernel = name.startswith("grassmann.")
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, depth = self._stack, self.spans, self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter
        poly = sys.modules["gvc.grassmann"].Poly

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if kernel:
                frame = [parent[0] if parent else None, 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                if not depth[name]:
                    stats[2] += dur
                if parent is not None:
                    parent[1] += dur
                if not kernel:
                    spans.append((frame[0], parent[0] if parent else None, name, t0, t1))
            if kernel and isinstance(result, poly):
                n = len(result.terms)
                stats[3] += n
                if n > self.peak_terms:
                    self.peak_terms = n
            return result

        return traced

    def _wrap_pipeline(self, fn):
        per_name = {p: self.wrap("models.pipeline.%s" % p, fn) for p in PIPELINES}

        def pipeline(model, name, *args, **kwargs):
            return per_name.get(name, fn)(model, name, *args, **kwargs)

        return pipeline

    def install(self):
        """Wrap every target in the loaded `gvc` modules."""
        for name, module, attr in TARGETS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                if name == "models.pipeline":
                    wrapper = self._wrap_pipeline(original)
                else:
                    wrapper = self.wrap(name, original)
                setattr(cls, meth, wrapper)
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for mod_name, other in list(sys.modules.items()):
                if other is None or not (mod_name == "gvc" or mod_name.startswith("gvc.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._undo.append((other, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self):
        """Every METRICS entry as {name: {"value", "unit"}}; 0 when never called."""
        fields = {"calls": 0, "self_s": 1, "total_s": 2, "terms_out": 3}
        out = {}
        for metric, unit in METRICS:
            if metric == "grassmann.peak_terms":
                value = self.peak_terms
            else:
                name, field = metric.rsplit(".", 1)
                value = self.stats.get(name, [0, 0.0, 0.0, 0])[fields[field]]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
