"""Per-layer tracing from outside the library.

Wrappers replace the public entry points of each totsym layer in every
module namespace that holds them (``core`` does ``from .linalg import
kernel``, so both ``linalg.kernel`` and ``core.kernel`` are replaced), and
the methods on the classes themselves.  A layer call records a span (name,
start, end, parent span, item); field operations are too many to store, so
they only add to per-name call counts and self time.  Self time is a
call's duration minus the durations of the wrapped calls made inside it,
so the self times of all layers plus the time spent outside every span add
up to the traced wall time.  That sum holds by construction, so two other
guards keep calls from being counted twice or outside the run: installation
refuses to wrap an entry point that is already a wrapper, and ``problems``
reports root spans that outlast the wall time they ran in.
"""

import json
import time
from collections import defaultdict

# metric prefix -> (module, attribute) pairs; "Class.attr" patches a method
FIELD_OPS = {
    "field.mul": [("field", "Scalar.__mul__")],
    "field.add": [("field", "Scalar.__add__"), ("field", "Scalar.__sub__"),
                  ("field", "Scalar.__neg__")],
    "field.inverse": [("field", "Scalar.inverse")],
    "field.is_zero": [("field", "Scalar.is_zero")],
}

LAYER_CALLS = {
    "linalg.kernel": [("linalg", "kernel")],
    "linalg.subspace": [("linalg", "Subspace.__init__"),
                        ("linalg", "Subspace.intersection")],
    "linalg.intertwiner_space": [("linalg", "intertwiner_space")],
    "linalg.det_inverse": [("linalg", "Matrix.det"), ("linalg", "Matrix.inverse"),
                           ("linalg", "Matrix.det_inverse")],
    "linalg.invertible_search": [("linalg", "invertible_in_space")],
    "linalg.matmul": [("linalg", "Matrix.__mul__")],
    "linalg.char_poly": [("linalg", "char_poly")],
    "linalg.algebra_closure": [("linalg", "algebra_closure")],
    # verify_tss / verify_arrangement, named by the path they take
    "core.verify": [("core", "verify_tss"), ("core", "verify_arrangement")],
    "spectral.classify": [("spectral", "classify_commutative")],
    "spectral.discover_eigenvalues": [("spectral", "discover_eigenvalues")],
    "spectral.irreducibility": [("spectral", "irreducibility_certificate")],
    "spectral.depth_profile": [("spectral", "depth_profile")],
    "catalog.construct": [("catalog", name) for name in (
        "standard", "partition_construction", "permutation_type", "induction",
        "simplex_arrangement", "dual_simplex_arrangement", "simplex_system",
        "suspension_simplex", "eigenspace_construction", "ncsimplex",
        "tilde_sigma5_rep", "tilde_sigma5_arrangement", "tilde_sigma5_system",
        "tilde_sigma5_construction", "sporadic4")],
    "serialize.emit": [("serialize", "emit")],
    "serialize.parse": [("serialize", "parse")],
    "serialize.to_document": [("serialize", "to_document")],
    "serialize.from_document": [("serialize", "from_document")],
    "cli.main": [("cli", "main")],
}

CALL_LAYERS = (
    [name for name in FIELD_OPS]
    + [name for name in LAYER_CALLS if name != "core.verify"]
    + ["core.verify_scratch", "core.verify_recheck"])


def _verify_name(args, kwargs):
    obj = args[0]
    scratch = kwargs.get("from_scratch", args[1] if len(args) > 1 else False)
    if scratch or obj.witness is None:
        return "core.verify_scratch"
    return "core.verify_recheck"


class Tracer:
    """Installs wrappers on a freshly imported totsym and collects spans."""

    def __init__(self, modules):
        self.modules = modules  # short name ("field", ...) -> module object
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.item = None
        self.det_attempts = 0
        self.search_hits = 0
        self.closure_products = 0
        self.closure_dims = 0
        self._acc = [0.0]  # child-time accumulators; [0] sums root spans
        self._open = []  # indices of the spans currently open
        self._search_depth = 0
        self._closure_depth = 0
        self._restore = []
        self._start = None
        self.wall_s = 0.0
        self.double_wrapped = []  # entry points found already wrapped

    # -- wrappers -------------------------------------------------------

    def _field_wrapper(self, name, fn):
        acc, clock, calls, self_s = self._acc, time.perf_counter, self.calls, self.self_s

        def wrapper(*args):
            acc.append(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                child = acc.pop()
                calls[name] += 1
                self_s[name] += d - child
                acc[-1] += d
        wrapper.traced_as = name
        return wrapper

    def _span_wrapper(self, name, fn):
        acc, clock, calls, self_s = self._acc, time.perf_counter, self.calls, self.self_s
        spans, opened = self.spans, self._open
        namer = _verify_name if name == "core.verify" else None
        tracer = self

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            tracer._enter(label)
            parent = opened[-1] if opened else -1
            idx = len(spans)
            spans.append(None)
            opened.append(idx)
            acc.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                child = acc.pop()
                opened.pop()
                calls[label] += 1
                self_s[label] += (t1 - t0) - child
                acc[-1] += t1 - t0
                spans[idx] = (label, t0, t1, parent, tracer.item)
                tracer._leave(label, result)
        wrapper.traced_as = name
        return wrapper

    def _enter(self, label):
        if label == "linalg.invertible_search":
            self._search_depth += 1
        elif label == "linalg.algebra_closure":
            self._closure_depth += 1
        elif label == "linalg.det_inverse" and self._search_depth:
            self.det_attempts += 1
        elif label == "linalg.matmul" and self._closure_depth:
            self.closure_products += 1

    def _leave(self, label, result):
        if label == "linalg.invertible_search":
            self._search_depth -= 1
            if result is not None:
                self.search_hits += 1
        elif label == "linalg.algebra_closure":
            self._closure_depth -= 1
            if result is not None:
                self.closure_dims += len(result)

    # -- installation ---------------------------------------------------

    def _patch(self, module_name, attr, make):
        module = self.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
        else:
            owner, meth = module, attr
            original = getattr(module, attr)
        if hasattr(original, "traced_as"):
            # a second wrapper would count every call and its time twice
            self.double_wrapped.append(
                f"{module_name}.{attr} (already traced as {original.traced_as})")
            return
        wrapper = make(original)
        if owner is not module:
            self._restore.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            return
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        """Wrap every entry point; wall time counts while installed."""
        for name, targets in FIELD_OPS.items():
            for module_name, attr in targets:
                self._patch(module_name, attr,
                            lambda fn, name=name: self._field_wrapper(name, fn))
        for name, targets in LAYER_CALLS.items():
            for module_name, attr in targets:
                self._patch(module_name, attr,
                            lambda fn, name=name: self._span_wrapper(name, fn))
        self._start = time.perf_counter()

    def uninstall(self):
        self.wall_s += time.perf_counter() - self._start
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def write_spans(self, path, kinds):
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "item": item, "kind": kinds[item]}) + "\n")

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in CALL_LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["linalg.invertible_search.det_attempts"] = (self.det_attempts, "count")
        out["linalg.invertible_search.hit_ratio"] = (
            self.search_hits / self.det_attempts if self.det_attempts else 0.0,
            "ratio")
        out["linalg.algebra_closure.products"] = (self.closure_products, "count")
        out["linalg.algebra_closure.useful_ratio"] = (
            self.closure_dims / self.closure_products
            if self.closure_products else 0.0, "ratio")
        out["bench.self_s"] = (self.wall_s - self._acc[0], "s")
        out["trace.wall_s"] = (self.wall_s, "s")
        return out

    def problems(self):
        """What makes the layer accounting untrustworthy: entry points that
        were already wrapped, and root spans that outlast the wall time
        they ran in."""
        out = [f"refused to wrap {what} a second time" for what in self.double_wrapped]
        outside = self.wall_s - self._acc[0]
        if outside < 0:
            out.append(f"layer spans exceed the traced wall time by {-outside:.3g} s")
        return out
