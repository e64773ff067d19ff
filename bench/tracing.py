"""Spans and per-layer counts, recorded from outside the library.

`install` wraps public functions and methods of motivic_zeta and patches
every module of the package that binds the same object, so a call is seen
whichever name the caller used.  A span records name, start, end, parent
span and job id.  Calls of the hot arithmetic methods are folded into one
bucket per (parent span, name), so memory stays small however many there
are; self time is the span time minus the time its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import defaultdict

# (module, attribute, metric name, hot)
TARGETS = (
    ("exact_core", "char_poly", "exact_core.char_poly", False),
    ("exact_core", "RatMatrix.__mul__", "exact_core.RatMatrix.mul", True),
    ("exact_core", "RatMatrix.det", "exact_core.RatMatrix.det", False),
    ("exact_core", "RatMatrix.inverse", "exact_core.RatMatrix.inverse", False),
    ("exact_core", "RationalFunction.__init__", "exact_core.RationalFunction.init", True),
    ("series", "exp_from_traces", "series.exp_from_traces", False),
    ("series", "TruncatedSeries.__mul__", "series.TruncatedSeries.mul", True),
    ("series", "witt_mul", "series.witt_mul", False),
    ("series", "series_log", "series.series_log", False),
    ("reconstruct", "berlekamp_massey", "reconstruct.berlekamp_massey", False),
    ("reconstruct", "linear_complexity_profile", "reconstruct.linear_complexity_profile", False),
    ("motives", "trace_sequence", "motives.trace_sequence", False),
    ("motives", "zeta_rational", "motives.zeta_rational", False),
    ("motives", "zeta_series", "motives.zeta_series", False),
    ("motives", "check_functional_equation", "motives.check_functional_equation", False),
    ("analytic", "spectrum", "analytic.spectrum", False),
    ("analytic", "hasse_weil_eval", "analytic.hasse_weil_eval", False),
    ("analytic", "regularized_det_check", "analytic.regularized_det_check", False),
    ("k0", "smith_normal_form", "k0.smith_normal_form", False),
    ("k0", "num_grothendieck", "k0.num_grothendieck", False),
    ("gf", "FqElement.__mul__", "gf.FqElement.mul", True),
    ("gf", "FqElement.__add__", "gf.FqElement.add", True),
    ("gf", "FqElement.inverse", "gf.FqElement.inverse", True),
    ("gf", "FqField.embedding_root", "gf.FqField.embedding_root", False),
    ("gf", "fq_make", "gf.fq_make", True),
    ("gfvec", "VecField.mul", "gfvec.VecField.mul", False),
    ("gfvec", "VecField.power", "gfvec.VecField.power", False),
    ("gfvec", "VecField.linear_map", "gfvec.VecField.linear_map", False),
    ("gfvec", "VecField.digits_of_range", "gfvec.VecField.digits_of_range", False),
    ("varieties", "count_points", "varieties.count_points", False),
    ("varieties", "weil_check", "varieties.weil_check", False),
    ("varieties", "closed_points", "varieties.closed_points", False),
    ("varieties", "enumerate_points", "varieties.enumerate_points", False),
    ("varieties", "twisted_count", "varieties.twisted_count", False),
    ("lfunctions", "GroupAction.__init__", "lfunctions.GroupAction.init", False),
    ("lfunctions", "l_function", "lfunctions.l_function", False),
    ("lfunctions", "orbifold_zeta", "lfunctions.orbifold_zeta", False),
    ("serialize", "dumps", "serialize.dumps", False),
    ("cli", "main", "cli.main", False),
)

# Every per-layer metric: (name, unit, better).  Names end in the quantity.
LAYER_METRICS = (
    ("exact_core.char_poly.self_s", "s", "lower"),
    ("exact_core.char_poly.calls", "count", "lower"),
    ("exact_core.RatMatrix.mul.self_s", "s", "lower"),
    ("exact_core.RatMatrix.mul.calls", "count", "lower"),
    ("exact_core.RatMatrix.det.self_s", "s", "lower"),
    ("exact_core.RatMatrix.inverse.self_s", "s", "lower"),
    ("exact_core.RationalFunction.init.self_s", "s", "lower"),
    ("series.exp_from_traces.self_s", "s", "lower"),
    ("series.TruncatedSeries.mul.self_s", "s", "lower"),
    ("series.witt_mul.self_s", "s", "lower"),
    ("series.series_log.self_s", "s", "lower"),
    ("reconstruct.berlekamp_massey.self_s", "s", "lower"),
    ("reconstruct.berlekamp_massey.calls", "count", "lower"),
    ("reconstruct.linear_complexity_profile.self_s", "s", "lower"),
    ("motives.trace_sequence.self_s", "s", "lower"),
    ("motives.zeta_rational.self_s", "s", "lower"),
    ("motives.zeta_series.self_s", "s", "lower"),
    ("motives.check_functional_equation.self_s", "s", "lower"),
    ("analytic.spectrum.self_s", "s", "lower"),
    ("analytic.hasse_weil_eval.self_s", "s", "lower"),
    ("analytic.regularized_det_check.self_s", "s", "lower"),
    ("k0.smith_normal_form.self_s", "s", "lower"),
    ("k0.smith_normal_form.calls", "count", "lower"),
    ("k0.smith_normal_form.max_transform_bits", "bits", "lower"),
    ("k0.num_grothendieck.self_s", "s", "lower"),
    ("gf.FqElement.mul.calls", "count", "lower"),
    ("gf.FqElement.mul.self_s", "s", "lower"),
    ("gf.FqElement.add.calls", "count", "lower"),
    ("gf.FqElement.inverse.calls", "count", "lower"),
    ("gf.FqField.enumerate.elements", "count", "lower"),
    ("gf.FqField.embedding_root.self_s", "s", "lower"),
    ("gf.fq_make.builds", "count", "lower"),
    ("gf.fq_make.self_s", "s", "lower"),
    ("gfvec.VecField.mul.elements", "count", "lower"),
    ("gfvec.VecField.mul.self_s", "s", "lower"),
    ("gfvec.VecField.mul.ns_per_element", "ns", "lower"),
    ("gfvec.VecField.power.self_s", "s", "lower"),
    ("gfvec.VecField.linear_map.self_s", "s", "lower"),
    ("gfvec.VecField.digits_of_range.self_s", "s", "lower"),
    ("varieties.count_points.self_s", "s", "lower"),
    ("varieties.count_points.points_per_s", "1/s", "higher"),
    ("varieties.weil_check.self_s", "s", "lower"),
    ("varieties.closed_points.self_s", "s", "lower"),
    ("varieties.enumerate_points.self_s", "s", "lower"),
    ("varieties.twisted_count.self_s", "s", "lower"),
    ("lfunctions.GroupAction.init.self_s", "s", "lower"),
    ("lfunctions.l_function.self_s", "s", "lower"),
    ("lfunctions.orbifold_zeta.self_s", "s", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.dumps.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that are exact counts of work, equal in every traced round.
COUNT_UNITS = ("count", "bits", "B")


class Tracer:
    def __init__(self):
        self.ids = itertools.count(1)
        self.stack = []  # open frames: [span id, name, start, child time]
        self.spans = []  # (id, name, start, end, parent, job)
        self.buckets = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.extra = defaultdict(int)  # derived counts: elements, builds, bits, bytes, points
        self.job = None
        self._undo = []

    # --- spans ---

    def call(self, name, hot, fn, args, kwargs):
        sid = next(self.ids)
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - frame[2]
            own = dur - frame[3]
            if self.stack:
                self.stack[-1][3] += dur
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += dur
            if hot:
                b = self.buckets[(parent, name)]
                b[0] += 1
                b[1] += dur
                b[2] += own
            else:
                self.spans.append((sid, name, frame[2], end, parent, self.job))

    def job_span(self, job_id, fn):
        self.job = job_id
        try:
            return self.call("job", False, fn, (), {})
        finally:
            self.job = None

    # --- wrappers ---

    def _wrap(self, name, hot, fn):
        tracer = self
        if name == "gf.fq_make":
            def wrapper(*args, **kwargs):
                before = fn.cache_info().misses
                try:
                    return tracer.call(name, hot, fn, args, kwargs)
                finally:
                    tracer.extra["gf.fq_make.builds"] += fn.cache_info().misses - before
        elif name == "gfvec.VecField.mul":
            def wrapper(self_, a, b):
                tracer.extra["gfvec.VecField.mul.elements"] += max(a.shape[0], b.shape[0])
                return tracer.call(name, hot, fn, (self_, a, b), {})
        elif name == "k0.smith_normal_form":
            def wrapper(*args, **kwargs):
                d, u, v = tracer.call(name, hot, fn, args, kwargs)
                bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)
                key = "k0.smith_normal_form.max_transform_bits"
                tracer.extra[key] = max(tracer.extra[key], bits)
                return d, u, v
        elif name == "serialize.dumps":
            def wrapper(*args, **kwargs):
                text = tracer.call(name, hot, fn, args, kwargs)
                tracer.extra["serialize.dumps.bytes"] += len(text.encode())
                return text
        elif name == "varieties.count_points":
            def wrapper(*args, **kwargs):
                count = tracer.call(name, hot, fn, args, kwargs)
                tracer.extra["varieties.count_points.points"] += count
                return count
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, hot, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate_wrapper(self, fn):
        tracer = self

        def enumerate(field):
            n = 0
            try:
                for x in fn(field):
                    n += 1
                    yield x
            finally:
                tracer.extra["gf.FqField.enumerate.elements"] += n

        return enumerate

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "motivic_zeta" and not mod_name.startswith("motivic_zeta."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_class(self, cls, method, replacement):
        original = cls.__dict__[method]
        for attr, value in list(cls.__dict__.items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                setattr(cls, attr, replacement)
                self._undo.append((cls, attr, original))

    def install(self):
        for mod_name, attr, name, hot in TARGETS:
            mod = importlib.import_module(f"motivic_zeta.{mod_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch_class(cls, method, self._wrap(name, hot, cls.__dict__[method]))
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self._wrap(name, hot, original))
        field_cls = importlib.import_module("motivic_zeta.gf").FqField
        self._patch_class(field_cls, "enumerate", self._enumerate_wrapper(field_cls.__dict__["enumerate"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results ---

    def metrics(self):
        """Per-layer values of one traced round (without the overhead)."""
        out = {}
        for name, _unit, _ in LAYER_METRICS:
            if name == "trace.overhead_s":  # measured by run.py across rounds
                continue
            layer, _, quantity = name.rpartition(".")
            if quantity == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif quantity == "calls":
                out[name] = self.calls.get(layer, 0)
            elif quantity == "ns_per_element":
                elements = self.extra.get(f"{layer}.elements", 0)
                out[name] = 1e9 * self.self_s.get(layer, 0.0) / elements if elements else 0.0
            elif quantity == "points_per_s":
                busy = self.total_s.get(layer, 0.0)
                out[name] = self.extra.get(f"{layer}.points", 0) / busy if busy else 0.0
            else:
                out[name] = self.extra.get(name, 0)
        return out

    def records(self):
        """Spans, then buckets of hot calls, as JSON-able dicts."""
        for sid, name, start, end, parent, job in self.spans:
            yield {"span": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job}
        for (parent, name), (calls, total, own) in self.buckets.items():
            yield {"bucket": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
