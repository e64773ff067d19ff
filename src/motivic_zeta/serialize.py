"""Canonical JSON output: sorted keys, rationals as "a/b" strings,
complex numbers as {"re", "im"}, floats rounded to 12 significant digits
so repeated runs are byte-stable.  An integer, or a part of a rational,
with more decimal digits than the interpreter converts is a ResourceError.

This is the one encoder of results.  An object with a to_json method is
encoded through it; any other dataclass is encoded field by field, in
field order, and a field whose value is None is left out."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

from .errors import _printable
from .exact_core import frac_to_str


def _round_float(x: float):
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if math.isnan(x):
        return "nan"
    r = float(f"{x:.12g}")
    return 0.0 if r == 0.0 else r  # normalize -0.0


def canonical(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return _printable(obj)
    if isinstance(obj, float):
        return _round_float(obj)
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if isinstance(obj, complex):
        return {"re": _round_float(obj.real), "im": _round_float(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "to_json"):
        return canonical(obj.to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: canonical(v) for name, v in values if v is not None}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2)
