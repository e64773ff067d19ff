"""Command-line front end.

COMMANDS has one row per subcommand: its words, the library operation it
runs and the flags it reads, each with its default or REQUIRED.  A
subcommand takes only those flags; all but two read a JSON document with
--in.  A run builds the parser of the one row its first words name, and
the whole tree only when they name none.  Every run writes one
canonical-JSON envelope {"status": ..., "payload": ...} to stdout or
--out (to stdout when --out cannot be written).  Exit codes: 0 ok; 1
validation or precondition error, usage mistakes included (an undeclared
or missing flag, a non-integer value, --nmax or --precision below 1);
2 resource limit; 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analytic, k0, measures, motives, reconstruct
from .errors import (
    MotivicZetaError,
    NumericError,
    PreconditionError,
    ResourceError,
    ValidationError,
)
from .exact_core import _frac, _json_int, _json_list
from .motives import TracedMotive
from .serialize import dumps
from .series import DEFAULT_PRECISION, TruncatedSeries, WittElement, ghost_components, witt_add, witt_mul


def _load(path: str):
    """The JSON document in the --in file; a file that cannot be read, is
    not UTF-8, is not JSON, holds an integer past the interpreter's limit
    on str-to-int conversion or nests too deeply to decode is a
    ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise ValidationError(f"{path} cannot be decoded: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{path} nests too deeply to decode") from None


def _key(data, name: str):
    """data[name] of a JSON object; a missing key or a non-object is a
    ValidationError, not a traceback."""
    if not isinstance(data, dict) or name not in data:
        raise ValidationError(f"the input needs a {name!r} key")
    return data[name]


def _int_key(data, name: str) -> int:
    """data[name] of a JSON object, which must be an integer."""
    return _json_int(_key(data, name), name)


def _samples_in(data, default: list) -> list[complex]:
    """data["samples"]: numbers or {"re": x, "im": y} objects of numbers
    (a missing part is 0); anything else is refused, not coerced."""
    raw = data.get("samples", default)
    if not isinstance(raw, list):
        raise ValidationError(f"samples must be a list, got {raw!r}")
    out = []
    for s in raw:
        parts = (s.get("re", 0.0), s.get("im", 0.0)) if isinstance(s, dict) else (s, 0.0)
        if not all(type(x) in (int, float) for x in parts):
            raise ValidationError(f"a sample must be a number or {{'re': x, 'im': y}} of numbers, got {s!r}")
        out.append(complex(*parts))
    return out


def _character_in(data, action):
    """The lfunctions.Character of data for a GroupAction; each root order
    is checked against the group before a value of that order is built."""
    from . import lfunctions

    def order(x) -> int:
        m = _json_int(x, "m")
        lfunctions.check_root_order(action, m)
        return m

    raw = _json_list(_key(data, "values"), "values")
    m = order(data.get("m", 1))
    values = []
    for val in raw:
        if isinstance(val, dict):
            values.append(
                lfunctions.Cyclotomic(
                    order(val.get("m", m)),
                    tuple(_frac(c) for c in _json_list(_key(val, "coeffs"), "coeffs")),
                )
            )
        elif isinstance(val, list):
            values.append(lfunctions.Cyclotomic(m, tuple(_frac(c) for c in val)))
        else:
            values.append(lfunctions.Cyclotomic.rational(val, m))
    return lfunctions.Character(m, tuple(values))


def _measure_class_in(data) -> measures.MeasureClass:
    op = _key(data, "op")
    if op == "point":
        return measures.point()
    if op == "affine_space":
        return measures.affine_space(_int_key(data, "n"))
    if op == "projective_space":
        return measures.projective_space(_int_key(data, "n"))
    if op == "torus":
        return measures.torus()
    raw = _key(data, "args")
    if not (isinstance(raw, list) and len(raw) >= (2 if op == "difference" else 1)):
        raise ValidationError(f"the arguments of {op!r} must be a list of classes, got {raw!r}")
    if op == "scale":
        return _measure_class_in(raw[0]).scale(_int_key(data, "n"))
    args = [_measure_class_in(a) for a in raw]
    if op == "sum":
        out = args[0]
        for a in args[1:]:
            out = out + a
        return out
    if op == "product":
        out = args[0]
        for a in args[1:]:
            out = out * a
        return out
    if op == "difference":
        return args[0] - args[1]
    raise ValidationError(f"unknown class builder {op!r}")


# --- subcommand handlers: the --in document arrives as `data`, each flag
# under its own name; each returns the payload, which serialize.canonical
# encodes.  The handlers that read a variety import `varieties` and
# `lfunctions`, and so numpy, when they run; no other row loads numpy ---


def cmd_motive_zeta(data, precision):
    m = TracedMotive.from_json(data)
    return {
        "series": motives.zeta_series(m, precision),
        "rational": motives.zeta_rational(m),
        "degrees": list(motives.zeta_degrees(m)),
    }


def cmd_motive_feq(data):
    report = motives.check_functional_equation(TracedMotive.from_json(data))
    return {
        "holds": report.holds,
        "trace_of_identity": report.trace_of_identity,
        "det": report.det_value,
        "lhs": report.lhs,
        "rhs": report.rhs,
    }


def cmd_motive_traces(data, nmax):
    return {"traces": list(motives.trace_sequence(TracedMotive.from_json(data), nmax))}


def cmd_motive_det(data):
    return {"det": motives.determinant(TracedMotive.from_json(data))}


def cmd_motive_growth(data, nmax):
    m = TracedMotive.from_json(data)
    rho_p, rho_m, rho = analytic.spectral_radius(m)
    exact = analytic.rate_exact(m)
    traces = motives.trace_sequence(m, nmax)
    return {
        "spectral_radius": {"plus": rho_p, "minus": rho_m, "rho": rho},
        "rate_exact": "inapplicable" if isinstance(exact, analytic.Inapplicable) else exact,
        "rate_estimate": analytic.rate_estimate(list(traces)),
        "growth_bound_holds": analytic.growth_bound_check(m, nmax),
    }


def _witt_pair(data):
    return [WittElement(TruncatedSeries.from_json(_key(data, name))) for name in ("a", "b")]


def cmd_witt_add(data):
    return witt_add(*_witt_pair(data))


def cmd_witt_mul(data):
    return witt_mul(*_witt_pair(data))


def cmd_witt_ghost(data, nmax):
    w = WittElement(TruncatedSeries.from_json(data))
    # nmax is None or >= 1: left out, it is the input's precision
    return {"ghosts": ghost_components(w, nmax or w.precision)}


def _reconstruction_payload(result):
    if isinstance(result, reconstruct.NotStabilized):
        return {
            "stabilized": False,
            "profile": result.profile,
            "order": result.order,
            "reason": result.reason,
        }
    return {
        "stabilized": True,
        "value": result.value,
        "degree": result.degree,
        "stabilized_at": result.stabilized_at,
        "residual_checked_to": result.residual_checked_to,
    }


def cmd_reconstruct_bm(data):
    seq = _key(data, "sequence") if isinstance(data, dict) else data
    return _reconstruction_payload(reconstruct.berlekamp_massey(_json_list(seq, "sequence")))


def cmd_reconstruct_traces(data):
    seq = _key(data, "traces") if isinstance(data, dict) else data
    return _reconstruction_payload(reconstruct.traces_to_zeta(_json_list(seq, "traces")))


def cmd_variety_count(data, nmax, budget):
    from . import varieties

    return {"counts": varieties.point_counts(varieties.VarietySpec.from_json(data), nmax, budget)}


def cmd_variety_zeta(data, nmax, budget):
    from . import varieties

    return varieties.zeta_from_counts(varieties.VarietySpec.from_json(data), nmax, budget)


def cmd_variety_weil(data, dim, nmax, budget):
    from . import varieties

    return varieties.weil_check(varieties.VarietySpec.from_json(data), dim, nmax, budget)


def cmd_variety_closed_points(data, nmax, budget):
    from . import varieties

    return {"closed_points": varieties.closed_points(varieties.VarietySpec.from_json(data), nmax, budget)}


def _variety_and_action(data):
    from . import lfunctions, varieties

    v = varieties.VarietySpec.from_json(_key(data, "variety"))
    return v, lfunctions.GroupAction(v, _key(data, "action"))


def cmd_lfun(data, nmax, budget):
    from . import lfunctions

    v, action = _variety_and_action(data)
    character = _character_in(_key(data, "character"), action)
    return lfunctions.l_function(v, action, character, nmax, budget)


def cmd_orbifold(data, nmax, budget):
    from . import lfunctions

    return lfunctions.orbifold_zeta(*_variety_and_action(data), nmax, budget)


def cmd_artin_mazur(data, nmax):
    traces = motives.artin_mazur_traces(_int_key(data, "p"), _int_key(data, "m"), nmax)
    result = reconstruct.berlekamp_massey(traces)
    return {
        "traces": traces,
        "profile": result.profile,
        "reconstruction": _reconstruction_payload(result),
    }


def _motive_q_in(data):
    """The motive of {"motive": ..., "samples": ...} or of a bare motive,
    with the object that may hold the samples."""
    if isinstance(data, dict) and "motive" in data:
        return TracedMotive.from_json(data["motive"]), data
    return TracedMotive.from_json(data), {}


def cmd_hw_eval(data, q):
    m, data = _motive_q_in(data)
    samples = _samples_in(data, [])
    values = [analytic.hasse_weil_eval(m, q, s) for s in samples]
    return {"values": [{"s": s, "value": v} for s, v in zip(samples, values)]}


def cmd_hw_poles(data, q):
    m, data = _motive_q_in(data)
    return analytic.poles_and_zeros(m, q, _samples_in(data, []))


def cmd_hw_abscissa(data, q):
    return {"abscissa": analytic.convergence_abscissa(_motive_q_in(data)[0], q)}


def cmd_theta(data, q):
    return analytic.theta_construction(_motive_q_in(data)[0], q)


def cmd_regdet_check(data, q):
    m, data = _motive_q_in(data)
    samples = _samples_in(data, [2.0])
    return {"passes": analytic.regularized_det_check(m, q, samples)}


def cmd_numk0_compute(data):
    return k0.num_grothendieck(k0.EulerGram.from_rows(_key(data, "chi")))


def cmd_numk0_beilinson(dim):
    gram = k0.beilinson_gram(dim)
    return {"gram": gram, "report": k0.num_grothendieck(gram)}


def cmd_numk0_quiver(data):
    arrows = _key(data, "arrows")
    if not (isinstance(arrows, list) and all(isinstance(a, list) and len(a) == 2 for a in arrows)):
        raise ValidationError(f"arrows must be a list of [source, target] pairs, got {arrows!r}")
    vertices, arrows = _int_key(data, "vertices"), [tuple(_json_int(x, "arrow end") for x in a) for a in arrows]
    k0.check_quiver(vertices, arrows)  # then the least its kernels cost, before it is built
    k0.charge_hermite(vertices)
    gram = k0.quiver_gram(vertices, arrows)
    return {"gram": gram, "report": k0.num_grothendieck(gram)}


def cmd_measure_eval(data, q):
    cls = _measure_class_in(data)
    out = {
        "poly": cls.poly,
        "mu_rig": measures.mu_rig(cls),
        "mu_nc": measures.mu_nc_composite(cls),
        "in_cell_span": cls.in_cell_span,
    }
    if q is not None:  # --q is optional here: given, it adds the count over F_q
        out["q"] = q
        out["mu_count"] = measures.mu_count(cls, q)
    return out


def cmd_measure_witness(n, q):
    return measures.non_factoring_witness(n, q)


REQUIRED = object()  # the default of a flag that must be given
IO = {"in": REQUIRED, "out": None}

# The only declaration of the CLI's commands and flags: a subcommand takes
# exactly the flags of its row (every row has --out) and no other.
COMMANDS = (
    ("motive zeta", cmd_motive_zeta, {**IO, "precision": DEFAULT_PRECISION}),
    ("motive feq", cmd_motive_feq, IO),
    ("motive traces", cmd_motive_traces, {**IO, "nmax": REQUIRED}),
    ("motive det", cmd_motive_det, IO),
    ("motive growth", cmd_motive_growth, {**IO, "nmax": REQUIRED}),
    ("witt add", cmd_witt_add, IO),
    ("witt mul", cmd_witt_mul, IO),
    ("witt ghost", cmd_witt_ghost, {**IO, "nmax": None}),
    ("reconstruct bm", cmd_reconstruct_bm, IO),
    ("reconstruct traces", cmd_reconstruct_traces, IO),
    ("variety count", cmd_variety_count, {**IO, "nmax": 1, "budget": None}),
    ("variety zeta", cmd_variety_zeta, {**IO, "nmax": DEFAULT_PRECISION, "budget": None}),
    ("variety weil", cmd_variety_weil, {**IO, "dim": REQUIRED, "nmax": 8, "budget": None}),
    ("variety closed-points", cmd_variety_closed_points, {**IO, "nmax": 3, "budget": None}),
    ("lfun", cmd_lfun, {**IO, "nmax": 5, "budget": None}),
    ("orbifold", cmd_orbifold, {**IO, "nmax": 5, "budget": None}),
    ("artin-mazur", cmd_artin_mazur, {**IO, "nmax": 24}),
    ("hw eval", cmd_hw_eval, {**IO, "q": REQUIRED}),
    ("hw poles", cmd_hw_poles, {**IO, "q": REQUIRED}),
    ("hw abscissa", cmd_hw_abscissa, {**IO, "q": REQUIRED}),
    ("theta", cmd_theta, {**IO, "q": REQUIRED}),
    ("regdet-check", cmd_regdet_check, {**IO, "q": REQUIRED}),
    ("numk0 compute", cmd_numk0_compute, IO),
    ("numk0 beilinson", cmd_numk0_beilinson, {"out": None, "dim": REQUIRED}),
    ("numk0 quiver", cmd_numk0_quiver, IO),
    ("measure eval", cmd_measure_eval, {**IO, "q": None}),
    ("measure witness", cmd_measure_witness, {"out": None, "n": REQUIRED, "q": REQUIRED}),
)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


# how each flag's value is read
_TYPES = {
    "in": str, "out": str, "precision": _at_least_one, "nmax": _at_least_one,
    "budget": int, "q": int, "dim": int, "n": int,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage mistakes raise ValidationError, so that they
    leave as an envelope with exit 1, and that reads no abbreviated flags
    (--n is never --nmax)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def _parser(words: str | None) -> argparse.ArgumentParser:
    """The parser of the COMMANDS row named by words, or of every row when
    words is None, built on the first call and shared by later ones.  A
    one-row parser is the full tree cut down to that row, so it reads a
    command line of that row, and refuses its mistakes, word for word as
    the full tree does."""
    parser = _Parser(
        prog="motivic-zeta",
        description="Exact zeta and L-function computations for graded "
        "endomorphisms, finite-field point counts, and numerical "
        "Grothendieck groups.",
    )
    subcommands = {"": parser.add_subparsers(required=True)}
    for row, handler, flags in COMMANDS:
        if words is not None and row != words:
            continue
        group, _, name = row.rpartition(" ")
        if group not in subcommands:
            subcommands[group] = subcommands[""].add_parser(group).add_subparsers(required=True)
        leaf = subcommands[group].add_parser(name)
        leaf.set_defaults(handler=handler)
        for flag, default in flags.items():
            leaf.add_argument(f"--{flag}", type=_TYPES[flag], default=default, required=default is REQUIRED)
    return parser


def _row_words(argv: list[str]) -> str | None:
    """The words of the COMMANDS row that argv begins with, or None when it
    names no row (--help, an empty, partial or unknown command)."""
    return next((words for words, *_ in COMMANDS if argv[: words.count(" ") + 1] == words.split()), None)


# each library error's status and exit code, the first match wins
_FAILURES = (
    (ResourceError, "resource_error", 2),
    (NumericError, "numeric_error", 3),
    (PreconditionError, "precondition_error", 1),
    (MotivicZetaError, "validation_error", 1),
)


def _open_out(path: str | None):
    """The --out file, opened before the handler runs so that an unwritable
    path is reported, on stdout, in place of the result."""
    if not path:
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write --out: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    infile, out = None, sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        flags = vars(_parser(_row_words(argv)).parse_args(argv))
        handler, infile = flags.pop("handler"), flags.get("in")
        out = _open_out(flags.pop("out"))
        if "in" in flags:
            flags["data"] = _load(flags.pop("in"))
        text, code = dumps({"status": "ok", "payload": handler(**flags)}), 0
    except MotivicZetaError as exc:
        status, code = next((s, c) for kind, s, c in _FAILURES if isinstance(exc, kind))
        payload = {"reason": str(exc), "input": infile}
        if isinstance(exc, ResourceError):  # charge keeps both printable
            payload.update(required=exc.required, budget=exc.budget)
        text = dumps({"status": status, "payload": payload})
    out.write(text + "\n")
    if out is not sys.stdout:
        out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
