"""Command-line front end.

Every subcommand delegates to one library operation, reads JSON input via
--in, and writes a canonical-JSON CommandResult envelope to stdout or
--out.  Exit codes: 0 ok, 1 validation/precondition, 2 resource limit,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analytic, k0, lfunctions, measures, motives, reconstruct, varieties
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
from .series import DEFAULT_PRECISION, WittElement, ghost_components, witt_add, witt_mul
from .varieties import VarietySpec


def _load(path: str):
    if path is None:
        raise ValidationError("this command requires --in FILE")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}")


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


def _motive_in(args) -> TracedMotive:
    return TracedMotive.from_json(_load(args.infile))


def _variety_in(data) -> VarietySpec:
    return VarietySpec.from_json(data)


def _action_in(v: VarietySpec, data) -> lfunctions.GroupAction:
    return lfunctions.GroupAction(v, data)


def _character_in(data) -> lfunctions.Character:
    raw = _json_list(_key(data, "values"), "values")
    m = _json_int(data.get("m", 1), "m")
    values = []
    for val in raw:
        if isinstance(val, dict):
            values.append(
                lfunctions.Cyclotomic(
                    _json_int(val.get("m", m), "m"),
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


# --- subcommand handlers; each returns the payload dict ---


def cmd_motive_zeta(args):
    m = _motive_in(args)
    return {
        "series": motives.zeta_series(m, args.precision).to_json(),
        "rational": motives.zeta_rational(m).to_json(),
        "degrees": list(motives.zeta_degrees(m)),
    }


def cmd_motive_feq(args):
    report = motives.check_functional_equation(_motive_in(args))
    return {
        "holds": report.holds,
        "trace_of_identity": report.trace_of_identity,
        "det": report.det_value,
        "lhs": report.lhs.to_json(),
        "rhs": report.rhs.to_json(),
    }


def cmd_motive_traces(args):
    traces = motives.trace_sequence(_motive_in(args), args.nmax)
    return {"traces": list(traces)}


def cmd_motive_det(args):
    return {"det": motives.determinant(_motive_in(args))}


def cmd_motive_growth(args):
    m = _motive_in(args)
    rho_p, rho_m, rho = analytic.spectral_radius(m)
    exact = analytic.rate_exact(m)
    traces = motives.trace_sequence(m, args.nmax)
    return {
        "spectral_radius": {"plus": rho_p, "minus": rho_m, "rho": rho},
        "rate_exact": "inapplicable" if isinstance(exact, analytic.Inapplicable) else exact,
        "rate_estimate": analytic.rate_estimate(list(traces)),
        "growth_bound_holds": analytic.growth_bound_check(m, args.nmax),
    }


def _witt_pair(args):
    data = _load(args.infile)
    from .series import TruncatedSeries

    a = WittElement(TruncatedSeries.from_json(_key(data, "a")))
    b = WittElement(TruncatedSeries.from_json(_key(data, "b")))
    return a, b


def cmd_witt_add(args):
    a, b = _witt_pair(args)
    return witt_add(a, b).to_json()


def cmd_witt_mul(args):
    a, b = _witt_pair(args)
    return witt_mul(a, b).to_json()


def cmd_witt_ghost(args):
    from .series import TruncatedSeries

    data = _load(args.infile)
    w = WittElement(TruncatedSeries.from_json(data))
    n = args.nmax if args.nmax is not None else w.precision
    return {"ghosts": ghost_components(w, n)}


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
        "value": result.value.to_json(),
        "degree": result.degree,
        "stabilized_at": result.stabilized_at,
        "residual_checked_to": result.residual_checked_to,
    }


def cmd_reconstruct_bm(args):
    data = _load(args.infile)
    seq = _key(data, "sequence") if isinstance(data, dict) else data
    return _reconstruction_payload(reconstruct.berlekamp_massey(_json_list(seq, "sequence")))


def cmd_reconstruct_traces(args):
    data = _load(args.infile)
    seq = _key(data, "traces") if isinstance(data, dict) else data
    return _reconstruction_payload(reconstruct.traces_to_zeta(_json_list(seq, "traces")))


def cmd_variety_count(args):
    v = _variety_in(_load(args.infile))
    n_max = args.nmax or 1
    counts = [varieties.count_points(v, n, args.budget) for n in range(1, n_max + 1)]
    return {"counts": counts}


def cmd_variety_zeta(args):
    v = _variety_in(_load(args.infile))
    n_max = args.nmax or DEFAULT_PRECISION
    return varieties.zeta_from_counts(v, n_max, args.budget).to_json()


def cmd_variety_weil(args):
    v = _variety_in(_load(args.infile))
    if args.dim is None:
        raise ValidationError("weil check requires --dim")
    return varieties.weil_check(v, args.dim, args.nmax or 8, args.budget).to_json()


def cmd_variety_closed_points(args):
    v = _variety_in(_load(args.infile))
    return {"closed_points": varieties.closed_points(v, args.nmax or 3, args.budget)}


def cmd_lfun(args):
    data = _load(args.infile)
    v = _variety_in(_key(data, "variety"))
    action = _action_in(v, _key(data, "action"))
    character = _character_in(_key(data, "character"))
    n_max = args.nmax or 5
    return lfunctions.l_function(v, action, character, n_max, args.budget).to_json()


def cmd_orbifold(args):
    data = _load(args.infile)
    v = _variety_in(_key(data, "variety"))
    action = _action_in(v, _key(data, "action"))
    n_max = args.nmax or 5
    return lfunctions.orbifold_zeta(v, action, n_max, args.budget).to_json()


def cmd_artin_mazur(args):
    data = _load(args.infile)
    traces = varieties.artin_mazur_traces(_int_key(data, "p"), _int_key(data, "m"), args.nmax or 24)
    result = reconstruct.berlekamp_massey(traces)
    return {
        "traces": traces,
        "profile": result.profile,
        "reconstruction": _reconstruction_payload(result),
    }


def _motive_q_in(args):
    data = _load(args.infile)
    if "motive" in data:
        m = TracedMotive.from_json(data["motive"])
    else:
        m = TracedMotive.from_json(data)
        data = {}
    if args.q is None:
        raise ValidationError("this command requires --q")
    return m, args.q, data


def cmd_hw_eval(args):
    m, q, data = _motive_q_in(args)
    samples = _samples_in(data, [])
    values = [analytic.hasse_weil_eval(m, q, s) for s in samples]
    return {"values": [{"s": s, "value": v} for s, v in zip(samples, values)]}


def cmd_hw_poles(args):
    m, q, data = _motive_q_in(args)
    samples = _samples_in(data, [])
    return analytic.poles_and_zeros(m, q, samples).to_json()


def cmd_hw_abscissa(args):
    m, q, _ = _motive_q_in(args)
    return {"abscissa": analytic.convergence_abscissa(m, q)}


def cmd_theta(args):
    m, q, _ = _motive_q_in(args)
    return analytic.theta_construction(m, q).to_json()


def cmd_regdet_check(args):
    m, q, data = _motive_q_in(args)
    samples = _samples_in(data, [{"re": 2.0, "im": 0.0}])
    return {"passes": analytic.regularized_det_check(m, q, samples)}


def cmd_numk0_compute(args):
    gram = k0.EulerGram.from_rows(_key(_load(args.infile), "chi"))
    return k0.num_grothendieck(gram).to_json()


def cmd_numk0_beilinson(args):
    if args.dim is None:
        raise ValidationError("beilinson requires --dim")
    gram = k0.beilinson_gram(args.dim)
    return {"gram": gram.to_json(), "report": k0.num_grothendieck(gram).to_json()}


def cmd_numk0_quiver(args):
    data = _load(args.infile)
    arrows = _key(data, "arrows")
    if not (isinstance(arrows, list) and all(isinstance(a, list) and len(a) == 2 for a in arrows)):
        raise ValidationError(f"arrows must be a list of [source, target] pairs, got {arrows!r}")
    gram = k0.quiver_gram(_int_key(data, "vertices"), [tuple(_json_int(x, "arrow end") for x in a) for a in arrows])
    return {"gram": gram.to_json(), "report": k0.num_grothendieck(gram).to_json()}


def cmd_measure_eval(args):
    cls = _measure_class_in(_load(args.infile))
    out = {
        "poly": cls.poly.to_json(),
        "mu_rig": measures.mu_rig(cls),
        "mu_nc": measures.mu_nc_composite(cls).to_json(),
        "in_cell_span": cls.in_cell_span,
    }
    if args.q is not None:
        out["q"] = args.q
        out["mu_count"] = measures.mu_count(cls, args.q)
    return out


def cmd_measure_witness(args):
    if args.n is None or args.q is None:
        raise ValidationError("witness requires --n and --q")
    return measures.non_factoring_witness(args.n, args.q).to_json()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="motivic-zeta",
        description="Exact zeta and L-function computations for graded "
        "endomorphisms, finite-field point counts, and numerical "
        "Grothendieck groups.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    # the flags every leaf takes, declared once and shared by all of them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", default=None)
    common.add_argument("--out", dest="outfile", default=None)
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    common.add_argument("--nmax", type=int, default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--q", type=int, default=None)
    common.add_argument("--dim", type=int, default=None)
    common.add_argument("--n", type=int, default=None)

    def leaf(sub, name, handler):
        sub.add_parser(name, parents=[common]).set_defaults(handler=handler)

    motive = top.add_parser("motive").add_subparsers(dest="op", required=True)
    leaf(motive, "zeta", cmd_motive_zeta)
    leaf(motive, "feq", cmd_motive_feq)
    leaf(motive, "traces", cmd_motive_traces)
    leaf(motive, "det", cmd_motive_det)
    leaf(motive, "growth", cmd_motive_growth)

    witt = top.add_parser("witt").add_subparsers(dest="op", required=True)
    leaf(witt, "add", cmd_witt_add)
    leaf(witt, "mul", cmd_witt_mul)
    leaf(witt, "ghost", cmd_witt_ghost)

    rec = top.add_parser("reconstruct").add_subparsers(dest="op", required=True)
    leaf(rec, "bm", cmd_reconstruct_bm)
    leaf(rec, "traces", cmd_reconstruct_traces)

    var = top.add_parser("variety").add_subparsers(dest="op", required=True)
    leaf(var, "count", cmd_variety_count)
    leaf(var, "zeta", cmd_variety_zeta)
    leaf(var, "weil", cmd_variety_weil)
    leaf(var, "closed-points", cmd_variety_closed_points)

    leaf(top, "lfun", cmd_lfun)
    leaf(top, "orbifold", cmd_orbifold)
    leaf(top, "artin-mazur", cmd_artin_mazur)

    hw = top.add_parser("hw").add_subparsers(dest="op", required=True)
    leaf(hw, "eval", cmd_hw_eval)
    leaf(hw, "poles", cmd_hw_poles)
    leaf(hw, "abscissa", cmd_hw_abscissa)

    leaf(top, "theta", cmd_theta)
    leaf(top, "regdet-check", cmd_regdet_check)

    nk = top.add_parser("numk0").add_subparsers(dest="op", required=True)
    leaf(nk, "compute", cmd_numk0_compute)
    leaf(nk, "beilinson", cmd_numk0_beilinson)
    leaf(nk, "quiver", cmd_numk0_quiver)

    meas = top.add_parser("measure").add_subparsers(dest="op", required=True)
    leaf(meas, "eval", cmd_measure_eval)
    leaf(meas, "witness", cmd_measure_witness)

    return parser


def _emit(result: dict, outfile: str | None) -> None:
    text = dumps(result)
    if outfile:
        with open(outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    infile = getattr(args, "infile", None)
    try:
        payload = args.handler(args)
    except ResourceError as exc:
        _emit(
            {
                "status": "resource_error",
                "payload": {
                    "reason": str(exc),
                    "required": exc.required,
                    "budget": exc.budget,
                    "input": infile,
                },
            },
            getattr(args, "outfile", None),
        )
        return 2
    except NumericError as exc:
        _emit(
            {"status": "numeric_error", "payload": {"reason": str(exc), "input": infile}},
            getattr(args, "outfile", None),
        )
        return 3
    except (ValidationError, PreconditionError, MotivicZetaError) as exc:
        status = (
            "precondition_error"
            if isinstance(exc, PreconditionError)
            else "validation_error"
        )
        _emit(
            {"status": status, "payload": {"reason": str(exc), "input": infile}},
            getattr(args, "outfile", None),
        )
        return 1
    except FileNotFoundError as exc:
        _emit(
            {
                "status": "validation_error",
                "payload": {"reason": str(exc), "input": infile},
            },
            getattr(args, "outfile", None),
        )
        return 1
    _emit({"status": "ok", "payload": payload}, getattr(args, "outfile", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
