"""What each job op runs, and how its output is checked.

`prepare` parses a job's inputs into library objects (part of set-up),
`run` calls public motivic_zeta names and turns the answer into plain
data, and `verify` compares that data with reference.py.  Library names
are looked up on the module at call time, so the traced run sees the
wrappers it installs.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import comb

import reference as ref

# --- set-up: inputs to library objects ---


def prepare(mz, job, workdir):
    if "variety" in job:
        return {"variety": mz.VarietySpec.from_json(job["variety"])}
    if "motive" in job:
        return {"motive": mz.TracedMotive.from_json(job["motive"])}
    if "motives" in job:
        return {"motives": [mz.TracedMotive.from_json(m) for m in job["motives"]]}
    if "gram" in job:
        return {"gram": mz.EulerGram.from_json(job["gram"])}
    if "series" in job:
        return {"series": [mz.WittElement(mz.TruncatedSeries.from_json(s)) for s in job["series"]]}
    if job["op"] == "cli":
        paths = {"in": str(workdir / f"{job['slot']}.in.json"), "out": str(workdir / f"{job['slot']}.out.json")}
        return {"argv": [a.format(**paths) for a in job["argv"]], "out": paths["out"]}
    return {}


# --- the timed calls ---


def _fractions(coeffs):
    return [str(Fraction(c)) for c in coeffs]


def _rational(rf):
    return [_fractions(rf.num.coeffs), _fractions(rf.den.coeffs)]


def _character(mz, spec):
    m = spec["m"]
    values = []
    for v in spec["values"]:
        coeffs = v if isinstance(v, list) else [v] + [0] * (m - 1)
        values.append(mz.Cyclotomic(m, tuple(Fraction(c) for c in coeffs)))
    return mz.Character(m, tuple(values))


def run(mz, job, prep):
    op = job["op"]
    if op == "count":
        return [mz.count_points(prep["variety"], n) for n in job["ns"]]
    if op == "closed_points":
        return mz.closed_points(prep["variety"], job["d_max"])
    if op == "weil":
        r = mz.weil_check(prep["variety"], job["dim"], job["n_max"])
        return {
            "stabilized": r.stabilized,
            "zeta": _rational(r.zeta) if r.zeta is not None else None,
            "counts": list(r.counts),
            "functional_equation_holds": r.functional_equation_holds,
            "rh_holds": r.rh_holds,
            "moduli": [float(x) for x in r.reciprocal_root_moduli],
        }
    if op == "lfun":
        v = prep["variety"]
        action = mz.GroupAction(v, job["action"])
        series = mz.l_function(v, action, _character(mz, job["character"]), job["n_max"])
        return [_fractions(c.coeffs) for c in series.coeffs]
    if op == "orbifold":
        v = prep["variety"]
        r = mz.orbifold_zeta(v, mz.GroupAction(v, job["action"]), job["n_max"])
        return {
            "traces": _fractions(r.traces),
            "direct": _fractions(r.direct.series.coeffs),
            "routes_agree": r.routes_agree,
        }
    if op == "twisted":
        return mz.twisted_count(prep["variety"], job["g"], job["n"])
    if op == "action_rejected":
        try:
            mz.GroupAction(prep["variety"], job["action"])
        except mz.ValidationError:
            return "ValidationError"
        return "accepted"
    if op == "zeta_series":
        return _fractions(mz.zeta_series(prep["motive"], job["precision"]).series.coeffs)
    if op == "zeta_rational":
        return _rational(mz.zeta_rational(prep["motive"]))
    if op == "feq":
        r = mz.check_functional_equation(prep["motive"])
        return {"holds": r.holds, "det": str(r.det_value)}
    if op == "traces_to_zeta":
        r = mz.traces_to_zeta(job["traces"])
        return _rational(r.value) if isinstance(r, mz.ReconstructionResult) else None
    if op == "hasse_weil":
        m = prep["motive"]
        values = [mz.hasse_weil_eval(m, job["q"], complex(*s)) for s in job["samples"]]
        return [[z.real, z.imag] for z in values]
    if op == "regdet":
        return mz.regularized_det_check(prep["motive"], job["q"], [complex(*s) for s in job["samples"]])
    if op == "tensor_zeta":
        t = mz.tensor(*prep["motives"])
        return {
            "series": _fractions(mz.zeta_series(t, job["precision"]).series.coeffs),
            "rational": _rational(mz.zeta_rational(t)),
            "dims": [t.d_plus, t.d_minus],
        }
    if op == "direct_sum_zeta":
        return _rational(mz.zeta_rational(mz.direct_sum(*prep["motives"])))
    if op == "witt_mul":
        return _fractions(mz.witt_mul(*prep["series"]).series.coeffs)
    if op in ("beilinson", "quiver", "num_k0"):
        if op == "beilinson":
            gram = mz.beilinson_gram(job["n"])
        elif op == "quiver":
            gram = mz.quiver_gram(job["vertices"], [tuple(a) for a in job["arrows"]])
        else:
            gram = prep["gram"]
        r = mz.num_grothendieck(gram)
        return {
            "chi": [list(row) for row in gram.chi],
            "rank": r.rank,
            "left_kernel_basis": r.left_kernel_basis,
            "right_kernel_basis": r.right_kernel_basis,
            "quotient_basis": r.quotient_basis,
        }
    if op == "smith":
        d, u, v = mz.k0.smith_normal_form(job["matrix"])
        return {"d": d, "u": u, "v": v}
    if op == "cli":
        code = mz.cli.main(prep["argv"])
        with open(prep["out"]) as fh:
            return {"code": code, "envelope": json.load(fh)}
    raise ValueError(f"unknown op {op!r}")


# --- checks against reference.py ---


def _check_cyclotomic_series(label, got, expect):
    """Coefficients in Q[x]/(x^m - 1), read at x = exp(2 pi i/m)."""
    m = expect["m"]
    want = expect["coeffs"]
    if len(got) != len(want):
        return [f"{label}: {len(got)} coefficients, want {len(want)}"]
    problems = []
    root = cmath.exp(2j * cmath.pi / m)
    for k, (c, w) in enumerate(zip(got, want)):
        if m == 1:
            problems += ref.check_equal(f"{label} t^{k}", Fraction(c[0]), Fraction(w))
        else:
            value = sum(float(Fraction(x)) * root ** j for j, x in enumerate(c))
            problems += ref.check_complex_close(f"{label} t^{k}", value, complex(w))
    return problems


def _check_cli(label, out, expect):
    env = out["envelope"]
    problems = ref.check_equal(f"{label} status", env.get("status"), expect["status"])
    exit_codes = {"ok": 0, "validation_error": 1}
    problems += ref.check_equal(f"{label} exit code", out["code"], exit_codes.get(env.get("status")))
    if problems or expect["status"] != "ok":
        return problems
    payload = env["payload"]
    if "counts" in expect:
        problems += ref.check_equal(f"{label} counts", payload.get("counts"), expect["counts"])
    if "weil" in expect:
        zeta = payload.get("zeta") or {"num": [], "den": []}
        report = {
            "stabilized": payload.get("stabilized"),
            "zeta": [zeta["num"], zeta["den"]],
            "counts": payload.get("counts"),
            "functional_equation_holds": payload.get("functional_equation_holds"),
            "rh_holds": payload.get("rh_holds"),
            "moduli": payload.get("reciprocal_root_moduli", []),
        }
        problems += ref.check_weil(label, report, expect["weil"]["p"], expect["weil"]["counts"])
    if "series" in expect:
        got = [Fraction(c) for c in payload.get("coeffs", [])]
        problems += ref.check_equal(f"{label} series", got, [Fraction(c) for c in expect["series"]])
    if "traces" in expect:
        got = [Fraction(c) for c in payload.get("traces", [])]
        problems += ref.check_equal(f"{label} traces", got, [Fraction(c) for c in expect["traces"]])
        if not payload.get("routes_agree"):
            problems.append(f"{label}: orbifold routes disagree")
    if "zeta" in expect:
        num, den = ref.motive_reference(expect["zeta"]["plus"], expect["zeta"]["minus"])
        rational = payload.get("rational", {})
        problems += ref.check_rational_function(
            f"{label} rational", (rational.get("num", []), rational.get("den", [])), num, den
        )
        got = payload.get("series", {}).get("coeffs", [])
        problems += ref.check_series_prefix(f"{label} series", got, ref.taylor(num, den, len(got) - 1))
    if "rank" in expect:
        report = payload.get("report", {})
        chi = payload.get("gram", {}).get("chi", [])
        n = len(chi)
        want_chi = [[comb(n - 1 + j - i, n - 1) if j >= i else 0 for j in range(n)] for i in range(n)]
        problems += ref.check_equal(f"{label} gram", chi, want_chi)
        problems += ref.check_num_k0(label, chi, report)
        problems += ref.check_equal(f"{label} rank", report.get("rank"), expect["rank"])
    return problems


def verify(job, out):
    """Problems with the output of one job; empty when it is right."""
    op, expect, label = job["op"], job["expect"], job["id"]
    if op in ("count", "closed_points", "twisted", "action_rejected"):
        return ref.check_equal(label, out, expect)
    if op == "weil":
        return ref.check_weil(label, out, expect["p"], expect["counts"])
    if op == "lfun":
        return _check_cyclotomic_series(label, out, expect)
    if op == "orbifold":
        traces = [Fraction(t) for t in out["traces"]]
        problems = ref.check_equal(f"{label} traces", traces, [Fraction(t) for t in expect])
        problems += ref.check_series_prefix(
            f"{label} series", out["direct"], ref.exp_of_power_sums(expect, len(expect))
        )
        if not out["routes_agree"]:
            problems.append(f"{label}: the two orbifold routes disagree")
        return problems
    if op == "zeta_series":
        num, den = ref.motive_reference(expect["plus"], expect["minus"])
        return ref.check_series_prefix(label, out, ref.taylor(num, den, job["precision"]))
    if op in ("zeta_rational", "traces_to_zeta", "direct_sum_zeta"):
        num, den = ref.motive_reference(expect["plus"], expect["minus"])
        return ref.check_rational_function(label, out, num, den)
    if op == "feq":
        problems = ref.check_equal(f"{label} det", Fraction(out["det"]), Fraction(expect["det"]))
        return problems + ([] if out["holds"] else [f"{label}: functional equation reported false"])
    if op == "hasse_weil":
        num, den = ref.motive_reference(expect["plus"], expect["minus"])
        problems = []
        for s, z in zip(job["samples"], out):
            problems += ref.check_hasse_weil(f"{label} s={s}", complex(*z), num, den, job["q"], complex(*s))
        return problems + ref.check_equal(f"{label} samples", len(out), len(job["samples"]))
    if op == "regdet":
        return ref.check_equal(label, out, True)
    if op == "tensor_zeta":
        precision = job["precision"]
        series = ref.exp_of_power_sums(expect["traces"], precision)
        num, den = out["rational"]
        d_plus, d_minus = out["dims"]
        problems = ref.check_series_prefix(f"{label} series", out["series"], series)
        if len(ref.poly_trim(num)) - 1 > d_minus or len(ref.poly_trim(den)) - 1 > d_plus:
            problems.append(f"{label}: degrees exceed the graded dimensions")
        return problems + ref.check_rational_against_series(f"{label} rational", out["rational"], series)
    if op == "witt_mul":
        return ref.check_series_prefix(label, out, ref.exp_of_power_sums(expect["traces"], len(out) - 1))
    if op in ("beilinson", "quiver", "num_k0"):
        chi = out["chi"]
        problems = []
        if op == "beilinson":
            n = job["n"]
            want = [[comb(n + j - i, n) if j >= i else 0 for j in range(n + 1)] for i in range(n + 1)]
            problems += ref.check_equal(f"{label} gram", chi, want)
        elif op == "quiver":
            v = job["vertices"]
            want = [[int(i == j) for j in range(v)] for i in range(v)]
            for a, b in job["arrows"]:
                want[a][b] -= 1
            problems += ref.check_equal(f"{label} gram", chi, want)
        else:
            problems += ref.check_equal(f"{label} gram", chi, job["gram"]["chi"])
        return problems + ref.check_num_k0(label, chi, out)
    if op == "smith":
        return ref.check_smith(label, job["matrix"], out["d"], out["u"], out["v"])
    if op == "cli":
        return _check_cli(label, out, expect)
    raise ValueError(f"unknown op {op!r}")
