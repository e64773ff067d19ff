"""The cost model: every route answers or is refused by errors.charge
before its work, on inputs that used to stall or end in a raw traceback.

Each case runs in-process under a 5 s signal.alarm.  The alarm only
detects a hang; it is not a speed bound, and every case here ends in well
under a second."""

import ast
import contextlib
import importlib
import json
import signal
from pathlib import Path

import pytest

import motivic_zeta
from motivic_zeta import k0, varieties
from motivic_zeta.cli import main
from motivic_zeta.errors import DEFAULT_BUDGET, OUTPUT_DIGITS, ResourceError
from motivic_zeta.gf import fq_make
from motivic_zeta.reconstruct import MAX_BITS
from motivic_zeta.varieties import VarietySpec, count_points, enumerate_points, point_counts, projective_space, twisted_count

from conftest import load_json

QUAD = [[[2, 0], 1], [[0, 2], 1]]  # x0^2 + x1^2: its one chart counts its roots in closed form


def p1(e, equations, p=5):
    return {"ambient": {"projective": 1}, "p": p, "e": e, "equations": equations}


def sign_action(variety):
    return {"variety": variety, "action": [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]]}


SEARCH, DESCENT, SIZES = "modulus search", "twist descent", "chart sizes"
# y^2 + x y + x^3 + 1 over F_2: quadratic in y, so each n passes over the
# 2^n rows of F_{2^n}, whose tables and modulus search it charges
F2_CURVE = {"ambient": {"affine": 2}, "p": 2, "equations": [[[[0, 2], 1], [[1, 1], 1], [[3, 0], 1], [[0, 0], 1]]]}

# (id, argv without --in, the --in document or None, the outcome: "ok" or
# a word of the refused kind's reason)
CLI_CASES = [
    # defect 7: a large base-field degree stalled in fq_make's modulus
    # search; P^1 itself needs no field, so its closed form answers, too
    # wide to print
    ("p1-e100000", ["variety", "count"], p1(100000, []), "digits of an output integer"),
    ("quadric-e100000", ["variety", "count"], p1(100000, [QUAD]), SEARCH),
    ("quadric-e10^40", ["variety", "zeta"], p1(10**40, [QUAD]), SEARCH),
    ("closed-points-e100000", ["variety", "closed-points"], p1(100000, [QUAD]), SEARCH),
    ("list-coefficient-e400", ["variety", "count"], p1(400, [[[[1, 1], [1]]]], p=2), SEARCH),
    ("lfun-e100000", ["lfun"], {**sign_action(p1(100000, [])), "character": {"m": 1, "values": [1, -1]}}, SEARCH),
    ("orbifold-e100000", ["orbifold"], sign_action(p1(100000, [])), SEARCH),
    # the searches of the fields F_{2^n} one count builds are summed: under
    # a budget of 200000, n = 2..16 is the first run past it (PINS), while
    # each n alone fits; counted by its roots over F_5, the quadric builds
    # no field at any n (--nmax 42 searched them all and took 17.5 s)
    ("f2-curve-nmax60", ["variety", "count", "--nmax", "60", "--budget", "200000"], F2_CURVE, SEARCH),
    ("quadric-nmax60", ["variety", "count", "--nmax", "60"], p1(1, [QUAD]), "ok"),
    ("quadric-nmax42", ["variety", "count", "--nmax", "42"], p1(1, [QUAD]), "ok"),
    ("quadric-nmax20", ["variety", "count", "--nmax", "20"], p1(1, [QUAD]), "ok"),
    # chart sizes are read from the ambient and summed over the call before
    # any chart is made: P^1 at n = 1..20656 is the first run past 10^7
    # (PINS); charged one n at a time, --nmax 40000 took 12.8 s in its
    # closed forms before the digit limit refused it
    ("p1-nmax100000", ["variety", "count", "--nmax", "100000"], load_json("p1_f5_variety.json"), SIZES),
    # the digits of the largest q^(n N) a call can print are charged after
    # its sizes, before any count: --nmax 20000 took 2.4 s to compute
    # 5^1..5^20000 before the printer refused 5^6153 (4301 digits)
    ("p1-nmax20000", ["variety", "count", "--nmax", "20000"], load_json("p1_f5_variety.json"), "digits of an output integer"),
    ("P^100000", ["variety", "count"], {"ambient": {"projective": 100000}, "p": 5}, SIZES),
    ("P^(10^40)", ["variety", "count"], {"ambient": {"projective": 10**40}, "p": 5}, SIZES),
    ("A^(10^40)", ["variety", "count"], {"ambient": {"affine": 10**40}, "p": 5}, SIZES),
    ("P^2000", ["variety", "count"], {"ambient": {"projective": 2000}, "p": 5}, "ok"),
    # Gram matrices are charged before they are allocated
    ("quiver-10^40", ["numk0", "quiver"], {"vertices": 10**40, "arrows": []}, "quiver Gram matrix"),
    ("quiver-10^5", ["numk0", "quiver"], {"vertices": 10**5, "arrows": []}, "quiver Gram matrix"),
    ("beilinson-10^5", ["numk0", "beilinson", "--dim", "100000"], None, "Beilinson Gram matrix"),
    ("beilinson-10^40", ["numk0", "beilinson", "--dim", str(10**40)], None, "Beilinson Gram matrix"),
    # a Gram that fits is charged its Hermite forms: this chain took 30.9 s,
    # and a 3000-vertex chain, refused by the lower bound before it is
    # built, took 2.7 s to build and refuse
    ("chain-3000", ["numk0", "quiver"], {"vertices": 3000, "arrows": [[i, i + 1] for i in range(2999)]}, "Hermite form"),
    ("chain-900", ["numk0", "quiver"], {"vertices": 900, "arrows": [[i, i + 1] for i in range(899)]}, "Hermite form"),
    # Artin-Mazur: the traces are charged against MAX_BITS, which lets
    # 701 through (once a cap of its own); at 800 Berlekamp-Massey refuses
    # with required 1244981 (PINS)
    ("artin-mazur-701", ["artin-mazur", "--nmax", "701"], {"p": 5, "m": 2}, "ok"),
    ("artin-mazur-800", ["artin-mazur", "--nmax", "800"], {"p": 5, "m": 2}, "Berlekamp-Massey"),
]
PINS = {
    "artin-mazur-800": (1244981, MAX_BITS),
    "f2-curve-nmax60": (sum(n**4 for n in range(2, 17)), 200000),
    "p1-nmax20000": (13980, 4300),  # 20000 log10(5) = 13979.4
    "p1-nmax100000": (3 * 20656 * 20657 // 2 >> 6, DEFAULT_BUDGET),
    "chain-3000": (3000**3 // 8, DEFAULT_BUDGET),
}


@contextlib.contextmanager
def alarm(seconds, what):
    def hang(signum, frame):
        raise AssertionError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name, argv, data, outcome", CLI_CASES, ids=[case[0] for case in CLI_CASES])
def test_every_route_answers_or_is_refused_at_once(tmp_path, monkeypatch, name, argv, data, outcome):
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    out = tmp_path / "out.json"
    if data is not None:
        (tmp_path / "in.json").write_text(json.dumps(data))
        argv = argv + ["--in", str(tmp_path / "in.json")]
    with alarm(5, argv):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2, 3)
    envelope = json.loads(out.read_text())
    assert set(envelope) == {"status", "payload"}
    if outcome == "ok":
        assert (code, envelope["status"]) == (0, "ok")
        return
    payload = envelope["payload"]
    assert (code, envelope["status"]) == (2, "resource_error"), payload
    assert payload["required"] > payload["budget"]
    assert outcome in payload["reason"]
    assert name not in PINS or (payload["required"], payload["budget"]) == PINS[name]


def test_the_quiver_handler_charges_its_kernels_before_the_gram_is_built(tmp_path, monkeypatch):
    """numk0 quiver charges the least Hermite work any Gram of its order
    costs, vertices^3 / 8, before it builds the Gram."""
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    monkeypatch.setattr(k0, "quiver_gram", lambda *args: pytest.fail("the Gram was built before its kernels were charged"))
    ((name, argv, data, _),) = [case for case in CLI_CASES if case[0] == "chain-3000"]
    (tmp_path / "in.json").write_text(json.dumps(data))
    assert main(argv + ["--in", str(tmp_path / "in.json"), "--out", str(tmp_path / "out.json")]) == 2
    payload = json.loads((tmp_path / "out.json").read_text())["payload"]
    assert "Hermite form" in payload["reason"]
    assert (payload["required"], payload["budget"]) == PINS[name]


FERMAT_13 = VarietySpec("projective", 2, 13, 1, ((((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)),))
# the companion matrix of t^3 - 12 t - 7 over F_13 has projective order 183
ORDER_183 = [[0, 0, 7], [1, 0, 12], [0, 1, 0]]


def affine(nv, p, equation):
    return VarietySpec("affine", nv, p, 1, (equation,))


# library routes with no CLI row: (id, call, the refused kind)
LIBRARY_CASES = [
    # defect 8: 5 has order 5003 mod 10007, and every invertible matrix has
    # a finite order, so the search is stopped by the descent's charge
    ("scalar-order-5003", lambda: twisted_count(affine(1, 10007, (((2,), 1), ((0,), -1))), [[5]], 1), DESCENT),
    ("diag-order-5003", lambda: twisted_count(affine(3, 10007, (((2, 0, 0), 1), ((0, 0, 0), -1))), [[5, 0, 0], [0, 1, 0], [0, 0, 1]], 1), DESCENT),
    ("fermat-order-183", lambda: twisted_count(FERMAT_13, ORDER_183, 1), DESCENT),
    ("artin-mazur-10^6", lambda: motivic_zeta.artin_mazur_traces(5, 2, 10**6), "Artin-Mazur traces"),
    # the descent of x -> -x builds F_{5^60} alone, charged first
    ("quadric-n60", lambda: twisted_count(VarietySpec.from_json(p1(1, [QUAD])), [[-1, 0], [0, 1]], 60), SEARCH),
    ("enumerate-P^(10^40)", lambda: enumerate_points(projective_space(10**40, 5)), SIZES),
]


def test_counting_and_listing_charge_chart_sizes_by_one_rule(monkeypatch):
    """Chart sizes are read from the ambient, so counting and listing the
    points of P^15000 over F_25 are refused with one required: the words of
    its sizes 25^f, f < 15001, at 6 bits per variable."""
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    refusals = []
    for route in (count_points, enumerate_points):
        with alarm(5, route.__name__), pytest.raises(ResourceError, match=SIZES) as err:
            route(projective_space(15000, 5), 2)
        refusals.append((err.value.required, err.value.budget))
    assert refusals == [(15001 * 15000 // 2 * 6 >> 6, DEFAULT_BUDGET)] * 2


@pytest.mark.parametrize("call, kind", [case[1:] for case in LIBRARY_CASES], ids=[case[0] for case in LIBRARY_CASES])
def test_every_library_route_is_refused_at_once(monkeypatch, call, kind):
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    with alarm(5, kind), pytest.raises(ResourceError, match=kind) as err:
        call()
    assert err.value.required > err.value.budget == (MAX_BITS if "Artin" in kind else DEFAULT_BUDGET)


def test_refusals_come_before_the_work_they_refuse(monkeypatch):
    """With the modulus search of a large field and the Ben-Or search of a
    descent stubbed to fail, the routes above still end in their refusals:
    without the charges they would reach the stubs."""

    def forbidden(*args):
        raise AssertionError(f"ran before its charge: {args}")

    monkeypatch.setattr(varieties, "fq_make", lambda p, e: forbidden(p, e) if e > 42 else fq_make(p, e))
    monkeypatch.setattr(varieties, "_relative_modulus", forbidden)
    with pytest.raises(ResourceError, match=SEARCH) as err:
        twisted_count(VarietySpec.from_json(p1(1, [QUAD])), [[-1, 0], [0, 1]], 60)
    assert (err.value.required, err.value.budget) == (60**4 * 3, DEFAULT_BUDGET)
    with pytest.raises(ResourceError, match=DESCENT):
        twisted_count(FERMAT_13, ORDER_183, 1)
    with pytest.raises(ResourceError, match=SEARCH):
        VarietySpec.from_json(p1(400, [[[[1, 1], [1]]]], p=2))


def test_one_count_sums_the_searches_of_its_distinct_fields(monkeypatch):
    """Under a budget of 200000, the searches for F_{2^2}..F_{2^15} fit
    together (sum n^4 = 178311), so the count of F2_CURVE reaches its first
    field; one more field (243847), or the same requests once more, is
    charged before any field is built."""

    class Built(Exception):
        pass

    def build(p, e):
        if e > 1:
            raise Built(e)
        return fq_make(p, e)

    monkeypatch.setattr(varieties, "fq_make", build)
    v = VarietySpec.from_json(F2_CURVE)
    with pytest.raises(Built):
        point_counts(v, 15, budget=200000)
    with pytest.raises(ResourceError, match=SEARCH) as err:
        point_counts(v, 16, budget=200000)
    assert (err.value.required, err.value.budget) == (243847, 200000)
    what = varieties._what(v, None)
    with pytest.raises(Built):  # a field counted over twice is searched once
        varieties._counts([(what, n) for n in range(1, 16)] * 2, 200000)


def test_the_quadric_that_searched_its_fields_answers():
    """x0^2 + x1^2 over F_5, refused at --nmax 28 and at n = 60 by the
    searches of F_{5^n}, counts its two roots (-1 is a square mod 5) over
    F_5 at every n."""
    assert point_counts(VarietySpec.from_json(p1(1, [QUAD])), 60) == [2] * 60


def test_the_budgets_table_lists_every_charge_kind():
    """Each kind a module of the package passes to errors.charge, a literal
    or a constant read in that module, and charge_digits's OUTPUT_DIGITS,
    is a row of README's Budgets table."""
    src = Path(motivic_zeta.__file__).resolve().parent
    kinds = set()
    for path in sorted(src.glob("*.py")):
        module = vars(importlib.import_module(f"motivic_zeta.{path.stem}" if path.stem != "__init__" else "motivic_zeta"))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "charge":
                    kinds.add(eval(ast.unparse(node.args[0]), module))
                elif name == "charge_digits":
                    kinds.add(OUTPUT_DIGITS)
    section = (src.parent.parent / "README.md").read_text().split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")}
    assert len(kinds) >= 12 and all(isinstance(kind, str) for kind in kinds)
    assert kinds <= rows, sorted(kinds - rows)
