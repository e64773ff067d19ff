"""CLI surface: envelopes, exit codes and canonical JSON output."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import motivic_zeta
from motivic_zeta import cli, lfunctions, measures
from motivic_zeta.cli import COMMANDS, REQUIRED, _parser, main
from motivic_zeta.gf import FqField
from motivic_zeta.reconstruct import MAX_BITS
from motivic_zeta.serialize import canonical, dumps

from conftest import FIXTURES, KLEIN_F5


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def fixture(name):
    return str(FIXTURES / name)


def test_motive_zeta(capsys):
    code, out = run(capsys, "motive", "zeta", "--in", fixture("p1_motive.json"))
    assert code == 0
    assert out["status"] == "ok"
    payload = out["payload"]
    # monic-denominator normal form of 1/((1-t)(1-5t))
    assert payload["rational"] == {"num": ["1/5"], "den": ["1/5", "-6/5", "1"]}
    assert payload["degrees"] == [-2, -2]
    assert payload["series"]["coeffs"][:3] == ["1", "6", "31"]


def test_motive_feq(capsys):
    code, out = run(capsys, "motive", "feq", "--in", fixture("elliptic_f5_motive.json"))
    assert code == 0
    assert out["payload"]["holds"] is True
    assert out["payload"]["det"] == "1"


def test_motive_det_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "m.json", {"f_plus": [["0"]], "f_minus": []})
    code, out = run(capsys, "motive", "det", "--in", path)
    assert code == 1
    assert out["status"] == "precondition_error"


def test_missing_file(capsys):
    code, out = run(capsys, "motive", "zeta", "--in", "/nonexistent.json")
    assert code == 1
    assert out["status"] == "validation_error"


def _unreadable_files(tmp_path):
    """--in a directory, a file that is not UTF-8 or that nests past the
    decoder's recursion limit, and --out in a directory that does not
    exist."""
    (tmp_path / "latin1.json").write_bytes(b'{"f_plus": [["\xe9"]]}')
    (tmp_path / "deep.json").write_text("[" * 10**5 + "]" * 10**5)
    return [
        ["--in", str(tmp_path)],
        ["--in", str(tmp_path / "latin1.json")],
        ["--in", str(tmp_path / "deep.json")],
        ["--in", fixture("p1_motive.json"), "--out", str(tmp_path / "missing" / "x.json")],
    ]


def test_unreadable_input_and_unwritable_output_give_validation_errors(capsys, tmp_path):
    # each raised a raw traceback; the envelope of an unwritable --out
    # goes to stdout
    for tail in _unreadable_files(tmp_path):
        code, out = run(capsys, "motive", "zeta", *tail)
        assert (code, out["status"]) == (1, "validation_error"), tail


def test_the_module_run_leaves_no_traceback(tmp_path):
    # python -m motivic_zeta.cli on input that once raised past main
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "word.json").write_text('"motive"')
    argvs = [["motive", "zeta", *tail] for tail in _unreadable_files(tmp_path)]
    argvs += [[*command.split(), "--q", "5", "--in", str(tmp_path / name)] for command, name in (("hw eval", "five.json"), ("theta", "word.json"))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(motivic_zeta.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    runs = [
        subprocess.Popen([sys.executable, "-m", "motivic_zeta.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for argv in argvs
    ]
    for argv, proc in zip(argvs, runs):
        stdout, stderr = proc.communicate(timeout=60)
        assert "Traceback" not in stderr, (argv, stderr)
        assert (proc.returncode, json.loads(stdout)["status"]) == (1, "validation_error"), argv


def test_witt_add_mul(capsys, tmp_path):
    a = {"precision": 4, "coeffs": ["1", "1", "1", "1", "1"]}
    b = {"precision": 4, "coeffs": ["1", "2", "4", "8", "16"]}
    path = write(tmp_path, "pair.json", {"a": a, "b": b})
    code, out = run(capsys, "witt", "add", "--in", path)
    assert code == 0
    assert out["payload"]["coeffs"] == ["1", "3", "7", "15", "31"]
    code, out = run(capsys, "witt", "mul", "--in", path)
    assert code == 0
    assert out["payload"]["coeffs"] == ["1", "2", "4", "8", "16"]


def test_witt_ghost(capsys, tmp_path):
    path = write(tmp_path, "w.json", {"precision": 3, "coeffs": ["1", "3", "9", "27"]})
    code, out = run(capsys, "witt", "ghost", "--in", path)
    assert code == 0
    assert out["payload"]["ghosts"] == ["3", "9", "27"]


def test_reconstruct_bm(capsys, tmp_path):
    path = write(tmp_path, "seq.json", {"sequence": [2**n for n in range(12)]})
    code, out = run(capsys, "reconstruct", "bm", "--in", path)
    assert code == 0
    assert out["payload"]["stabilized"] is True
    assert out["payload"]["degree"] == -1


def test_variety_count_and_weil(capsys):
    code, out = run(
        capsys, "variety", "count", "--in", fixture("p2_f3_variety.json"), "--nmax", "2"
    )
    assert code == 0
    assert out["payload"]["counts"] == [13, 91]
    code, out = run(
        capsys,
        "variety",
        "weil",
        "--in",
        fixture("elliptic_f5_variety.json"),
        "--dim",
        "1",
        "--nmax",
        "7",
    )
    assert code == 0
    payload = out["payload"]
    assert payload["stabilized"] and payload["functional_equation_holds"]
    assert payload["sign"] == 1 and payload["e_degree"] == 0


@pytest.mark.parametrize(
    "key, value", [("coefficient", 1.7), ("coefficient", True), ("coefficient", "1"), ("ambient", "projective")]
)
def test_variety_input_is_validated_not_coerced(capsys, tmp_path, key, value):
    data = json.loads((FIXTURES / "elliptic_f5_variety.json").read_text())
    if key == "coefficient":
        data["equations"][0][1][1] = value
    else:  # the format the README once showed
        data["ambient"], data["dim"] = value, 2
    path = write(tmp_path, "v.json", data)
    code, out = run(capsys, "variety", "count", "--in", path, "--nmax", "1")
    assert code == 1
    assert out["status"] == "validation_error"


def test_readme_variety_example(capsys, tmp_path):
    readme = (FIXTURES.parent.parent.parent / "README.md").read_text()
    example = re.search(r"^Variety: `(.*?)`", readme, re.S | re.M).group(1)
    path = write(tmp_path, "v.json", json.loads(example))
    code, out = run(capsys, "variety", "count", "--in", path, "--nmax", "2")
    assert code == 0
    assert out["status"] == "ok"
    assert out["payload"]["counts"] == [9, 27]


def test_readme_cli_table_lists_every_command_with_its_flags():
    # the hand-written table names each COMMANDS row once, with exactly its
    # flags; --out, which every row takes, is stated once above the table
    readme = (FIXTURES.parent.parent.parent / "README.md").read_text()
    table = readme.split("| command | flags (default) |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for line in table.splitlines():
        commands, flags = line.strip("|").split("|")
        listed += [(words, set(re.findall(r"--([a-z]+)", flags))) for words in re.findall(r"`([^`]+)`", commands)]
    assert all("out" in flags for _, _, flags in COMMANDS)
    assert sorted(listed) == sorted((words, set(flags) - {"out"}) for words, _, flags in COMMANDS)


def test_variety_weil_answers_on_the_shipped_e7_at_the_default_nmax(capsys):
    """Refused at --nmax 8 before (required 2 * 7^8): the zeta stabilizes,
    the counts follow the Frobenius recurrence from N_1 = 5 (a = 3), and
    every reciprocal root has modulus 1, sqrt(7) or 7."""
    code, out = run(capsys, "variety", "weil", "--in", fixture("elliptic_f7_variety.json"), "--dim", "1")
    assert (code, out["status"]) == (0, "ok")
    payload = out["payload"]
    sums = [2, 3]
    for _ in range(7):
        sums.append(3 * sums[-1] - 7 * sums[-2])
    assert payload["counts"] == [7**n + 1 - sums[n] for n in range(1, 9)]
    assert payload["stabilized"] and payload["rh_holds"] and payload["functional_equation_holds"]
    assert payload["zeta"] == {"num": ["1/7", "-3/7", "1"], "den": ["1/7", "-8/7", "1"]}
    assert payload["reciprocal_root_moduli"] == [1.0, 2.64575131106, 2.64575131106, 7.0]


def test_variety_weil_requires_dim(capsys):
    code, out = run(capsys, "variety", "weil", "--in", fixture("p2_f3_variety.json"))
    assert code == 1


def test_budget_exit_code(capsys):
    code, out = run(
        capsys,
        "variety",
        "count",
        "--in",
        fixture("elliptic_f5_variety.json"),
        "--nmax",
        "4",
        "--budget",
        "100",
    )
    assert code == 2
    assert out["status"] == "resource_error"
    assert out["payload"]["budget"] == 100
    assert out["payload"]["required"] > 100


def test_closed_points(capsys):
    code, out = run(
        capsys,
        "variety",
        "closed-points",
        "--in",
        fixture("gm_f2_variety.json"),
        "--nmax",
        "4",
    )
    assert code == 0
    assert out["payload"]["closed_points"] == [1, 1, 2, 3]


def test_lfun_and_orbifold(capsys):
    code, out = run(
        capsys, "lfun", "--in", fixture("p1_f5_z2_trivial.json"), "--nmax", "5"
    )
    assert code == 0
    assert out["payload"]["coeffs"] == ["1", "6", "31", "156", "781", "3906"]
    code, out = run(
        capsys, "orbifold", "--in", fixture("p1_f5_z2_trivial.json"), "--nmax", "5"
    )
    assert code == 0
    assert out["payload"]["routes_agree"] is True


def test_orbifold_descends_in_degree_two_at_every_n(capsys, monkeypatch):
    # N_n(h; fix g) for h = diag(-1, 1) descends over F_{5^n} in degree 2,
    # with no embedding searched; the traces are (1/2)(2 (5^n + 1) + 2 + 2)
    def no_search(small, big):
        raise AssertionError(f"an embedding of F_{small.q} in F_{big.q} was searched")

    monkeypatch.setattr(FqField, "embedding_root", no_search)
    code, out = run(capsys, "orbifold", "--in", fixture("p1_f5_z2_trivial.json"), "--nmax", "20")
    assert code == 0
    assert out["payload"]["traces"] == [str(5**n + 3) for n in range(1, 21)]


def _lfun_input(**changes):
    data = json.loads((FIXTURES / "p1_f5_z2_trivial.json").read_text())
    data.update(changes)
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize(
    "commands, data",
    [
        ("lfun orbifold", _lfun_input(action=[[[1, 0], [0, 1]], [[1.5, 0], [0, 1]]])),
        ("lfun orbifold", _lfun_input(action=[[[1, 0], [0, 1]], [["4", 0], [0, 1]]])),
        ("lfun orbifold", _lfun_input(action=[[[1, 0], [0, 1]], [[4, 0], [0]]])),
        ("lfun orbifold", _lfun_input(action=7)),
        ("lfun orbifold", _lfun_input(variety=None)),
        ("lfun orbifold", _lfun_input(action=None)),
        ("lfun orbifold", [1, 2]),
        ("lfun orbifold", "not json"),
        ("lfun", _lfun_input(character=None)),  # orbifold reads no character
        ("lfun", _lfun_input(character={"m": 1})),
        # singular: diag(1, 0) is the identity of its own product table
        ("lfun orbifold", _lfun_input(action=[[[1, 0], [0, 0]]], character={"m": 1, "values": [1]})),
    ],
)
def test_bad_action_inputs_give_validation_errors(capsys, tmp_path, commands, data):
    path = tmp_path / "in.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    for command in commands.split():
        code, out = run(capsys, command, "--in", str(path), "--nmax", "2")
        assert (code, out["status"]) == (1, "validation_error"), out


@pytest.mark.parametrize(
    "character",
    [{"m": 10**6, "values": [1, -1]}, {"m": 2, "values": [1, {"m": 10**6, "coeffs": [-1]}]}],
)
def test_lfun_refuses_a_root_order_above_the_group_exponent(capsys, tmp_path, monkeypatch, character):
    # the sign character of Z/2 written in Q(zeta_(10^6)): refused before
    # any value of that order is built, which took 0.5 s per value
    fold = lfunctions._cyclotomic_fold

    def no_large_fold(m):
        assert m <= 2, f"Q(zeta_{m}) was built"
        return fold(m)

    monkeypatch.setattr(lfunctions, "_cyclotomic_fold", no_large_fold)
    data = {**json.loads((FIXTURES / "p1_f5_z2_sign.json").read_text()), "character": character}
    code, out = run(capsys, "lfun", "--in", write(tmp_path, "in.json", data), "--nmax", "2")
    assert (code, out["status"]) == (1, "validation_error"), out
    assert "exponent 2" in out["payload"]["reason"]


_MOTIVE_Q_COMMANDS = ("hw eval", "hw poles", "hw abscissa", "theta", "regdet-check")


def _series(*coeffs):
    return {"coeffs": list(coeffs)}


@pytest.mark.parametrize(
    "argv, data",
    [
        ("motive zeta", {"f_plus": [["abc"]]}),
        ("motive zeta", {"f_plus": [[True]]}),
        ("motive feq", {"f_plus": [["1/0"]], "f_minus": [[2]]}),
        ("reconstruct traces", {"traces": [1, "nan", 3]}),
        ("reconstruct bm", {"sequence": [1, 2, False, 4]}),
        ("witt mul", {"a": _series(1, "1/0"), "b": _series(1, 2)}),
        ("hw eval --q 5", {"motive": {"f_plus": [[None]]}, "samples": [{"re": 2.0}]}),
        ("lfun", _lfun_input(character={"m": 1, "values": [1, "abc"]})),
    ],
)
def test_bad_rationals_give_validation_errors(capsys, tmp_path, argv, data):
    # one row per subcommand that reads rationals: bools, unparsable and
    # zero-denominator strings and nulls are refused, not coerced or raised raw
    code, out = run(capsys, *argv.split(), "--in", write(tmp_path, "in.json", data))
    assert (code, out["status"]) == (1, "validation_error"), out


@pytest.mark.parametrize(
    "argv, data",
    [
        ("witt add", {"a": _series(1, 2)}),
        ("witt mul", {"b": _series(1, 2)}),
        ("reconstruct bm", {"x": [1, 2]}),
        ("reconstruct traces", {"x": [1, 2]}),
        ("measure eval", {"m": 1}),
        ("measure eval", {"op": "sum", "args": [{"op": "point"}, {"n": 2}]}),
        ("measure eval", {"op": "affine_space"}),
        ("measure eval", {"op": "scale", "args": [{"op": "point"}]}),
        ("measure eval", {"op": "product"}),
        ("numk0 quiver", {"vertices": 2}),
        ("numk0 compute", {"rows": [[1]]}),
        ("artin-mazur", {"p": 5}),
        ("lfun", _lfun_input(character={"m": 2, "values": [{"m": 2}, {"m": 2, "coeffs": [1]}]})),
        ("motive zeta", {"x": 1}),
        ("hw eval --q 5", {"samples": [{"re": 2.0}]}),
        *((f"{command} --q 5", data) for command in _MOTIVE_Q_COMMANDS for data in (5, "motive")),
    ],
)
def test_missing_keys_give_validation_errors(capsys, tmp_path, argv, data):
    # one row per subcommand (and per measure-tree key) that reads a keyed
    # object: a missing key is refused with the envelope, never a KeyError,
    # and a motive with neither block is not read as the empty motive
    code, out = run(capsys, *argv.split(), "--in", write(tmp_path, "in.json", data))
    assert (code, out["status"]) == (1, "validation_error"), out


_ONE = {"f_plus": [["2"]]}


@pytest.mark.parametrize(
    "argv, data",
    [
        ("numk0 compute", {"chi": [["x"]]}),
        ("numk0 compute", {"chi": 5}),
        ("numk0 compute", {"chi": [5]}),
        ("numk0 compute", {"chi": [[1.5]]}),
        ("numk0 compute", {"chi": [[True]]}),
        ("hw eval --q 5", {"motive": _ONE, "samples": ["abc"]}),
        ("hw eval --q 5", {"motive": _ONE, "samples": [{"re": "x"}]}),
        ("hw eval --q 5", {"motive": _ONE, "samples": [[1, 2]]}),
        ("hw eval --q 5", {"motive": _ONE, "samples": 3}),
    ],
)
def test_bad_scalars_below_the_keys_give_validation_errors(capsys, tmp_path, argv, data):
    # integers of a Gram matrix and numbers of a sample list: a string,
    # float, bool, list or bare scalar is refused, not coerced or raised raw
    code, out = run(capsys, *argv.split(), "--in", write(tmp_path, "in.json", data))
    assert (code, out["status"]) == (1, "validation_error"), out


_LFUN = json.loads((FIXTURES / "p1_f5_z2_sign.json").read_text())


@pytest.mark.parametrize(
    "argv, data, budget",
    [
        ("witt ghost", {"coeffs": "12"}, None),
        ("witt mul", {"a": 5, "b": {"coeffs": ["1"]}}, None),
        ("motive zeta", {"f_plus": 5}, None),
        ("motive zeta", {"f_plus": [5]}, None),
        ("reconstruct traces", {"traces": 5}, None),
        ("reconstruct bm", 5, None),
        ("lfun", {**_LFUN, "character": {"m": 1, "values": 5}}, None),
        ("lfun", {**_LFUN, "character": {"m": 1, "values": [{"coeffs": 5}, 1]}}, None),
        ("lfun", {**_LFUN, "variety": {**_LFUN["variety"], "equations": {"x": 1}}}, None),
        ("orbifold", {**_LFUN, "action": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]]}, None),
        ("variety count", json.loads((FIXTURES / "p1_f5_variety.json").read_text()), "abc"),
        ("variety count", json.loads((FIXTURES / "p1_f5_variety.json").read_text()), "1.5"),
        ("variety count", json.loads((FIXTURES / "p1_f5_variety.json").read_text()), "-1"),
        ("variety count --budget -1", json.loads((FIXTURES / "p1_f5_variety.json").read_text()), None),
    ],
)
def test_list_shapes_and_the_budget_variable_give_validation_errors(capsys, tmp_path, monkeypatch, argv, data, budget):
    # a string or a number where a list belongs is refused, not iterated
    # or raised raw, and MOTIVIC_ZETA_BUDGET is read as a JSON integer;
    # a negative budget is refused from the flag and the variable alike
    if budget is not None:
        monkeypatch.setenv("MOTIVIC_ZETA_BUDGET", budget)
    code, out = run(capsys, *argv.split(), "--in", write(tmp_path, "in.json", data))
    assert (code, out["status"]) == (1, "validation_error"), out


def test_budget_variable_is_read_as_an_integer(capsys, monkeypatch):
    for budget in (3, 0):  # 0 is a budget, not a refusal
        monkeypatch.setenv("MOTIVIC_ZETA_BUDGET", str(budget))
        code, out = run(capsys, "variety", "count", "--in", fixture("elliptic_f5_variety.json"))
        assert (code, out["status"]) == (2, "resource_error")
        assert out["payload"]["budget"] == budget


def diagonal_rows(a: int, k: int) -> list[list[str]]:
    return [[str(a) if i == j else "0" for j in range(k)] for i in range(k)]


def jordan_rows(a: int, k: int) -> list[list[str]]:
    return [[str(a) if i == j else "1" if j == i + 1 else "0" for j in range(k)] for i in range(k)]


@pytest.mark.parametrize(
    "rows, multiplicity, block_sizes, rho",
    [
        (diagonal_rows(5, 3), 3, [1, 1, 1], 5),
        (jordan_rows(5, 3), 3, [3], 5),
        (diagonal_rows(5, 4), 4, [1, 1, 1, 1], 5),
        (jordan_rows(25, 6), 6, [6], 25),
    ],
)
def test_repeated_eigenvalues_keep_exact_multiplicities(capsys, tmp_path, rows, multiplicity, block_sizes, rho):
    # a root of multiplicity m >= 3 once split into m "distinct" roots near
    # rho, with multiplicity 1 each and status ok
    path = write(tmp_path, "m.json", {"f_plus": rows})
    code, out = run(capsys, "theta", "--in", path, "--q", "5")
    assert code == 0
    [entry] = out["payload"]["entries_plus"]
    assert (entry["multiplicity"], entry["block_sizes"]) == (multiplicity, block_sizes)
    assert entry["eigenvalue"] == {"re": rho, "im": 0.0}
    code, out = run(capsys, "hw", "poles", "--in", path, "--q", "5")
    assert code == 0
    [pole] = out["payload"]["poles"]
    assert pole["multiplicity"] == multiplicity
    code, out = run(capsys, "motive", "growth", "--in", path, "--nmax", "12")
    assert code == 0
    assert out["payload"]["spectral_radius"]["rho"] == rho
    assert out["payload"]["rate_exact"] == float(f"{math.log(rho):.12g}")


@pytest.mark.parametrize("nmax", [450, 2000])
def test_motive_growth_past_the_float_range(capsys, nmax):
    # the traces 1 + 5^n of P^1/F_5 pass the float range at n = 441; the
    # closed form gives the bound |1 + 5^n| <= 2 * 5^n and, over the tail
    # window n > nmax - ceil(nmax / 2), the rate max log(1 + 5^n) / n
    code, out = run(capsys, "motive", "growth", "--in", fixture("p1_motive.json"), "--nmax", str(nmax))
    assert (code, out["status"]) == (0, "ok")
    rate = max(math.log(1 + 5**n) / n for n in range(nmax - (nmax + 1) // 2 + 1, nmax + 1))
    assert out["payload"]["growth_bound_holds"] is True
    assert out["payload"]["rate_estimate"] == float(f"{rate:.12g}")
    assert out["payload"]["rate_exact"] == float(f"{math.log(5):.12g}")


def test_evaluation_at_a_triple_pole_is_a_numeric_error(capsys, tmp_path):
    # Z = 1/(1 - 5t)^3 at s = 1; the split roots once missed the pole and
    # answered 4.6e15 with status ok
    path = write(tmp_path, "m.json", {"motive": {"f_plus": diagonal_rows(5, 3)}, "samples": [1]})
    code, out = run(capsys, "hw", "eval", "--in", path, "--q", "5")
    assert (code, out["status"]) == (3, "numeric_error")


def test_parser_is_built_once(capsys):
    # one process running two subcommands gives the envelopes of two cold
    # calls; each builds the parser of its own row, once, and not the tree
    calls = [
        ["lfun", "--in", fixture("p1_f5_z2_sign.json"), "--nmax", "3"],
        ["variety", "count", "--in", fixture("elliptic_f5_variety.json"), "--nmax", "2"],
    ]
    cold = []
    for argv in calls:
        _parser.cache_clear()
        cold.append(run(capsys, *argv))
    _parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == cold
    assert _parser.cache_info().misses == 2
    assert _parser("lfun") is _parser("lfun") and _parser.cache_info().misses == 2
    assert _parser(None) is _parser(None)


def _flag_cases(tmp_path):
    """For each row of COMMANDS: its words and flags, its command lines with
    every flag it declares and with its required flags only, each with the
    namespace it parses to, and its usage mistakes; then the mistakes that
    name no row, or a row with a word too many."""
    values = {
        "in": fixture("p1_motive.json"), "out": str(tmp_path / "out.json"),
        "precision": "3", "nmax": "2", "budget": "100", "q": "5", "dim": "1", "n": "2",
    }

    def argv(words, flags):
        return words.split() + [x for flag in flags for x in (f"--{flag}", values[flag])]

    rows = []
    for words, handler, flags in COMMANDS:
        given = {flag: values[flag] if flag in ("in", "out") else int(values[flag]) for flag in flags}
        required = [flag for flag, default in flags.items() if default is REQUIRED]
        defaults = {flag: given[flag] if flag in required else default for flag, default in flags.items()}
        parses = [(argv(words, flags), {"handler": handler, **given}), (argv(words, required), {"handler": handler, **defaults})]
        mistakes = [argv(words, required + [flag]) for flag in values.keys() - flags]
        mistakes += [argv(words, [flag for flag in required if flag != gone]) for gone in required]
        mistakes += [
            argv(words, required) + [f"--{flag}", bad]
            for flag in ("nmax", "precision") if flag in flags for bad in ("0", "-1", "x")
        ]
        rows.append((words, flags, parses, mistakes))
    unrouted = [[], ["motive"], ["motive", "bogus"], ["motive", "det", "--in", values["in"], "extra"]]
    return rows, unrouted


def test_each_command_takes_exactly_the_flags_of_its_row(capsys, tmp_path):
    # the table is the CLI: every flag a row declares parses to its value or
    # its default, and every usage mistake is a validation_error, exit 1
    assert len(COMMANDS) == 27 and sum(len(flags) for *_, flags in COMMANDS) == 79
    rows, unrouted = _flag_cases(tmp_path)
    for words, flags, parses, mistakes in rows:
        assert "out" in flags
        for argv, namespace in parses:
            assert vars(_parser(None).parse_args(argv)) == namespace
        for bad in mistakes:
            code, out = run(capsys, *bad)
            assert (code, out["status"]) == (1, "validation_error"), bad
    for bad in unrouted:
        code, out = run(capsys, *bad)
        assert (code, out["status"]) == (1, "validation_error"), bad


def test_one_row_parser_reads_as_the_whole_tree(capsys, monkeypatch, tmp_path):
    # each row's own parser gives the namespace the whole tree gives, and
    # each usage mistake leaves as the same envelope, byte for byte, whether
    # main builds that row's parser or the whole tree
    rows, unrouted = _flag_cases(tmp_path)
    for words, flags, parses, mistakes in rows:
        for argv, namespace in parses:
            assert cli._row_words(argv) == words
            assert vars(_parser(words).parse_args(argv)) == vars(_parser(None).parse_args(argv)) == namespace
    everything = [bad for *_, mistakes in rows for bad in mistakes] + unrouted

    def envelopes():
        return [(main(bad), capsys.readouterr().out) for bad in everything]

    one_row = envelopes()
    monkeypatch.setattr(cli, "_row_words", lambda argv: None)
    assert envelopes() == one_row
    assert all(code == 1 and '"validation_error"' in out for code, out in one_row)


def test_artin_mazur(capsys):
    code, out = run(
        capsys, "artin-mazur", "--in", fixture("artin_mazur.json"), "--nmax", "24"
    )
    assert code == 0
    payload = out["payload"]
    assert payload["traces"][:6] == [3, 5, 9, 5, 33, 65]
    assert payload["reconstruction"]["stabilized"] is False


def test_artin_mazur_refuses_an_nmax_above_its_cap(capsys, monkeypatch):
    # the traces of x -> x^2 up to n take n (n + 1) / 2 bits, charged
    # against MAX_BITS: n = 1447 fits and 1448 does not, and the refusal
    # comes before a trace is formed or Berlekamp-Massey runs
    monkeypatch.setattr(motivic_zeta.reconstruct, "berlekamp_massey", None)
    code, out = run(capsys, "artin-mazur", "--in", fixture("artin_mazur.json"), "--nmax", "1448")
    assert (code, out["status"]) == (2, "resource_error")
    assert (out["payload"]["required"], out["payload"]["budget"]) == (1448 * 1449 // 2, MAX_BITS)
    assert "Artin-Mazur traces" in out["payload"]["reason"]
    assert 1447 * 1448 // 2 <= MAX_BITS


@pytest.mark.parametrize(
    "argv",
    [
        ["variety", "count", "--in", fixture("p1_f5_variety.json"), "--nmax", "8000"],
        ["motive", "traces", "--in", "ten.json", "--nmax", "5000"],
        ["motive", "zeta", "--in", "ten.json", "--precision", "5000"],
    ],
    ids=["variety-count", "motive-traces", "motive-zeta"],
)
def test_an_output_past_the_int_digit_limit_is_a_resource_error(tmp_path, argv):
    # 5^8000 + 1 and 10^5000 have more digits than the interpreter converts
    # to str by default, and the limit is process-wide, so it stays as set
    # and --out gets a resource_error envelope
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        write(tmp_path, "ten.json", {"f_plus": [["10"]], "f_minus": []})
        argv = [str(tmp_path / a) if a == "ten.json" else a for a in argv]
        code = main(argv + ["--out", str(tmp_path / "out.json")])
        assert sys.get_int_max_str_digits() == 4300  # not lifted
    finally:
        sys.set_int_max_str_digits(default)
    out = json.loads((tmp_path / "out.json").read_text())
    assert (code, out["status"]) == (2, "resource_error")
    assert out["payload"]["budget"] == 4300 < out["payload"]["required"]


def test_an_input_integer_past_the_int_digit_limit_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text('{"f_plus": [[1' + "0" * 5000 + ']], "f_minus": []}')
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, "motive", "det", "--in", str(path))
    finally:
        sys.set_int_max_str_digits(default)
    assert (code, out["status"]) == (1, "validation_error")
    assert "5001 digits" in out["payload"]["reason"]


@pytest.mark.parametrize("route", ["flag", "variable"])
@pytest.mark.parametrize("case", ["charge", "table-cap"])
def test_a_budget_of_4300_digits_ends_in_an_envelope(capsys, tmp_path, monkeypatch, route, case):
    """Under a budget of 4300 nines a refusal's reason and numbers stay
    printable: a cubic in 14300 variables over F_2 is charged 2^14300
    assignments, 4305 digits, past the digit limit, so the envelope names
    that limit; the Klein quartic over F_5 up to n = 6200 reaches the table
    cap at 5^11."""
    nv = 14300
    wide = {"ambient": {"affine": nv}, "p": 2, "equations": [[[[3] + [0] * (nv - 1), 1]]]}
    argv = ["variety", "count"]
    if case == "charge":
        argv += ["--in", write(tmp_path, "wide.json", wide)]
    else:
        argv += ["--in", write(tmp_path, "klein.json", KLEIN_F5), "--nmax", "6200"]
    nines = "9" * 4300
    if route == "flag":
        argv += ["--budget", nines]
    else:
        monkeypatch.setenv("MOTIVIC_ZETA_BUDGET", nines)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(default)
    assert (code, out["status"]) == (2, "resource_error")
    payload = out["payload"]
    if case == "charge":
        assert f"assignments to enumerate: at least 2^{nv} exceeds the budget of {nines}" in payload["reason"]
        assert payload["budget"] == 4300 < payload["required"]
    else:
        assert (payload["required"], payload["budget"]) == (5**11, 10**7)
        assert "log tables" in payload["reason"]


def test_elliptic_counts_past_the_table_cap_are_refused_by_their_digits(capsys):
    """E/F_5 up to n = 6200 reached the table cap at 5^11; no chart of it
    needs tables past F_5 now, so under a budget of 4300 nines it is
    refused, before any count, by the digits of 5^(2 * 6200)."""
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, "variety", "count", "--in", fixture("elliptic_f5_variety.json"), "--nmax", "6200", "--budget", "9" * 4300)
    finally:
        sys.set_int_max_str_digits(default)
    assert (code, out["status"]) == (2, "resource_error")
    assert (out["payload"]["required"], out["payload"]["budget"]) == (8668, 4300)
    assert "digits of an output integer" in out["payload"]["reason"]


def test_every_berlekamp_massey_route_refuses_800_terms(capsys, tmp_path):
    # Berlekamp-Massey ran 4.25 s on 800 Artin-Mazur traces, and longer on
    # their exp series; reconstruct refuses both once the connection
    # polynomial passes MAX_BITS (artin-mazur --nmax 800 is in test_cost)
    traces = motivic_zeta.artin_mazur_traces(5, 2, 800)
    routes = [
        ["reconstruct", "bm", "--in", write(tmp_path, "bm.json", {"sequence": traces})],
        ["reconstruct", "traces", "--in", write(tmp_path, "tr.json", traces)],
    ]
    for argv in routes:
        code, out = run(capsys, *argv)
        assert (code, out["status"]) == (2, "resource_error"), argv
        assert out["payload"]["budget"] == MAX_BITS < out["payload"]["required"], argv


def test_berlekamp_massey_routes_answer_long_sequences_of_low_order(capsys, tmp_path):
    code, out = run(capsys, "artin-mazur", "--in", fixture("artin_mazur.json"), "--nmax", "700")
    assert (code, out["payload"]["reconstruction"]["stabilized"]) == (0, False)
    assert len(out["payload"]["traces"]) == 700
    for argv in (
        ["reconstruct", "bm", "--in", write(tmp_path, "bm.json", {"sequence": [1] * 800})],
        ["reconstruct", "traces", "--in", write(tmp_path, "tr.json", [2] * 800)],
    ):
        code, out = run(capsys, *argv)
        assert (code, out["payload"]["stabilized"]) == (0, True), argv


def test_hw_eval_and_pole_exit_code(capsys, tmp_path):
    motive = json.loads((FIXTURES / "p1_motive.json").read_text())
    path = write(tmp_path, "hw.json", {"motive": motive, "samples": [{"re": 2.0}]})
    code, out = run(capsys, "hw", "eval", "--in", path, "--q", "5")
    assert code == 0
    value = out["payload"]["values"][0]["value"]
    assert abs(value["re"] - 125 / 96) < 1e-9
    pole = write(tmp_path, "hwp.json", {"motive": motive, "samples": [{"re": 1.0}]})
    code, out = run(capsys, "hw", "eval", "--in", pole, "--q", "5")
    assert code == 3
    assert out["status"] == "numeric_error"


def test_hw_abscissa(capsys):
    code, out = run(
        capsys, "hw", "abscissa", "--in", fixture("p1_motive.json"), "--q", "5"
    )
    assert code == 0
    assert abs(out["payload"]["abscissa"] - 1.0) < 1e-12


def test_hasse_weil_rows_take_only_prime_power_q(capsys, tmp_path):
    motive = json.loads((FIXTURES / "p1_motive.json").read_text())
    path = write(tmp_path, "hw.json", {"motive": motive, "samples": [{"re": 2.0}]})
    code, out = run(capsys, "hw", "eval", "--in", path, "--q", "6")
    assert (code, out["status"]) == (1, "precondition_error")
    assert "prime power" in out["payload"]["reason"]
    for row in (["hw", "poles"], ["hw", "abscissa"], ["theta"], ["regdet-check"]):
        code, out = run(capsys, *row, "--in", path, "--q", "6")
        assert (code, out["status"]) == (1, "precondition_error"), row
    code, out = run(capsys, "hw", "eval", "--in", path, "--q", "4")
    assert code == 0
    # the motive has eigenvalues 1 and 5, so Z(4^-s) = 1 / ((1 - 4^-s)(1 - 5 4^-s))
    value = out["payload"]["values"][0]["value"]
    assert abs(value["re"] - 1 / ((1 - 4 ** -2) * (1 - 5 * 4 ** -2))) < 1e-9 and value["im"] == 0.0


def test_theta_and_regdet(capsys, tmp_path):
    code, out = run(capsys, "theta", "--in", fixture("p1_motive.json"), "--q", "5")
    assert code == 0
    assert out["payload"]["branch_window_ok"] is True
    motive = json.loads((FIXTURES / "p1_motive.json").read_text())
    path = write(
        tmp_path, "rd.json", {"motive": motive, "samples": [{"re": 2.5}, {"re": 3.0, "im": 1.0}]}
    )
    code, out = run(capsys, "regdet-check", "--in", path, "--q", "5")
    assert code == 0
    assert out["payload"]["passes"] is True


def test_numk0(capsys, tmp_path):
    code, out = run(capsys, "numk0", "beilinson", "--dim", "2")
    assert code == 0
    assert out["payload"]["report"]["rank"] == 3
    code, out = run(
        capsys, "numk0", "compute", "--in", fixture("nonsmooth_gram.json")
    )
    assert code == 0
    assert out["payload"]["kernels_agree"] is False
    path = write(tmp_path, "quiver.json", {"vertices": 2, "arrows": [[0, 1]]})
    code, out = run(capsys, "numk0", "quiver", "--in", path)
    assert code == 0
    assert out["payload"]["report"]["rank"] == 2


def test_numk0_quiver_refuses_a_long_closed_chain(capsys, tmp_path):
    # a 1200-cycle, past Python's recursion limit: an envelope, not a
    # RecursionError traceback
    n = 1200
    arrows = [[i, i + 1] for i in range(n - 1)] + [[n - 1, 0]]
    code, out = run(capsys, "numk0", "quiver", "--in", write(tmp_path, "cycle.json", {"vertices": n, "arrows": arrows}))
    assert (code, out["status"]) == (1, "validation_error")
    assert out["payload"]["reason"] == "quiver has a cycle"


_A1 = {"op": "affine_space", "n": 1}
_P2 = {"op": "projective_space", "n": 2}


@pytest.mark.parametrize(
    "tree, expected",
    [
        ({"op": "sum", "args": [_A1, _P2, {"op": "point"}]},
         measures.affine_space(1) + measures.projective_space(2) + measures.point()),
        ({"op": "product", "args": [_A1, _P2, {"op": "torus"}]},
         measures.affine_space(1) * measures.projective_space(2) * measures.torus()),
        ({"op": "difference", "args": [_P2, _A1]}, measures.projective_space(2) - measures.affine_space(1)),
    ],
    ids=["sum", "product", "difference"],
)
def test_measure_eval_builders_match_the_library(capsys, tmp_path, tree, expected):
    code, out = run(capsys, "measure", "eval", "--in", write(tmp_path, "cls.json", tree), "--q", "4")
    assert code == 0
    assert out["payload"] == canonical(
        {
            "poly": expected.poly,
            "mu_rig": measures.mu_rig(expected),
            "mu_nc": measures.mu_nc_composite(expected),
            "in_cell_span": expected.in_cell_span,
            "q": 4,
            "mu_count": measures.mu_count(expected, 4),
        }
    )


@pytest.mark.parametrize(
    "tree",
    [
        {"op": "sum", "args": {"op": "point"}},
        {"op": "product", "args": []},
        {"op": "difference", "args": [_A1]},
        {"op": "cube", "args": [_A1]},
    ],
)
def test_measure_eval_refuses_malformed_builders(capsys, tmp_path, tree):
    code, out = run(capsys, "measure", "eval", "--in", write(tmp_path, "cls.json", tree))
    assert (code, out["status"]) == (1, "validation_error"), out


def test_measure_eval_and_witness(capsys, tmp_path):
    path = write(tmp_path, "cls.json", {"op": "projective_space", "n": 2})
    code, out = run(capsys, "measure", "eval", "--in", path, "--q", "3")
    assert code == 0
    assert out["payload"]["mu_count"] == 13
    assert out["payload"]["mu_rig"] == 3
    code, out = run(capsys, "measure", "witness", "--n", "2", "--q", "3")
    assert code == 0
    payload = out["payload"]
    assert payload["nc_values_agree"] is True
    assert payload["count_values_agree"] is False
    assert [payload["mu_count_projective"], payload["mu_count_points"]] == [13, 3]


def test_output_is_byte_stable(capsys, tmp_path):
    outfile = tmp_path / "a.json"
    code = main(
        ["motive", "zeta", "--in", fixture("p1_motive.json"), "--out", str(outfile)]
    )
    assert code == 0
    first = outfile.read_text()
    code = main(
        ["motive", "zeta", "--in", fixture("p1_motive.json"), "--out", str(outfile)]
    )
    assert outfile.read_text() == first
    # keys are sorted in the canonical form
    parsed = json.loads(first)
    assert first.strip() == dumps(parsed)


def test_canonical_float_formatting():
    assert dumps({"x": -0.0}) == '{\n  "x": 0.0\n}'
    assert json.loads(dumps({"x": math.inf}))["x"] == "inf"


@dataclass
class _Report:
    z: complex
    ratio: Fraction
    note: str | None = None


@dataclass
class _Encoded:
    hidden: int

    def to_json(self):
        return {"shown": self.hidden + 1}


def test_canonical_encodes_dataclasses_field_by_field():
    assert canonical(_Report(1 + 2j, Fraction(-1, 3))) == {"z": {"re": 1.0, "im": 2.0}, "ratio": "-1/3"}
    assert canonical(_Report(0.5j, Fraction(2), "kept")) == {"z": {"re": 0.0, "im": 0.5}, "ratio": "2", "note": "kept"}
    # a to_json method wins over the fields
    assert canonical([_Encoded(1)]) == [{"shown": 2}]
    with pytest.raises(TypeError):
        canonical(_Report)  # a class, not an instance


def test_lfun_payload_of_a_cubic_character(capsys, tmp_path):
    # a character of C_3 with values in Q(zeta_3): every twisted count is
    # 7^n + 1, so the character sum vanishes, L = 1 and the payload is rational
    data = {
        "variety": {"ambient": {"projective": 1}, "p": 7, "e": 1, "equations": []},
        "action": [[[1, 0], [0, 1]], [[2, 0], [0, 1]], [[4, 0], [0, 1]]],
        "character": {"m": 3, "values": [1, [0, 1, 0], [0, 0, 1]]},
    }
    code, out = run(capsys, "lfun", "--in", write(tmp_path, "c3.json", data), "--nmax", "3")
    assert code == 0
    assert out["payload"] == {"precision": 3, "coeffs": ["1", "0", "0", "0"]}


# The full payloads of the finite-field commands on the shipped fixtures,
# all exact: a byte change in any of them fails its named row.
_ORBIFOLD_P1_F5_Z2 = {
    "direct": {"coeffs": ["1", "8", "46", "240", "1215", "6096"], "precision": 5},
    "product": {"coeffs": ["1", "8", "46", "240", "1215", "6096"], "precision": 5},
    "routes_agree": True,
    "traces": ["8", "28", "128", "628", "3128"],
}
PINNED_PAYLOADS = [
    ("variety count", "elliptic_f5_variety.json", ["--nmax", "3"], {"counts": [9, 27, 108]}),
    ("variety count", "elliptic_f7_variety.json", ["--nmax", "3"], {"counts": [5, 55, 380]}),
    ("variety count", "gm_f2_variety.json", ["--nmax", "3"], {"counts": [1, 3, 7]}),
    ("variety count", "p1_f5_variety.json", ["--nmax", "3"], {"counts": [6, 26, 126]}),
    ("variety count", "p2_f3_variety.json", ["--nmax", "3"], {"counts": [13, 91, 757]}),
    ("variety zeta", "elliptic_f5_variety.json", ["--nmax", "6"], {"coeffs": ["1", "9", "54", "279", "1404", "7029", "35154"], "precision": 6}),
    ("variety zeta", "elliptic_f7_variety.json", ["--nmax", "6"], {"coeffs": ["1", "5", "40", "285", "2000", "14005", "98040"], "precision": 6}),
    ("variety zeta", "gm_f2_variety.json", ["--nmax", "6"], {"coeffs": ["1", "1", "2", "4", "8", "16", "32"], "precision": 6}),
    ("variety zeta", "p1_f5_variety.json", ["--nmax", "6"], {"coeffs": ["1", "6", "31", "156", "781", "3906", "19531"], "precision": 6}),
    ("variety zeta", "p2_f3_variety.json", ["--nmax", "6"], {"coeffs": ["1", "13", "130", "1210", "11011", "99463", "896260"], "precision": 6}),
    ("variety closed-points", "elliptic_f5_variety.json", [], {"closed_points": [9, 9, 33]}),
    ("variety closed-points", "elliptic_f7_variety.json", [], {"closed_points": [5, 25, 125]}),
    ("variety closed-points", "gm_f2_variety.json", [], {"closed_points": [1, 1, 2]}),
    ("variety closed-points", "p1_f5_variety.json", [], {"closed_points": [6, 10, 40]}),
    ("variety closed-points", "p2_f3_variety.json", [], {"closed_points": [13, 39, 248]}),
    ("lfun", "p1_f5_z2_sign.json", [], {"coeffs": ["1", "0", "0", "0", "0", "0"], "precision": 5}),
    ("lfun", "p1_f5_z2_trivial.json", [], {"coeffs": ["1", "6", "31", "156", "781", "3906"], "precision": 5}),
    ("orbifold", "p1_f5_z2_sign.json", [], _ORBIFOLD_P1_F5_Z2),
    ("orbifold", "p1_f5_z2_trivial.json", [], _ORBIFOLD_P1_F5_Z2),
]


@pytest.mark.parametrize(
    "words, name, flags, payload", PINNED_PAYLOADS, ids=[f"{words} {name}" for words, name, _, _ in PINNED_PAYLOADS]
)
def test_finite_field_payloads_are_pinned(capsys, words, name, flags, payload):
    code = main([*words.split(), "--in", fixture(name), *flags])
    assert code == 0
    assert capsys.readouterr().out == dumps({"status": "ok", "payload": payload}) + "\n"


def test_lfun_payload_of_a_quartic_character_is_pinned(capsys, tmp_path):
    # C_4 = <diag(4, 2, 1)> on y^2 z = x^3 + x z^2 over F_5 and chi(g^k) =
    # x^k in Q(zeta_4): L(chi) = 1 + (-1 - 2x) t + O(t^4) is not rational,
    # so each coefficient keeps its phi(4) = 2 coordinates
    data = {
        "variety": {"ambient": {"projective": 2}, "p": 5, "e": 1,
                    "equations": [[[[0, 2, 1], 1], [[3, 0, 0], -1], [[1, 0, 2], -1]]]},
        "action": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[4, 0, 0], [0, 2, 0], [0, 0, 1]],
                   [[1, 0, 0], [0, 4, 0], [0, 0, 1]], [[4, 0, 0], [0, 3, 0], [0, 0, 1]]],
        "character": {"m": 4, "values": [1, [0, 1], [0, 0, 1], [0, 0, 0, 1]]},
    }
    code = main(["lfun", "--in", write(tmp_path, "c4.json", data), "--nmax", "3"])
    assert code == 0
    coeffs = [["1", "0"], ["-1", "-2"], ["0", "0"], ["0", "0"]]
    payload = {"coeffs": [{"coeffs": c, "m": 4} for c in coeffs], "m": 4, "precision": 3}
    assert capsys.readouterr().out == dumps({"status": "ok", "payload": payload}) + "\n"


_WEIL_KEYS = {
    "stabilized", "functional_equation_holds", "rh_holds", "reciprocal_root_moduli",
    "profile", "counts", "smooth_proper_assumed",
}


@pytest.mark.parametrize(
    "name, flags, keys",
    [
        # a functional equation that holds gives its sign
        ("elliptic_f5_variety.json", [], _WEIL_KEYS | {"zeta", "e_degree", "sign"}),
        # one that fails gives no sign, not "sign": null
        ("gm_f2_variety.json", [], _WEIL_KEYS | {"zeta", "e_degree"}),
        # no reconstruction: no zeta, e_degree or sign, and a note why
        ("elliptic_f5_variety.json", ["--nmax", "2"], _WEIL_KEYS | {"note"}),
    ],
)
def test_variety_weil_keys(capsys, name, flags, keys):
    code, out = run(capsys, "variety", "weil", "--in", fixture(name), "--dim", "1", *flags)
    assert code == 0
    assert set(out["payload"]) == keys


def _smoke_inputs(tmp_path):
    """One passing invocation of every CLI subcommand, keyed by its words."""
    motive = fixture("p1_motive.json")
    sampled = write(tmp_path, "sampled.json", {"motive": json.loads(Path(motive).read_text()), "samples": [{"re": 2.5}]})
    pair = write(tmp_path, "pair.json", {"a": {"coeffs": ["1", "2", "3"]}, "b": {"coeffs": ["1", "-1/2", "5"]}})
    return {
        "motive zeta": ["--in", motive],
        "motive feq": ["--in", motive],
        "motive traces": ["--in", motive, "--nmax", "4"],
        "motive det": ["--in", motive],
        "motive growth": ["--in", motive, "--nmax", "4"],
        "witt add": ["--in", pair],
        "witt mul": ["--in", pair],
        "witt ghost": ["--in", write(tmp_path, "w.json", {"coeffs": ["1", "2", "3"]})],
        "reconstruct bm": ["--in", write(tmp_path, "bm.json", {"sequence": [1, 1, 2, 3, 5, 8, 13, 21]})],
        "reconstruct traces": ["--in", write(tmp_path, "tr.json", [6, 26, 126, 626, 3126, 15626])],
        "variety count": ["--in", fixture("elliptic_f5_variety.json"), "--nmax", "2"],
        "variety zeta": ["--in", fixture("p1_f5_variety.json"), "--nmax", "4"],
        "variety weil": ["--in", fixture("elliptic_f5_variety.json"), "--dim", "1"],
        "variety closed-points": ["--in", fixture("gm_f2_variety.json")],
        "lfun": ["--in", fixture("p1_f5_z2_sign.json"), "--nmax", "2"],
        "orbifold": ["--in", fixture("p1_f5_z2_trivial.json"), "--nmax", "2"],
        "artin-mazur": ["--in", fixture("artin_mazur.json")],
        "hw eval": ["--in", sampled, "--q", "5"],
        "hw poles": ["--in", sampled, "--q", "5"],
        "hw abscissa": ["--in", motive, "--q", "5"],
        "theta": ["--in", fixture("elliptic_f5_motive.json"), "--q", "5"],
        "regdet-check": ["--in", sampled, "--q", "5"],
        "numk0 compute": ["--in", fixture("nonsmooth_gram.json")],
        "numk0 beilinson": ["--dim", "2"],
        "numk0 quiver": ["--in", write(tmp_path, "quiver.json", {"vertices": 2, "arrows": [[0, 1]]})],
        "measure eval": ["--in", write(tmp_path, "cls.json", {"op": "torus"}), "--q", "3"],
        "measure witness": ["--n", "1", "--q", "3"],
    }


@pytest.mark.parametrize("words", [words for words, *_ in COMMANDS])
def test_every_command_runs_through_the_encoder(tmp_path, words):
    # each row of the command table has a passing case, and its output is
    # canonical: re-encoding the parsed envelope gives the same bytes
    cases = _smoke_inputs(tmp_path)
    assert words in cases, f"no smoke case for {words!r}: add one to _smoke_inputs"
    out = tmp_path / "out.json"
    code = main(words.split() + cases[words] + ["--out", str(out)])
    text = out.read_text()
    envelope = json.loads(text)
    assert (code, envelope["status"]) == (0, "ok"), envelope
    assert dumps(envelope) + "\n" == text
