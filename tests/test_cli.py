"""CLI surface: envelopes, exit codes and canonical JSON output."""

import json
import math
import re

import pytest

from motivic_zeta.cli import main
from motivic_zeta.serialize import dumps

from conftest import FIXTURES


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


def test_artin_mazur(capsys):
    code, out = run(
        capsys, "artin-mazur", "--in", fixture("artin_mazur.json"), "--nmax", "24"
    )
    assert code == 0
    payload = out["payload"]
    assert payload["traces"][:6] == [3, 5, 9, 5, 33, 65]
    assert payload["reconstruction"]["stabilized"] is False


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
