"""The import surface: numpy loads only with the counting modules.

`gfvec` and `varieties` are the only modules that import numpy, and the
package binds the exports of `varieties` and `lfunctions` on first use.
So every exact-algebra and analytic command runs without numpy, and the
checks here run in fresh interpreters, since the test process has numpy
loaded already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import motivic_zeta

from conftest import FIXTURES

SRC = Path(motivic_zeta.__file__).resolve().parent
NUMPY_MODULES = {"gfvec", "varieties"}
LAZY_EXPORTS = (
    "VarietySpec", "closed_points", "count_points", "euler_product_series",
    "twisted_count", "weil_check", "zeta_from_counts",
    "Character", "Cyclotomic", "GroupAction", "LSeries", "l_function", "orbifold_zeta",
    "rational_character", "trivial_character",
)


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_only_the_counting_modules_import_numpy():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                assert path.stem in NUMPY_MODULES, f"{path.name}:{node.lineno} imports numpy"


def test_exact_and_analytic_commands_run_without_numpy(tmp_path):
    (tmp_path / "bm.json").write_text(json.dumps({"sequence": [1, 3, 7, 15, 31, 63, 127, 255]}))
    (tmp_path / "hw.json").write_text(
        json.dumps({"motive": json.loads((FIXTURES / "elliptic_f5_motive.json").read_text()), "samples": [2.0, {"re": 3, "im": 1}]})
    )
    p1, ell = str(FIXTURES / "p1_motive.json"), str(FIXTURES / "elliptic_f5_motive.json")
    runs = [
        ["motive", "zeta", "--in", p1],
        ["motive", "feq", "--in", ell],
        ["motive", "growth", "--in", ell, "--nmax", "12"],
        ["hw", "eval", "--in", str(tmp_path / "hw.json"), "--q", "5"],
        ["hw", "poles", "--in", str(tmp_path / "hw.json"), "--q", "5"],
        ["theta", "--in", ell, "--q", "5"],
        ["regdet-check", "--in", str(tmp_path / "hw.json"), "--q", "5"],
        ["numk0", "beilinson", "--dim", "4"],
        ["reconstruct", "bm", "--in", str(tmp_path / "bm.json")],
        ["artin-mazur", "--in", str(FIXTURES / "artin_mazur.json")],
    ]
    out = run_python(
        "import json, sys, motivic_zeta, motivic_zeta.cli\n"
        f"codes = [motivic_zeta.cli.main(argv + ['--out', {str(tmp_path / 'out.json')!r}]) for argv in {runs!r}]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert json.loads(out) == {"codes": [0] * len(runs), "numpy": False}


def test_touching_a_variety_export_loads_both_counting_modules():
    out = run_python(
        "import sys, motivic_zeta\n"
        "before = [m in sys.modules for m in ('numpy', 'motivic_zeta.varieties', 'motivic_zeta.lfunctions')]\n"
        "motivic_zeta.VarietySpec\n"
        "after = [m in sys.modules for m in ('numpy', 'motivic_zeta.varieties', 'motivic_zeta.lfunctions')]\n"
        "print(before, after)\n"
    )
    assert out.strip() == "[False, False, False] [True, True, True]"


def test_artin_mazur_traces_runs_without_numpy():
    out = run_python(
        "import sys, motivic_zeta\n"
        "print(motivic_zeta.artin_mazur_traces(5, 2, 3), 'numpy' in sys.modules)\n"
    )
    assert out.strip() == "[3, 5, 9] False"


def test_every_export_resolves_and_is_listed():
    names = dir(motivic_zeta)
    for name in LAZY_EXPORTS:
        assert name in names
        assert getattr(motivic_zeta, name) is getattr(getattr(motivic_zeta, motivic_zeta._LAZY[name]), name)
    assert not hasattr(motivic_zeta, "no_such_export")


def test_every_import_is_used():
    """Each name a module imports appears in its code; __init__ re-exports
    its imports, so it is exempt."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name}, which it never uses"
