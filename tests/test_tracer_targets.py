"""The benchmark tracer (bench/tracing.py) wraps library names from outside;
every name it wraps must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for mod_name, attr, _metric, _hot in tracing_module().TARGETS:
        module = importlib.import_module(f"motivic_zeta.{mod_name}")
        if "." in attr:  # the tracer patches the class's own attribute
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), attr
        else:
            assert callable(getattr(module, attr, None)), attr
    gf = importlib.import_module("motivic_zeta.gf")
    assert callable(vars(gf.FqField).get("enumerate"))
    assert callable(gf.fq_make.cache_info)  # the tracer counts field builds with it



def test_vecfield_mul_rows_are_axis_zero():
    # the tracer counts the elements of a VecField.mul call as
    # max(a.shape[0], b.shape[0]): both engines must keep rows on axis 0,
    # and a one-row constant must broadcast against N rows
    np = importlib.import_module("numpy")
    gf = importlib.import_module("motivic_zeta.gf")
    gfvec = importlib.import_module("motivic_zeta.gfvec")
    for p, e, tables in ((5, 3, True), (2, 24, False)):  # 2^24 > TABLE_MAX
        vf = gfvec.VecField(gf.fq_make(p, e))
        (x,) = vf.digits_of_range(0, 7)
        assert vf.tabulated == tables
        c = vf.const(3)
        assert isinstance(x, np.ndarray) and x.shape[0] == 7 and c.shape[0] == 1
        for a, b in ((x, x), (x, c), (c, x)):
            out = vf.mul(a, b)
            assert isinstance(out, np.ndarray) and out.shape[0] == 7
        assert vf.mul(c, c).shape[0] == 1
