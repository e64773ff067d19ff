"""The benchmark tracer (bench/tracing.py) wraps library names from outside;
every name it wraps must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
import random
from collections import Counter
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


class Counted:
    """An FqElement stand-in that counts the operations asked of it."""

    def __init__(self, x, asked):
        self.x, self.asked = x, asked

    def _op(self, name, y):
        self.asked[name] += 1
        return Counted(y, self.asked)

    def is_zero(self):
        return self.x.is_zero()

    def inverse(self):
        return self._op("inverse", self.x.inverse())

    def __mul__(self, other):
        return self._op("mul", self.x * other.x)

    def __add__(self, other):
        return self._op("add", self.x + other.x)

    def __sub__(self, other):
        return self._op("sub", self.x - other.x)


def test_scalar_wrappers_see_every_operation():
    # wrapped on the class as the tracer wraps them, FqElement.__mul__,
    # __add__ and inverse must see every operation a computation asks for:
    # library code that reached past the operators would not be counted
    gf = importlib.import_module("motivic_zeta.gf")
    varieties = importlib.import_module("motivic_zeta.varieties")
    rng = random.Random(5)
    f = gf.fq_make(5, 2)
    m = [[f.from_int(rng.randrange(f.q)) for _ in range(3)] for _ in range(3)]
    asked = Counter()
    counted = [[Counted(x, asked) for x in row] for row in m]
    want_rows, want_pivots = gf.row_echelon(counted)
    tracer = tracing_module().Tracer()
    tracer.install()
    try:
        rows, pivots = gf.row_echelon(m)
        echelon = dict(tracer.calls)
        product = varieties._mat_mul(m, m)
    finally:
        tracer.uninstall()
    assert pivots == want_pivots and rows == [[c.x for c in row] for row in want_rows]
    assert asked["mul"] > 0 and asked["inverse"] > 0
    assert echelon.get("gf.FqElement.mul", 0) == asked["mul"]
    assert echelon.get("gf.FqElement.inverse", 0) == asked["inverse"]
    assert echelon.get("gf.FqElement.add", 0) == asked["add"]
    # a 3 x 3 product: 27 products and 27 sums onto a zero start
    assert tracer.calls["gf.FqElement.mul"] - echelon["gf.FqElement.mul"] == 27
    assert tracer.calls["gf.FqElement.add"] - echelon.get("gf.FqElement.add", 0) == 27
    assert product == tuple(tuple(sum((m[i][k] * m[k][j] for k in range(3)), f.zero()) for j in range(3)) for i in range(3))



def test_vecfield_mul_rows_are_axis_zero():
    # the tracer counts the elements of a VecField.mul call as
    # max(a.shape[0], b.shape[0]): rows must stay on axis 0, and a one-row
    # constant must broadcast against N rows
    np = importlib.import_module("numpy")
    gf = importlib.import_module("motivic_zeta.gf")
    gfvec = importlib.import_module("motivic_zeta.gfvec")
    vf = gfvec.vec_field(gf.fq_make(5, 3))
    (x,) = vf.digits_of_range(0, 7)
    c = vf.const(3)
    assert isinstance(x, np.ndarray) and x.shape[0] == 7 and c.shape[0] == 1
    for a, b in ((x, x), (x, c), (c, x)):
        out = vf.mul(a, b)
        assert isinstance(out, np.ndarray) and out.shape[0] == 7
    assert vf.mul(c, c).shape[0] == 1
