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
