"""Every name the benchmark's tracer wraps must exist where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, qualname", traced_names())
def test_traced_name_resolves(module_name, qualname):
    # Tracer.install takes a method from its class __dict__ and a function
    # from the module's attributes; a name missing there makes `--trace 1`
    # raise before the first request.
    module = importlib.import_module(f"sgalg.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr)), qualname
    else:
        assert callable(getattr(module, qualname, None)), qualname
