"""Names the traced benchmark run wraps must exist in the package.

`perfbench/spans.py` patches `wavefock` functions and `LaurentPoly` methods
by name; a renamed or deleted one breaks the traced run at `getattr`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in spans.LAYERS.items() for n in names]
)
def test_layer_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"wavefock.{module}"), name))


@pytest.mark.parametrize(
    "module,cls_name,method",
    [(m, c, meth) for m, (c, methods) in spans.LEAVES.items() for meth in methods],
)
def test_leaf_method_resolves(module, cls_name, method):
    cls = getattr(importlib.import_module(f"wavefock.{module}"), cls_name)
    # the tracer reads the class dict, not inherited attributes
    assert callable(vars(cls)[method])
