"""The names perfbench/ relies on still exist in the package.

perfbench/spans.py wraps package functions by module attribute and
methods through their class's own __dict__, and perfbench/run.py reads
per-stage diagnostics off MultistageResult.  A rename here would break
only the traced benchmark run, so this checks the names directly.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from rankshot.decoder import MultistageResult

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_exist(spans):
    for mod_name, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), attr


def test_method_targets_are_defined_on_their_class(spans):
    for mod_name, cls_name, meth, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"


def test_multistage_result_diagnostics():
    fields = {f.name for f in dataclasses.fields(MultistageResult)}
    assert {"inner_leaders", "erasure_counts", "wrong_inner_counts"} <= fields
