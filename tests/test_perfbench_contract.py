"""The names and call shapes perfbench/ relies on still exist in the package.

perfbench/spans.py wraps package functions by module attribute and
methods through their class's own __dict__, splits a span by the value
of a parameter named ``method``, and perfbench/run.py calls the decoders
and run_trial with fixed argument lists and reads per-stage diagnostics
off MultistageResult.  A rename here would break only the traced
benchmark run, or silently zero its per-method layer counts, so this
checks the names and signatures directly.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from rankshot import experiment
from rankshot.decoder import MultistageResult, multistage_decode
from rankshot.gabidulin import GabidulinCode
from rankshot.outer import OuterCode

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_multistage_decode_takes_method_keywords():
    # Algebraic20.decode passes both keywords
    inspect.signature(multistage_decode).bind(
        (), None, inner_method="algebraic", outer_method="algebraic"
    )


@pytest.mark.parametrize("fn", [GabidulinCode.decode_bounded, OuterCode.decode])
def test_decoders_split_by_method(spans, fn):
    # the *.exhaustive.* and *.algebraic.* layers read this parameter
    assert "method" in inspect.signature(fn).parameters
    assert spans._method_picker(fn) is not None


def test_run_trial_binds_sim_tiny_arguments():
    # SimTiny.setup: run_trial(spec, rho, tau, "first", seed, gi, 0, decoders)
    inspect.signature(experiment.run_trial).bind(None, 1, 0, "first", 7, 0, 0, ("oracle",))


def test_every_role_reaches_the_traced_decoders(spans):
    # decoder.ROLES calls the decoders through decoder's module globals,
    # which the Tracer wraps; a role holding the original function would
    # leave its decoder.* layer at zero calls
    doc = json.loads((CONFIGS / "simulate_tiny.json").read_text())
    spec = experiment.parse_experiment_config(doc).spec()
    with spans.Tracer() as tr, tr.root():
        experiment.run_trial(spec, 1, 0, "first", 7, 0, 0,
                             ("oracle", "multistage", "algebraic"))
    stats = tr.snapshot()
    assert stats["decoder.oracle_decode_multishot"]["calls"] == 1
    assert stats["decoder.multistage_decode"]["calls"] == 2
