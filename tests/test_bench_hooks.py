"""The program names the benchmark in `perfbench/` reads its metrics from.

The benchmark wraps every public, non-generator function of the package
in a timing span named `<defining module>.<function>` and selects spans
by that name; a name that disappears reads 0.0 without any error.  These
checks keep every selected name a span the benchmark can record.
"""

import importlib
import inspect
import types

import pytest

from ifir_cdma import adaptive, analysis, cmv, interpolation

SPANS = (
    "signal_model.make_channel",
    "interpolation.build_re_matrix",
    "interpolation.detect",
    "adaptive.lms_step",
    "adaptive.rls_step",
    "adaptive.cmv_sg_step",
    "adaptive.cmv_rls_step",
    "adaptive.make_trained_rls",
    "adaptive.make_blind_rls",
    "cmv.build_constraints",
    "harness.run_trial",
    "harness.run_campaign",
    "harness.export",
)
INTERPOLATED = ("lms", "rls", "cmv-sg", "cmv-rls")


@pytest.mark.parametrize("span", SPANS)
def test_span_is_a_public_function_of_its_module(span):
    module, name = span.split(".")
    fn = getattr(importlib.import_module(f"ifir_cdma.{module}"), name, None)
    assert isinstance(fn, types.FunctionType), span
    assert not name.startswith("_")
    assert fn.__module__ == f"ifir_cdma.{module}" and fn.__name__ == name
    assert not inspect.isgeneratorfunction(fn)


def test_rls_states_count_breakdowns():
    # the benchmark sums `breakdowns` over the states these factories return
    dec = interpolation.make_decimation(36, 2)
    cons = cmv.build_constraints(interpolation.impulse(31), dec)
    v0 = interpolation.impulse(3)
    for st in (adaptive.make_trained_rls(dec, v0, alpha=0.998, delta=100.0),
               adaptive.make_blind_rls(cons, v0, alpha=0.998, delta=100.0)):
        assert st.breakdowns == 0


@pytest.mark.parametrize("alg", INTERPOLATED)
def test_complexity_rows_of_interpolated_receivers(alg):
    adds, mults = analysis.complexity_count(f"{alg}-int", m=36, l=2, n_i=3, l_p=6)
    assert adds > 0 and mults > 0
