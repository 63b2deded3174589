"""The benchmark's tracing contract, checked without a traced run.

``bench/tracing.py`` wraps the functions named in its ``HOOKS`` table and
reads some of their arguments by position.  A renamed function would only
show up as ``trace.absent_hooks`` in a traced benchmark run, and a moved
argument as a wrong per-layer metric; these tests fail first.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def hooks():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing").HOOKS
    finally:
        sys.path.remove(str(BENCH))


def _function(module, name):
    return getattr(importlib.import_module(f"smoothmusic.{module}"), name, None)


def test_every_hooked_function_exists(hooks):
    assert [f"{m}.{f}" for m, f, _ in hooks if not callable(_function(m, f))] == []


@pytest.mark.parametrize(
    "module, name, position, parameter",
    [
        ("subspace", "sample_covariance_eig", 0, "smoothed"),
        ("subspace", "traditional_pseudospectrum", 1, "theta"),
        ("subspace", "gmusic_pseudospectrum", 3, "theta"),
        ("verify", "quadratic_form_check", 0, "m"),
    ],
)
def test_traced_argument_positions(hooks, module, name, position, parameter):
    assert (module, name) in {(m, f) for m, f, _ in hooks}
    params = list(inspect.signature(_function(module, name)).parameters)
    assert params[position] == parameter
