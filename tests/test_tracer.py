"""The benchmark's span tracer still finds the kernels it wraps.

``perfbench/tracer.py`` wraps library functions by module and name; a
kernel renamed or bypassed would otherwise only show when a traced
benchmark run breaks or reports zero calls.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import nilcarnot.cli
import nilcarnot.group
from nilcarnot.catalog import ladder5

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable(tracer_module):
    for modname, attr, _ in tracer_module.WRAPPED:
        assert callable(getattr(importlib.import_module(f"nilcarnot.{modname}"), attr, None))


@pytest.mark.parametrize("point, span", [(float, "group.bch_float"), (Fraction, "group.bch_exact")])
def test_traced_step_three_bch_records_one_span_and_no_bracket(tracer_module, point, span):
    # the generated BCH kernel brackets inline: one bch span, no bracket span
    alg = ladder5()
    alg.nilpotency_step, alg.bch_kernel  # warm the tables built with brackets or words
    x = tuple(map(point, (0.25, -1.5, 0.75, 0.5, 2.0, -0.5)))
    y = tuple(map(point, (1.0, 0.125, -0.625, -1.25, 0.75, 1.0)))
    tracer = tracer_module.Tracer().install()
    try:
        nilcarnot.group.bch(alg, x, y)
    finally:
        tracer.uninstall()
    assert tracer.calls == {span: 1}


def test_shear_verify_samples_and_measures_pairs_in_blocks(tracer_module, capsys):
    """The estimators draw each block of pairs with one sampler call and
    measure it with one quasi-norm sweep, where one-point calls made 2,700
    samples and about 4,900 quasi-norms."""
    argv = [
        "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))", "--verify",
        "--samples", "1000",
    ]
    tracer = tracer_module.Tracer().install()
    try:
        assert nilcarnot.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["rng.sample_ball_point"] <= 60
    assert tracer.calls["group.quasi_norm"] <= 100
