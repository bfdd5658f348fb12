import math

import pytest

from nilcarnot.exprlang import ExprError, parse_expression


def ev(text, *args, dim=None):
    tree = parse_expression(text, dim if dim is not None else len(args))
    return tree.eval(args)


def test_arithmetic_and_coordinates():
    assert ev("q1 + 2*q2", 1.0, 3.0) == 7.0
    assert ev("-q1**2", 3.0) == -9.0
    assert ev("q1 / 4", 2.0) == 0.5


def test_functions():
    assert ev("abs(q1)", -2.5) == 2.5
    assert ev("sqrt(abs(q1))", -4.0) == 2.0
    assert ev("sign(q1)", -3.0) == -1.0
    assert ev("sign(q1)", 0.0) == 0.0
    assert ev("sin(q1)", math.pi / 2) == pytest.approx(1.0)
    assert ev("min(q1, q2)", 2.0, -1.0) == -1.0
    assert ev("max(q1, q2, 0)", -2.0, -1.0) == 0.0


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expression("q3", 2)
    with pytest.raises(ExprError):
        parse_expression("foo(q1)", 1)
    with pytest.raises(ExprError):
        parse_expression("__import__('os')", 1)
    with pytest.raises(ExprError):
        parse_expression("q1 +", 1)
    with pytest.raises(ExprError):
        parse_expression("x", 1)


def test_eval_errors_are_expr_errors():
    with pytest.raises(ExprError, match="division by zero"):
        ev("1/q1", 0.0)
    with pytest.raises(ExprError, match="negative power"):
        ev("q1**-1", 0.0)
    with pytest.raises(ExprError, match="complex"):
        ev("q1**0.5", -2.0)
    with pytest.raises(ExprError, match="overflows"):
        ev("q1**400", -7.0)
    assert ev("q1**2", -2.0) == 4.0


def test_derivatives():
    t = parse_expression("0.5*q1", 1)
    assert t.diff(0).eval((7.0,)) == 0.5
    t = parse_expression("q1**3", 1)
    assert t.diff(0).eval((2.0,)) == pytest.approx(12.0)
    t = parse_expression("abs(q1)", 1)
    assert t.diff(0).eval((-2.0,)) == -1.0
    t = parse_expression("sin(2*q1)", 1)
    assert t.diff(0).eval((0.0,)) == pytest.approx(2.0)
    t = parse_expression("sqrt(q1)", 1)
    assert t.diff(0).eval((4.0,)) == pytest.approx(0.25)
    t = parse_expression("min(q1, 2*q1)", 1)
    assert t.diff(0).eval((1.0,)) == 1.0  # q1 < 2 q1 for positive q1
    assert t.diff(0).eval((-1.0,)) == 2.0


def test_derivative_wrt_other_variable_is_zero():
    t = parse_expression("q1*q1", 2)
    assert t.diff(1).eval((3.0, 5.0)) == 0.0
