import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilcarnot.exprlang import ExprError, kinks, parse_expression


def ev(text, *args, dim=None):
    tree = parse_expression(text, dim if dim is not None else len(args))
    return tree.scalar(args)


def test_arithmetic_and_coordinates():
    assert ev("q1 + 2*q2", 1.0, 3.0) == 7.0
    assert ev("-q1**2", 3.0) == -9.0
    assert ev("q1 / 4", 2.0) == 0.5


def test_kinks_are_the_affine_arguments_of_abs_sqrt_and_sign():
    found = lambda text: kinks(parse_expression(text, 5))
    # three calls on one form give it once
    assert found("sign(q1)*sqrt(abs(q1))") == ((((0, 1.0),), 0.0),)
    assert found("sqrt(abs(q1-1))") == ((((0, 1.0),), -1.0),)
    # scaled, divided, negated and summed forms; in the order a walk meets them
    assert found("abs(-(2*q3 - q1/4) + 3)*sign((q2 + q1)/2)") == (
        (((0, 0.25), (2, -2.0)), 3.0),
        (((0, 0.5), (1, 0.5)), 0.0),
    )
    # a kink inside a kink's argument, and under sin and max
    assert found("max(sin(abs(q4)), 1)*sqrt(q1*q1 + abs(q2))") == ((((3, 1.0),), 0.0), (((1, 1.0),), 0.0))
    # arguments that are not affine, and calls that are no kinks
    assert found("abs(q1*q2) + sqrt(q1**2) + sign(sin(q1)) + sin(q1) + min(q1, q2)") == ()
    # a constant argument has no root; a coefficient that cancels is dropped
    assert found("abs(q1 - q1 + 2)") == (((), 2.0),)


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
    assert t.diff(0).scalar((7.0,)) == 0.5
    t = parse_expression("q1**3", 1)
    assert t.diff(0).scalar((2.0,)) == pytest.approx(12.0)
    t = parse_expression("abs(q1)", 1)
    assert t.diff(0).scalar((-2.0,)) == -1.0
    t = parse_expression("sin(2*q1)", 1)
    assert t.diff(0).scalar((0.0,)) == pytest.approx(2.0)
    t = parse_expression("sqrt(q1)", 1)
    assert t.diff(0).scalar((4.0,)) == pytest.approx(0.25)
    t = parse_expression("min(q1, 2*q1)", 1)
    assert t.diff(0).scalar((1.0,)) == 1.0  # q1 < 2 q1 for positive q1
    assert t.diff(0).scalar((-1.0,)) == 2.0


def test_derivative_wrt_other_variable_is_zero():
    t = parse_expression("q1*q1", 2)
    assert t.diff(1).scalar((3.0, 5.0)) == 0.0


def _expressions():
    """Random expression strings over q1, q2 in the surface grammar."""
    leaves = st.one_of(
        st.sampled_from(["q1", "q2"]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e300]).map(repr),
        st.floats(0.0, 10.0).map(repr),
    )

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["abs", "sqrt", "sign", "sin", "-"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(inner, min_size=2, max_size=3)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"
            ),
        )

    return st.recursive(leaves, grow, max_leaves=8)


def _outcome(run):
    try:
        return "value", float(run()).hex()
    except Exception as exc:  # the backends must fail alike
        return type(exc).__name__, str(exc)


_COORD = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e-300]))


@settings(max_examples=200, deadline=None)
@given(text=_expressions(), points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=5))
@example(text="sin((q1 * 1e300) * 1e300)", points=[(0.0, 0.0), (2.0, 0.0)])
@example(text="(q1 ** q2) + sqrt(q2)", points=[(0.0, -1.0), (-2.0, 0.5), (10.0, 400.0), (2.0, 2.0)])
@example(text="min(q1, (q2 - (q2 + 1e300 * 1e300)))", points=[(1.0, 1.0)])
def test_numpy_backend_equals_the_math_backend(text, points):
    """Bit for bit at every point, and the same exception type and message;
    a batch that raises nowhere gives each point's value."""
    tree = parse_expression(text, 2)
    scalar = [_outcome(lambda: tree.scalar(p)) for p in points]
    single = [_outcome(lambda: np.broadcast_to(tree.array((np.array([p[0]]), np.array([p[1]]))), 1)[0]) for p in points]
    assert single == scalar
    if all(kind == "value" for kind, _ in scalar):
        batch = tree.array(tuple(np.array(column) for column in zip(*points)))
        assert [x.hex() for x in np.broadcast_to(batch, len(points)).tolist()] == [v for _, v in scalar]
