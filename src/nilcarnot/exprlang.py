"""Expression language for shear components.

Closed-form component formulas are written over the quotient
coordinates ``q1 .. qn`` with arithmetic (+ - * / ** and unary minus)
and the functions abs, sqrt, sign, sin, min, max.  Strings are parsed
with the stdlib ``ast`` module against a strict whitelist into an
expression tree, which is differentiated as a tree and evaluated as
compiled code.

Compiled: each tree is written once as straight-line Python source
(``source``), one assignment per operation in the order a recursive walk
would evaluate them, and the source runs with one of two namespaces:

* ``math`` (``tree.scalar(q)``, q a tuple of floats): division by zero,
  zero to a negative power, ``**`` overflow and a complex ``**`` raise
  ``ExprError`` naming the node; a negative ``sqrt`` and ``sin`` of an
  infinity raise the ``ValueError`` of :mod:`math`.
* numpy (``tree.array(q)``, q a tuple of float arrays of one shape),
  built on first use: every node acts elementwise with the ``math``
  namespace's bits and exceptions.  ``+ - * /``, ``sqrt`` and ``abs``
  are correctly rounded in both; ``sin``, ``cos`` and ``**`` run element
  by element through the scalar functions, since numpy's SIMD loops may
  round differently; ``min``/``max`` are ``np.where`` chains, which keep
  Python's first-argument rule on nan.  When several elements fail, the
  values an error message quotes may come from another element than the
  scalar walk would meet first.  Overflow and invalid operations stay
  silent, as they are on Python floats.

Differentiation is almost-everywhere: sign differentiates to 0, abs to
sign, min/max follow the active branch.  The derivative tree may use
cos internally (for sin) even though cos is not part of the surface
grammar.  A min/max branch evaluates only the active argument's
derivative, so derivative trees run on the ``math`` namespace only.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .algebra import compile_source


class ExprError(ValueError):
    pass


class _Node:
    """A tree node; its compiled forms are built once, on first use."""

    @cached_property
    def source(self):
        lines = []
        result = _emit(self, lines, "    ", itertools.count())
        return "def expression(q):\n" + "".join(f"{line}\n" for line in lines) + f"    return {result}\n"

    @cached_property
    def scalar(self):
        return compile_source(self.source, "expression", _MATH)

    @cached_property
    def array(self):
        import numpy as np

        run = compile_source(self.source, "expression", _numpy_namespace())

        def evaluate(q):
            with np.errstate(over="ignore", invalid="ignore"):
                return run(q)

        return evaluate


@dataclass(frozen=True)
class Num(_Node):
    value: float

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 0-based coordinate index

    def diff(self, var):
        return Num(1.0 if var == self.index else 0.0)

    def __str__(self):
        return f"q{self.index + 1}"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: object
    right: object

    def diff(self, var):
        l, r = self.left, self.right
        dl, dr = l.diff(var), r.diff(var)
        if self.op == "+":
            return BinOp("+", dl, dr)
        if self.op == "-":
            return BinOp("-", dl, dr)
        if self.op == "*":
            return BinOp("+", BinOp("*", dl, r), BinOp("*", l, dr))
        if self.op == "/":
            num = BinOp("-", BinOp("*", dl, r), BinOp("*", l, dr))
            return BinOp("/", num, BinOp("*", r, r))
        if self.op == "**":
            if not isinstance(r, Num):
                raise ExprError("only constant exponents are differentiable")
            return BinOp(
                "*", BinOp("*", Num(r.value), BinOp("**", l, Num(r.value - 1.0))), dl
            )
        raise ExprError(f"unknown operator {self.op}")

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Neg(_Node):
    arg: object

    def diff(self, var):
        return Neg(self.arg.diff(var))

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple

    def diff(self, var):
        u = self.args[0]
        du = u.diff(var)
        if self.name == "abs":
            return BinOp("*", Call("sign", (u,)), du)
        if self.name == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), Call("sqrt", (u,))))
        if self.name == "sign":
            return Num(0.0)
        if self.name == "sin":
            return BinOp("*", Call("cos", (u,)), du)
        if self.name == "cos":
            return Neg(BinOp("*", Call("sin", (u,)), du))
        if self.name in ("min", "max"):
            return _Branch(self.name, self.args, tuple(a.diff(var) for a in self.args))
        raise ExprError(f"unknown function {self.name}")

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class _Branch(_Node):
    """Derivative of min/max: the derivative of the active argument."""

    kind: str
    args: tuple
    derivs: tuple

    def diff(self, var):
        raise ExprError("second derivatives of min/max are not supported")

    def __str__(self):
        return f"d({self.kind})"


def _emit(node, lines, pad, names):
    """Append the lines that compute ``node``; return the expression holding its value.

    Operands are computed left to right before their node, so an error is
    raised at the node and in the order a recursive walk would meet it.
    """
    if isinstance(node, Num):
        return f"({node.value!r})"
    if isinstance(node, Var):
        return f"var(q[{node.index}])"
    out = f"t{next(names)}"
    if isinstance(node, Neg):
        lines.append(f"{pad}{out} = -{_emit(node.arg, lines, pad, names)}")
    elif isinstance(node, BinOp):
        a = _emit(node.left, lines, pad, names)
        b = _emit(node.right, lines, pad, names)
        if node.op in ("+", "-", "*"):
            lines.append(f"{pad}{out} = {a} {node.op} {b}")
        elif node.op in ("/", "**"):
            guarded = "div" if node.op == "/" else "power"
            lines.append(f"{pad}{out} = {guarded}({a}, {b}, {str(node)!r})")
        else:
            raise ExprError(f"unknown operator {node.op}")
    elif isinstance(node, Call):
        if node.name not in _MATH:
            raise ExprError(f"unknown function {node.name}")
        args = [_emit(a, lines, pad, names) for a in node.args]
        lines.append(f"{pad}{out} = {node.name}({', '.join(args)})")
    else:
        # the first argument that is strictly below (min) or above (max)
        # every earlier one is active, as in Python's min and max
        args = [_emit(a, lines, pad, names) for a in node.args]
        pick, best = f"t{next(names)}", f"t{next(names)}"
        beats = "<" if node.kind == "min" else ">"
        lines += [f"{pad}{pick} = 0", f"{pad}{best} = {args[0]}"]
        for i, a in enumerate(args[1:], 1):
            lines += [f"{pad}if {a} {beats} {best}:", f"{pad}    {pick} = {i}", f"{pad}    {best} = {a}"]
        for i, deriv in enumerate(node.derivs):
            lines.append(f"{pad}{'if' if i == 0 else 'elif'} {pick} == {i}:")
            lines.append(f"{pad}    {out} = {_emit(deriv, lines, pad + '    ', names)}")
    return out


def _div(a, b, where):
    if b == 0:
        raise ExprError(f"division by zero in {where}")
    return a / b


def _power(a, b, where):
    if a == 0 and b < 0:
        raise ExprError(f"zero to a negative power in {where}")
    try:
        out = a ** b
    except OverflowError as exc:
        raise ExprError(f"{a!r} ** {b!r} overflows in {where}") from exc
    if isinstance(out, complex):
        raise ExprError(f"complex value {a!r} ** {b!r} in {where}")
    return out


def _sign(a):
    return math.copysign(1.0, a) if a != 0 else 0.0


_MATH = {
    "__builtins__": {},
    "var": float,
    "div": _div,
    "power": _power,
    "abs": abs,
    "sqrt": math.sqrt,
    "sign": _sign,
    "sin": math.sin,
    "cos": math.cos,
    "min": min,
    "max": max,
}


def _numpy_namespace():
    """The ``math`` namespace's operations on float arrays, elementwise."""
    import numpy as np

    def each(fn):
        def run(*args):
            arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
            values = [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in arrays))]
            return np.array(values, dtype=float).reshape(arrays[0].shape)

        return run

    def div(a, b, where):
        if np.any(np.asarray(b) == 0):
            raise ExprError(f"division by zero in {where}")
        return a / b

    def power(a, b, where):
        return each(lambda x, y: _power(x, y, where))(a, b)

    def sqrt(a):
        a = np.asarray(a, dtype=float)
        negative = a[a < 0]
        if negative.size:
            math.sqrt(negative[0])  # raises the math namespace's ValueError
        return np.sqrt(a)

    def chain(beats):
        def pick(first, *rest):
            out = first
            for b in rest:
                out = np.where(beats(b, out), b, out)
            return out

        return pick

    return {
        "__builtins__": {},
        "var": lambda a: np.asarray(a, dtype=float),
        "div": div,
        "power": power,
        "abs": np.abs,
        "sqrt": sqrt,
        "sign": lambda a: np.where(a != 0, np.copysign(1.0, a), 0.0),
        "sin": each(math.sin),
        "cos": each(math.cos),
        "min": chain(np.less),
        "max": chain(np.greater),
    }


_FUNCTIONS = {"abs": (1,), "sqrt": (1,), "sign": (1,), "sin": (1,), "min": (2, 3, 4), "max": (2, 3, 4)}


def _convert(node, dim):
    if isinstance(node, ast.Expression):
        return _convert(node.body, dim)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExprError(f"bad literal {node.value!r}")
        if not math.isfinite(node.value):
            raise ExprError(f"literal {node.value!r} is not finite")
        return Num(float(node.value))
    if isinstance(node, ast.Name):
        name = node.id
        if not (name.startswith("q") and name[1:].isdigit()):
            raise ExprError(f"unknown name {name!r}; coordinates are q1..q{dim}")
        idx = int(name[1:]) - 1
        if not 0 <= idx < dim:
            raise ExprError(f"{name} out of range for a {dim}-coordinate quotient")
        return Var(idx)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return Neg(_convert(node.operand, dim))
        if isinstance(node.op, ast.UAdd):
            return _convert(node.operand, dim)
        raise ExprError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
        kind = ops.get(type(node.op))
        if kind is None:
            raise ExprError("unsupported binary operator")
        return BinOp(kind, _convert(node.left, dim), _convert(node.right, dim))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExprError("unsupported function call")
        if node.keywords:
            raise ExprError("keyword arguments are not allowed")
        arity = _FUNCTIONS[node.func.id]
        if len(node.args) not in arity:
            raise ExprError(f"{node.func.id} takes {arity} arguments")
        return Call(node.func.id, tuple(_convert(a, dim) for a in node.args))
    raise ExprError(f"unsupported syntax: {ast.dump(node)}")


def parse_expression(text: str, dim: int):
    """Parse one scalar expression over q1..q<dim> into a tree."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"syntax error in {text!r}: {exc}") from exc
    return _convert(tree, dim)
