"""Expression language for shear components.

Closed-form component formulas are written over the quotient
coordinates ``q1 .. qn`` with arithmetic (+ - * / ** and unary minus)
and the functions abs, sqrt, sign, sin, min, max.  Strings are parsed
with the stdlib ``ast`` module against a strict whitelist and compiled
into an expression tree that can be evaluated and differentiated.

Differentiation is almost-everywhere: sign differentiates to 0, abs to
sign, min/max follow the active branch.  The derivative tree may use
cos internally (for sin) even though cos is not part of the surface
grammar.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass


class ExprError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate index

    def eval(self, env):
        return float(env[self.index])

    def diff(self, var):
        return Num(1.0 if var == self.index else 0.0)

    def __str__(self):
        return f"q{self.index + 1}"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if b == 0:
                raise ExprError(f"division by zero in {self}")
            return a / b
        if self.op == "**":
            if a == 0 and b < 0:
                raise ExprError(f"zero to a negative power in {self}")
            try:
                out = a ** b
            except OverflowError as exc:
                raise ExprError(f"{a!r} ** {b!r} overflows in {self}") from exc
            if isinstance(out, complex):
                raise ExprError(f"complex value {a!r} ** {b!r} in {self}")
            return out
        raise ExprError(f"unknown operator {self.op}")

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
class Neg:
    arg: object

    def eval(self, env):
        return -self.arg.eval(env)

    def diff(self, var):
        return Neg(self.arg.diff(var))

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        if self.name == "abs":
            return abs(vals[0])
        if self.name == "sqrt":
            return math.sqrt(vals[0])
        if self.name == "sign":
            return math.copysign(1.0, vals[0]) if vals[0] != 0 else 0.0
        if self.name == "sin":
            return math.sin(vals[0])
        if self.name == "cos":
            return math.cos(vals[0])
        if self.name == "min":
            return min(vals)
        if self.name == "max":
            return max(vals)
        raise ExprError(f"unknown function {self.name}")

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
class _Branch:
    """Derivative of min/max: the derivative of the active argument."""

    kind: str
    args: tuple
    derivs: tuple

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        pick = min(range(len(vals)), key=vals.__getitem__) if self.kind == "min" else max(
            range(len(vals)), key=vals.__getitem__
        )
        return self.derivs[pick].eval(env)

    def diff(self, var):
        raise ExprError("second derivatives of min/max are not supported")

    def __str__(self):
        return f"d({self.kind})"


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
