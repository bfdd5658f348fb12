"""Guards on the shape of src/nilcarnot/, checked with ``ast`` only.

Every optional parameter is passed by some call: an option that only its
default value reaches is a constant in disguise and doubles the
configurations to test.  Calls are matched by function name across
src/, tests/ and perfbench/; a class name stands for its ``__init__``,
and methods skip ``self``.

Derived tables live on their owner as cached properties, so no
``functools.lru_cache`` or ``functools.cache`` appears, and ``exec`` runs
in one place: the generator of the bracket and BCH kernels.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nilcarnot").glob("*.py"))


def _optional_parameters():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update({id(fn): cls.name for fn in cls.body if isinstance(fn, ast.FunctionDef)})
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            name = cls if cls and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            skip = 1 if cls and not static else 0
            for index in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield path.name, name, positional[index].arg, index - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield path.name, name, arg.arg, None


def _passed():
    """Function name -> (keywords passed, most positional arguments passed).

    A call that unpacks ``*args`` or ``**kwargs`` passes every parameter.
    """
    out = {}
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                keywords, most = out.get(name, (set(), 0))
                keywords |= {k.arg for k in call.keywords}
                unpacked = any(isinstance(a, ast.Starred) for a in call.args) or None in keywords
                most = max(most, math.inf if unpacked else len(call.args))
                out[name] = (keywords, most)
    return out


def test_every_optional_parameter_is_passed_somewhere():
    passed = _passed()
    unused = []
    for module, name, param, index in _optional_parameters():
        keywords, most = passed.get(name, (set(), 0))
        if not (param in keywords or most == math.inf or (index is not None and most > index)):
            unused.append(f"{module}:{name}({param})")
    assert unused == []


def test_no_function_cache_decorators():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}: {a.name}" for a in node.names if a.name in ("lru_cache", "cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache") and (
                getattr(node.value, "id", None) == "functools"
            ):
                found.append(f"{path.name}: {ast.unparse(node)}")
    assert found == []


class _ExecSites(ast.NodeVisitor):
    """Names of the functions that call ``exec`` (``<module>`` at top level)."""

    def __init__(self):
        self.scope = ["<module>"]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "exec" or getattr(node.func, "attr", None) == "exec":
            self.sites.append(self.scope[-1])
        self.generic_visit(node)


def test_exec_runs_only_in_the_kernel_generator():
    sites = []
    for path in SOURCES:
        visitor = _ExecSites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += [f"{path.name}:{name}" for name in visitor.sites]
    assert sites == ["algebra.py:_kernel"]
