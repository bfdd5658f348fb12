"""Guards on the shape of src/nilcarnot/, checked with ``ast`` only.

Every optional parameter is passed by some call: an option that only its
default value reaches is a constant in disguise and doubles the
configurations to test.  Calls are matched by function name across
src/, tests/ and perfbench/; a class name stands for its ``__init__``,
and methods skip ``self``.

Derived tables live on their owner as cached properties, so no
``functools.lru_cache`` or ``functools.cache`` appears.  ``exec`` runs
in one place, ``algebra.compile_source``, which loads the generated code
of the bracket and BCH kernels and of the expression trees, and entry
types are tested for float in ``linalg.scalar_mode``, which decides every
vector's scalar mode, and in ``linalg.as_exact``, which checks that a
float converts to a rational without loss.

Every top-level function and class is named somewhere outside its own
definition and ``__init__.py``, as a bare name, an imported name or an
attribute, in src/, tests/ or perfbench/: a name that only the package's
export list mentions is code that no caller needs.
"""

import ast
import math
from collections import Counter
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


class _Sites(ast.NodeVisitor):
    """Names of the functions holding a node ``match`` accepts (``<module>`` at top level)."""

    def __init__(self, match):
        self.match = match
        self.scope = ["<module>"]
        self.sites = []

    def visit(self, node):
        if self.match(node):
            self.sites.append(self.scope[-1])
        if isinstance(node, ast.FunctionDef):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()
        else:
            self.generic_visit(node)


def _sites(match):
    sites = []
    for path in SOURCES:
        visitor = _Sites(match)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += [f"{path.name}:{name}" for name in visitor.sites]
    return sites


def test_exec_runs_only_in_the_kernel_generator():
    def calls_exec(node):
        return isinstance(node, ast.Call) and "exec" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _sites(calls_exec) == ["algebra.py:compile_source"]


def _is_float(node):
    return isinstance(node, ast.Name) and node.id == "float"


def _tests_for_float(node):
    """``isinstance(x, float)`` or ``issubclass(t, float)`` (or a tuple naming
    float), or ``type(x) is float``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
        kinds = node.args[1:]
        kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
        return any(_is_float(k) for k in kinds)
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        typed = any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type" for s in sides)
        return typed and any(_is_float(s) for s in sides)
    return False


def test_scalar_mode_is_the_one_entry_type_check():
    """Only ``linalg.scalar_mode`` decides a scalar mode.

    The other two sites decide none: ``as_exact`` checks that a float
    converts to a rational without loss, and the literal check of the
    expression parser rejects non-numeric constants in the expression
    source.
    """
    sites = sorted(set(_sites(_tests_for_float)))
    assert sites == ["exprlang.py:_convert", "linalg.py:as_exact", "linalg.py:scalar_mode"]
    defined = _sites(lambda node: isinstance(node, ast.FunctionDef) and node.name == "is_float_vector")
    assert defined == []


def _mentions(tree):
    """How often a tree names each identifier: bare names, imported names, attributes."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def test_every_top_level_name_is_used():
    mentions = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name != "__init__.py":
                mentions += _mentions(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if mentions[node.name] == _mentions(node)[node.name]:
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []
