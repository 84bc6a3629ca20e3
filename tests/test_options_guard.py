"""Every defaulted parameter of a ``rssiloc`` function, and every defaulted
field of a ``rssiloc`` dataclass, has a caller that sets it.

A default that no call in src/, tests/, bench/ or demos/ overrides is a
setting nothing uses: it doubles the configurations to test and serves no
workload. A call is matched by the function's name (the class's name for
``__init__`` and for a dataclass's fields). It sets a parameter by keyword
or by position; ``**kwargs`` counts as setting every parameter, and
``*args`` every positional one. A field's position is its place among its
class's own ``__init__`` fields: no ``rssiloc`` dataclass inherits fields.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [path for folder in ("src", "tests", "bench", "demos")
           for path in sorted((ROOT / folder).rglob("*.py"))]


def _defaulted(tree):
    """(called name, parameter, positional index or None) of each defaulted parameter."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        method = (isinstance(parents[fn], ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
        name = parents[fn].name if method and fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first:], start=first - method):
            yield name, arg.arg, index
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [(stmt.target.id, _field_default(stmt.value)) for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(
                          stmt.annotation) and _field_default(stmt.value) is not None]
            for index, (field, defaulted) in enumerate(fields):
                if defaulted:
                    yield cls.name, field, index


def _field_default(value):
    """Whether a dataclass field of this value has a default; None if it is
    no ``__init__`` parameter (``field(init=False)``)."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value is not None
    keywords = {k.arg: ast.unparse(k.value) for k in value.keywords}
    if keywords.get("init") == "False":
        return None
    return bool({"default", "default_factory"} & set(keywords))


def _calls():
    """Keywords set, and the most positional arguments, per called name over every caller."""
    keywords, positional = {}, {}
    for path in CALLERS:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = getattr(call.func, "id", None) or call.func.attr
                # k.arg is None for **kwargs, which sets every parameter
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                positional[name] = max(positional.get(name, 0),
                                       math.inf if starred else len(call.args))
    return keywords, positional


def test_every_default_is_set_by_a_caller():
    keywords, positional = _calls()
    unset = [f"{path.name}: {name}({param})"
             for path in sorted((ROOT / "src" / "rssiloc").glob("*.py"))
             for name, param, index in _defaulted(ast.parse(path.read_text(encoding="utf-8")))
             if not ({param, None} & keywords.get(name, set())
                     or (index is not None and positional.get(name, 0) > index))]
    assert unset == []
