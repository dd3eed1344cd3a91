"""No code under src/ringcav that nothing under src/ uses.

Each rule reads the syntax trees of the modules under src/ringcav:

- a top-level function or class counts as used when a name or attribute
  elsewhere in the package refers to it (references from inside its own body
  do not count), when a decorator registers it as a click command, or when it
  is public API: named in ringcav.__all__ or in KEPT below;
- a method or property counts as used when a name or attribute outside its
  own body refers to it; dunders, and overrides of a base-class method (which
  the base class's own code calls), are exempt;
- a dataclass field counts as used when an attribute read outside its own
  class's __post_init__ names it;
- a parameter with a default counts as used when some call under src/ passes
  it, by position or by keyword; a call of a class is a call of its
  __init__. Exempt are functions passed as values (the fit models' ``free``,
  reached through MODELS[k].func), click commands and KEPT names.

Calls and references are matched by name, not resolved, so a name shared by
two definitions keeps both.
"""
import ast
import importlib
from collections import Counter
from pathlib import Path

import ringcav

SRC = Path(ringcav.__file__).resolve().parent

# public helpers outside __all__ that nothing under src/ calls, each with its user
KEPT = {
    "power_from_drive",  # the inverse conversion DriveParams' docstring names
    "objective",  # the weighted residual sum of squares a fit minimises
}


def _trees():
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _registers_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(node) -> Counter:
    """How often each name, and each attribute name, occurs under node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _classes(trees):
    """(module, class node, class object) for every class defined at module level."""
    for module, tree in trees:
        namespace = importlib.import_module(f"ringcav.{module}")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield module, node, getattr(namespace, node.name)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _scan():
    defined, used = [], set()
    for module, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                used |= set(_references(node)) - {node.name}
                if _registers_command(node):
                    used.add(node.name)
            else:
                used |= set(_references(node))
    return defined, used


def test_every_definition_has_a_user_under_src():
    defined, used = _scan()
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used and name not in ringcav.__all__ and name not in KEPT]
    assert not unused, f"defined under src/ but never used there: {unused}"


def test_kept_names_are_defined_and_unused_under_src():
    # a kept name that src/ starts to use, or deletes, must leave KEPT
    defined, used = _scan()
    assert KEPT <= {name for _, name in defined}
    assert not KEPT & used


def test_every_method_has_a_user_under_src():
    trees = _trees()
    everywhere = sum((_references(tree) for _, tree in trees), Counter())
    unused = []
    for module, node, cls in _classes(trees):
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or _is_dunder(method.name):
                continue
            if any(hasattr(base, method.name) for base in cls.__mro__[1:]):
                continue
            if everywhere[method.name] == _references(method)[method.name]:
                unused.append(f"{module}:{node.name}.{method.name}")
    assert not unused, f"methods nothing under src/ names: {unused}"


def test_every_dataclass_field_is_read_under_src():
    trees = _trees()
    reads = sum((_attribute_reads(tree) for _, tree in trees), Counter())
    unread = []
    for module, node, _ in _classes(trees):
        if not _is_dataclass(node):
            continue
        own = sum((_attribute_reads(m) for m in node.body
                   if isinstance(m, ast.FunctionDef) and m.name == "__post_init__"), Counter())
        for field in node.body:
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                name = field.target.id
                if reads[name] == own[name]:
                    unread.append(f"{module}:{node.name}.{name}")
    assert not unread, f"dataclass fields nothing under src/ reads: {unread}"


def _calls(trees):
    """name -> [(positional count, keyword names, whether it splats *args or **kwargs)]."""
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {k.arg for k in node.keywords}
            splat = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((len(node.args), keywords, splat))
    return calls


def _values(trees) -> set:
    """Names and attribute names used other than as the callee of a call."""
    callees = {id(node.func) for _, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Call)}
    return {getattr(node, "id", getattr(node, "attr", None))
            for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees}


def _functions(trees):
    """(module, name calls use, function node, index of its first passed parameter)."""
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield module, node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        callee = node.name if method.name == "__init__" else method.name
                        yield module, callee, method, 1  # self


def test_every_default_is_overridden_by_some_call_under_src():
    trees = _trees()
    calls, values = _calls(trees), _values(trees)
    never = []
    for module, callee, node, first in _functions(trees):
        if callee in KEPT or callee in values or _registers_command(node):
            continue
        args = node.args.posonlyargs + node.args.args
        defaulted = [(i - first, a.arg) for i, a in enumerate(args)
                     if i >= len(args) - len(node.args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            if not any(splat or arg in keywords or (index is not None and index < count)
                       for count, keywords, splat in calls.get(callee, [])):
                never.append(f"{module}:{callee}({arg}=)")
    assert not never, f"defaults no call under src/ overrides: {never}"
