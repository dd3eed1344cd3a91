"""No top-level function or class under src/ringcav that nothing under src/ uses.

A definition counts as used when a name or attribute elsewhere in the package
refers to it (references from inside its own body do not count), when a
decorator registers it as a click command, or when it is public API: named
in ringcav.__all__ or in KEPT below.
"""
import ast
from pathlib import Path

import ringcav

SRC = Path(ringcav.__file__).resolve().parent

# public helpers outside __all__ that nothing under src/ calls, each with its user
KEPT = {
    "scan_dwell_ratio",  # criterion 10's dwell asymmetry
    "power_from_drive",  # the inverse conversion DriveParams' docstring names
    "objective",  # the weighted residual sum of squares a fit minimises
}


def _registers_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _references(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _scan():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                used |= _references(node) - {node.name}
                if _registers_command(node):
                    used.add(node.name)
            else:
                used |= _references(node)
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
