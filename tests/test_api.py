"""Every public top-level function and class of the package, pinned by signature.

``api.txt`` holds one line per public (not underscore-prefixed) function or
class defined in a module under src/ringcav, as ``inspect.signature``
renders it, with each class's bases. A renamed, removed or re-typed name, or
a changed parameter or default, fails here; rewrite the file from
``signatures()`` only where that change is intended.
"""
import importlib
import inspect
from pathlib import Path

import ringcav

SRC = Path(ringcav.__file__).resolve().parent
PINNED = Path(__file__).with_name("api.txt")


def _render(qualname: str, obj) -> str:
    if not inspect.isclass(obj):
        return f"def {qualname}{inspect.signature(obj)}"
    bases = ", ".join(base.__name__ for base in obj.__bases__)
    try:
        signature = str(inspect.signature(obj))
    except ValueError:  # the constructor of a built-in base, such as Exception's
        signature = "(built-in constructor)"
    return f"class {qualname}({bases}): {signature}"


def signatures() -> str:
    lines = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"ringcav.{path.stem}")
        for name, obj in sorted(vars(module).items()):
            if (not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__ == module.__name__):
                lines.append(_render(f"{module.__name__}.{name}", obj))
    return "\n".join(lines) + "\n"


def test_every_public_signature_is_pinned():
    assert signatures() == PINNED.read_text(encoding="utf-8")
