"""Every public name has a use in the program, its benchmark, CI or the README.

A name exported by ``treea1``, or a public method, property or classmethod of
an exported class, must be used somewhere other than its own ``def``/``class``
line (or, for a module constant, its assignment) and ``__init__.py``: in
``src/treea1/*.py``, ``perfbench/*.py``, ``.github/workflows/tests.yml`` or
``README.md``.  A name that only its own tests call is code nothing needs.
"""
import inspect
import re
import types
from functools import cached_property
from pathlib import Path

import pytest

import treea1

ROOT_DIR = Path(__file__).resolve().parent.parent
SOURCES = [
    *sorted((ROOT_DIR / "src" / "treea1").glob("*.py")),
    *sorted((ROOT_DIR / "perfbench").glob("*.py")),
    ROOT_DIR / ".github" / "workflows" / "tests.yml",
    ROOT_DIR / "README.md",
]
_MEMBER_KINDS = (types.FunctionType, property, classmethod, staticmethod, cached_property)


def _public_names() -> list[str]:
    names = []
    for name in treea1.__all__:
        obj = getattr(treea1, name)
        if isinstance(obj, types.ModuleType):
            continue
        names.append(name)
        if inspect.isclass(obj) and obj.__module__.startswith("treea1."):
            names.extend(
                f"{name}.{attr}" for attr, member in vars(obj).items()
                if not attr.startswith("_") and isinstance(member, _MEMBER_KINDS)
            )
    return names


def _lines() -> list[str]:
    return [
        line for path in SOURCES if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


_LINES = _lines()


@pytest.mark.parametrize("qualified", _public_names())
def test_every_public_name_has_a_use(qualified):
    name = qualified.rpartition(".")[2]
    definition = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*(:[^=]*)?=")
    use = re.compile(rf"\b{name}\b")
    assert any(use.search(line) and not definition.search(line) for line in _LINES), (
        f"{qualified} is used nowhere in src/treea1, perfbench, CI or the README"
    )
