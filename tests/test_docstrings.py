"""Every :func:, :class: and :attr: reference in the package's docstrings names code that exists."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import otmap
import otmap.nn

SRC = Path(otmap.__file__).resolve().parent
ROLE = re.compile(r":(?:func|class|attr):`([^`]+)`")


def references() -> list[tuple[str, str]]:
    """(module name, target) for every reference in src/otmap/*.py."""
    refs = []
    for path in sorted(SRC.glob("*.py")):
        module = "otmap" if path.stem == "__init__" else f"otmap.{path.stem}"
        refs += [(module, target) for target in ROLE.findall(path.read_text())]
    return refs


def member(obj, name: str) -> bool:
    # An attribute, or a dataclass field without a class-level default (``Mlp.params``).
    return hasattr(obj, name) or (dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)})


def resolves(module, target: str) -> bool:
    """A module-level name of ``module`` or of ``otmap``, a member of one,
    or an importable dotted path."""
    head, *rest = target.split(".")
    for scope in (module, otmap):
        if hasattr(scope, head) and len(rest) <= 1 and all(member(getattr(scope, head), name) for name in rest):
            return True
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_reference_resolves():
    refs = references()
    assert ("otmap.nn", "Mlp.params") in refs and ("otmap.ot", "scipy.optimize.linear_sum_assignment") in refs
    unresolved = [f"{module}: {target}" for module, target in refs if not resolves(importlib.import_module(module), target)]
    assert unresolved == []


@pytest.mark.parametrize(
    "target", ["no_such_function", "AdamState.beta1", "Mlp.params.flat", "scipy.optimize.no_such_solver", "nosuchpkg.f"]
)
def test_a_reference_to_missing_code_does_not_resolve(target):
    assert not resolves(otmap.nn, target)
