"""The package's settable values and public names, counted so that a new
knob or a new public name shows in review.

A settable value is an init field of a public dataclass or a defaulted
parameter of a public function, in the eight ``otmap`` modules.  A public
name is an entry of ``otmap.__all__``.  Adding either means changing
``SETTABLE_VALUES`` or ``PUBLIC_NAMES`` below.
"""

import dataclasses
import importlib
import inspect

import otmap

MODULES = ["autoenc", "baseline", "datasets", "errors", "mappers", "nn", "ot", "plots"]
SETTABLE_VALUES = 46
PUBLIC_NAMES = 33


def settable_values() -> list[str]:
    found = []
    for name in MODULES:
        module = importlib.import_module(f"otmap.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                found += [f"{name}.{attr}.{f.name}" for f in dataclasses.fields(obj) if f.init]
            elif inspect.isfunction(obj):
                params = inspect.signature(obj).parameters.values()
                found += [f"{name}.{attr}({p.name}=)" for p in params if p.default is not p.empty]
    return found


def test_settable_value_count_is_pinned():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(found)


def test_public_name_count_is_pinned():
    assert len(otmap.__all__) == PUBLIC_NAMES, "\n".join(otmap.__all__)


def test_every_public_name_resolves():
    missing = [name for name in otmap.__all__ if not hasattr(otmap, name)]
    assert not missing
    assert len(set(otmap.__all__)) == len(otmap.__all__)
