"""The package's settable values, counted so that a new knob shows in review.

A settable value is an init field of a public dataclass or a defaulted
parameter of a public function, in the eight ``otmap`` modules.  Adding one
means changing ``SETTABLE_VALUES`` below.
"""

import dataclasses
import importlib
import inspect

MODULES = ["autoenc", "baseline", "datasets", "errors", "mappers", "nn", "ot", "plots"]
SETTABLE_VALUES = 49


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
