"""The package's settable values and public names, counted so that a new
knob or a new public name shows in review.

A settable value is an init field of a public dataclass or a defaulted
parameter of a public function, in the eight ``otmap`` modules.  A public
name is an entry of ``otmap.__all__``.  Adding either means changing
``SETTABLE_VALUES`` or ``PUBLIC_NAMES`` below.  No public function may
default a parameter named ``rng``: random draws come from the caller's stream.
"""

import dataclasses
import importlib
import inspect

import otmap

MODULES = ["autoenc", "baseline", "datasets", "errors", "mappers", "nn", "ot", "plots"]
SETTABLE_VALUES = 41
PUBLIC_NAMES = 32


def public_objects() -> list[tuple[str, object]]:
    """(``module.attr``, object) for each public name defined in the eight modules."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"otmap.{name}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
                found.append((f"{name}.{attr}", obj))
    return found


def defaulted_parameters(fn) -> list[inspect.Parameter]:
    return [p for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def settable_values() -> list[str]:
    found = []
    for qualname, obj in public_objects():
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            found += [f"{qualname}.{f.name}" for f in dataclasses.fields(obj) if f.init]
        elif inspect.isfunction(obj):
            found += [f"{qualname}({p.name}=)" for p in defaulted_parameters(obj)]
    return found


def test_settable_value_count_is_pinned():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(found)


def test_no_public_function_defaults_its_random_stream():
    # A defaulted rng would draw from a hidden stream, the same one on every call.
    hidden = [
        qualname
        for qualname, obj in public_objects()
        if inspect.isfunction(obj) and any(p.name == "rng" for p in defaulted_parameters(obj))
    ]
    assert hidden == []


def test_public_name_count_is_pinned():
    assert len(otmap.__all__) == PUBLIC_NAMES, "\n".join(otmap.__all__)


def test_every_public_name_resolves():
    missing = [name for name in otmap.__all__ if not hasattr(otmap, name)]
    assert not missing
    assert len(set(otmap.__all__)) == len(otmap.__all__)
