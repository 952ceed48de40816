"""The package's settable values, public names and error types, counted so
that a new knob, public name or error type shows in review.

A settable value is an init field of a public dataclass or a defaulted
parameter of a public function, in the eight ``otmap`` modules.  A public
name is an entry of ``otmap.__all__``.  An error type is a subclass of
``OtmapError`` defined in ``otmap.errors``.  Adding any of them means
changing ``SETTABLE_VALUES``, ``PUBLIC_NAMES`` or ``ERROR_TYPES`` below.
No public function may default a parameter named ``rng`` or ``seed``:
random draws come from the caller's stream.

Every parameter of a public function annotated exactly with a public
package class or ``np.random.Generator`` is checked on entry: ``None`` or a
plain array there raises :class:`SpecError` naming the parameter, not an
``AttributeError`` from deep inside.
"""

import dataclasses
import importlib
import inspect
import typing

import numpy as np
import pytest

import otmap
from otmap import errors
from otmap.autoenc import AutoencoderSpec
from otmap.baseline import ClusterModel
from otmap.datasets import ImageBatch, SyntheticKind, SyntheticSpec
from otmap.errors import SpecError
from otmap.mappers import PriorSpec, TrainConfig, pool_sampler
from otmap.nn import LayerSpec, Mlp, _Adam, init_mlp
from otmap.ot import CostMatrix, PointSet, pairwise_cost

MODULES = ["autoenc", "baseline", "datasets", "errors", "mappers", "nn", "ot", "plots"]
SETTABLE_VALUES = 37
PUBLIC_NAMES = 32
ERROR_TYPES = 4
TYPED_PARAMETERS = 37


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


def test_error_type_count_is_pinned():
    # One type per fault: a count out of range or a malformed array is always
    # SpecError, two counts that disagree are always SizeMismatch.
    found = [
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.OtmapError) and obj is not errors.OtmapError
    ]
    assert len(found) == ERROR_TYPES, "\n".join(found)


def test_no_public_function_defaults_its_random_stream():
    # A defaulted rng or seed would draw from a hidden stream, the same one on every call.
    hidden = [
        qualname
        for qualname, obj in public_objects()
        if inspect.isfunction(obj) and any(p.name in ("rng", "seed") for p in defaulted_parameters(obj))
    ]
    assert hidden == []


def test_public_name_count_is_pinned():
    assert len(otmap.__all__) == PUBLIC_NAMES, "\n".join(otmap.__all__)


def test_every_public_name_resolves():
    missing = [name for name in otmap.__all__ if not hasattr(otmap, name)]
    assert not missing
    assert len(set(otmap.__all__)) == len(otmap.__all__)


def typed_parameters() -> list[tuple[str, str]]:
    """(``module.function``, parameter) for each parameter of a public function
    annotated exactly with a public package class or ``np.random.Generator``."""
    found = []
    for qualname, obj in public_objects():
        if inspect.isfunction(obj):
            hints = typing.get_type_hints(obj)
            for name in inspect.signature(obj).parameters:
                hint = hints.get(name)
                package_class = inspect.isclass(hint) and hint.__module__.startswith("otmap.")
                if hint is np.random.Generator or (package_class and not hint.__name__.startswith("_")):
                    found.append((qualname, name))
    return found


def call_with_valid_arguments(qualname: str, tmp_path, **replace):
    """Call the public function with a small valid argument for each parameter,
    except those named in ``replace``."""
    points = PointSet(np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 2)))
    net = init_mlp([LayerSpec(2, 2)], seed=0)
    by_name = {
        "encoder": init_mlp([LayerSpec(4, 2)], seed=1),
        "decoder": init_mlp([LayerSpec(2, 4)], seed=2),
        "state": _Adam(net.params),
        "output_grad": np.zeros((8, 2)),
        "target_sampler": pool_sampler(points, 4, seed=0),
        "path": tmp_path / "ckpt",
        "k": 2, "n": 4, "batch_k": 4, "rows": 1, "cols": 1, "seed": 0, "lr": 1e-3,
    }
    by_type = {
        PointSet: points,
        Mlp: net,
        CostMatrix: pairwise_cost(points, points),
        ClusterModel: ClusterModel(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]),
        ImageBatch: ImageBatch(np.full((8, 4), 0.5), h=2, w=2),
        AutoencoderSpec: AutoencoderSpec(input_dim=4, hidden=(), latent_dim=2),
        SyntheticSpec: SyntheticSpec(SyntheticKind.MOONS, n=8, seed=0),
        PriorSpec: PriorSpec(dim=2),
        TrainConfig: TrainConfig(prior=PriorSpec(dim=2), steps=1, batch_k=4),
        np.random.Generator: np.random.default_rng(0),
    }
    fn = dict(public_objects())[qualname]
    hints = typing.get_type_hints(fn)
    kwargs = {
        name: by_name[name] if name in by_name else by_type[hints[name]] for name in inspect.signature(fn).parameters
    }
    return fn(**{**kwargs, **replace})


def test_typed_parameter_count_is_pinned():
    found = typed_parameters()
    assert len(found) == TYPED_PARAMETERS, "\n".join(f"{fn}({name})" for fn, name in found)


@pytest.mark.parametrize("qualname", sorted({fn for fn, _ in typed_parameters()}))
def test_sweep_arguments_are_valid(qualname, tmp_path):
    # Each wrong-type call below differs from this one in that parameter alone.
    call_with_valid_arguments(qualname, tmp_path)


@pytest.mark.parametrize("wrong", [None, np.zeros((8, 2))], ids=["None", "ndarray"])
@pytest.mark.parametrize("qualname, param", typed_parameters())
def test_typed_parameter_rejects_another_type(qualname, param, wrong, tmp_path):
    with pytest.raises(SpecError, match=rf"^{param} must be of type \w+, got {type(wrong).__name__}$"):
        call_with_valid_arguments(qualname, tmp_path, **{param: wrong})
