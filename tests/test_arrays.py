"""Every public intake of an array checks it is one array of real numbers: ragged rows,
complex entries and strings raise a typed error, never a bare NumPy error or warning."""

import numpy as np
import pytest

from otmap.baseline import ClusterModel
from otmap.datasets import ImageBatch
from otmap.errors import InvalidCost, ModelError, OtmapError, SizeMismatch, SpecError
from otmap.nn import LayerSpec, Mlp
from otmap.ot import Assignment, PointSet
from otmap.plots import write_pgm

PAIRS = np.zeros((2, 2))

# Each entry: (call taking the array and a scratch directory, a valid array,
# the error for non-real entries, the error for ragged rows).
ENTRIES = {
    "PointSet": (lambda x, tmp: PointSet(x), PAIRS, InvalidCost, SizeMismatch),
    "ImageBatch": (lambda x, tmp: ImageBatch(x, h=2, w=2), np.full((1, 4), 0.5), SpecError, SpecError),
    "ImageBatch-labels": (
        lambda x, tmp: ImageBatch(np.full((1, 4), 0.5), h=2, w=2, labels=x), np.array([3]), SpecError, SpecError
    ),
    "ClusterModel-weights": (
        lambda x, tmp: ClusterModel(x, [[0.0]], [[[1.0]]]), np.ones(1), ModelError, ModelError
    ),
    "ClusterModel-means": (
        lambda x, tmp: ClusterModel([1.0], x, [[[1.0]]]), np.zeros((1, 1)), ModelError, ModelError
    ),
    "ClusterModel-covariances": (
        lambda x, tmp: ClusterModel([1.0], [[0.0]], x), np.ones((1, 1, 1)), ModelError, ModelError
    ),
    "Assignment": (lambda x, tmp: Assignment(x, 0.0), np.array([1, 0]), SizeMismatch, SizeMismatch),
    "Mlp": (lambda x, tmp: Mlp([LayerSpec(1, 1)], x), np.zeros(2, np.float32), SpecError, SpecError),
    "write_pgm": (lambda x, tmp: write_pgm(tmp / "g.pgm", x), PAIRS, SpecError, SizeMismatch),
}

# Each bad input is built from the entry's valid array, so only its entries are wrong.
BAD = {
    "ragged": lambda good: [[0.5, 1.0], [0.5]],
    "complex": lambda good: good + 0j,
    "strings": lambda good: good.astype(str),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_accepts_the_valid_array(tmp_path, entry):
    call, good, _, _ = entry
    call(good, tmp_path)


@pytest.mark.parametrize("bad", BAD.keys())
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_rejects_an_array_that_is_not_real_numbers_with_a_typed_error(tmp_path, entry, bad):
    call, good, error, ragged_error = entry
    with pytest.raises(OtmapError) as caught:
        call(BAD[bad](good), tmp_path)
    assert isinstance(caught.value, ragged_error if bad == "ragged" else error)
    assert not any(tmp_path.iterdir())
