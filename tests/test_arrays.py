"""Every public intake of an array checks it is one array of real numbers: ragged rows,
complex entries and strings raise ``SpecError``, never a bare NumPy error or warning."""

import numpy as np
import pytest

from otmap.baseline import ClusterModel
from otmap.datasets import ImageBatch
from otmap.errors import SpecError
from otmap.nn import LayerSpec, Mlp
from otmap.ot import Assignment, PointSet
from otmap.plots import write_pgm

PAIRS = np.zeros((2, 2))

# Each entry: (call taking the array and a scratch directory, a valid array).
ENTRIES = {
    "PointSet": (lambda x, tmp: PointSet(x), PAIRS),
    "ImageBatch": (lambda x, tmp: ImageBatch(x, h=2, w=2), np.full((1, 4), 0.5)),
    "ImageBatch-labels": (lambda x, tmp: ImageBatch(np.full((1, 4), 0.5), h=2, w=2, labels=x), np.array([3])),
    "ClusterModel-weights": (lambda x, tmp: ClusterModel(x, [[0.0]], [[[1.0]]]), np.ones(1)),
    "ClusterModel-means": (lambda x, tmp: ClusterModel([1.0], x, [[[1.0]]]), np.zeros((1, 1))),
    "ClusterModel-covariances": (lambda x, tmp: ClusterModel([1.0], [[0.0]], x), np.ones((1, 1, 1))),
    "Assignment": (lambda x, tmp: Assignment(x, 0.0), np.array([1, 0])),
    "Mlp": (lambda x, tmp: Mlp([LayerSpec(1, 1)], x), np.zeros(2, np.float32)),
    "write_pgm": (lambda x, tmp: write_pgm(tmp / "g.pgm", x), PAIRS),
}

# Each bad input is built from the entry's valid array, so only its entries are wrong.
BAD = {
    "ragged": lambda good: [[0.5, 1.0], [0.5]],
    "complex": lambda good: good + 0j,
    "strings": lambda good: good.astype(str),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_accepts_the_valid_array(tmp_path, entry):
    call, good = entry
    call(good, tmp_path)


@pytest.mark.parametrize("bad", BAD.keys())
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_rejects_an_array_that_is_not_real_numbers_with_a_typed_error(tmp_path, entry, bad):
    call, good = entry
    with pytest.raises(SpecError):
        call(BAD[bad](good), tmp_path)
    assert not any(tmp_path.iterdir())
