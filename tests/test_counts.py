"""Every public count and seed goes through one check: an integer in range, else a typed error."""

import numpy as np
import pytest

from otmap.autoenc import AutoencoderSpec
from otmap.baseline import ClusterModel, kmeans_fit, sample_cluster_model
from otmap.errors import InvalidCount, SpecError
from otmap.mappers import PriorSpec, TrainConfig, generate, pool_sampler, sample_prior
from otmap.nn import LayerSpec, init_mlp
from otmap.ot import PointSet

POINTS = PointSet(np.arange(12.0).reshape(6, 2))
MODEL = ClusterModel(weights=np.array([1.0]), means=np.array([[0.0]]), covariances=np.array([[[1.0]]]))
NET = init_mlp([LayerSpec(2, 2)], seed=0)

CASES = {
    "prior-dim": (SpecError, lambda: PriorSpec(dim=2.5)),
    "prior-negative-seed": (SpecError, lambda: PriorSpec(dim=2, seed=-1)),
    "prior-fractional-seed": (SpecError, lambda: PriorSpec(dim=2, seed=1.5)),
    "config-steps": (SpecError, lambda: TrainConfig(steps=2.5)),
    "config-batch_k": (SpecError, lambda: TrainConfig(batch_k=2.5)),
    "config-seed": (SpecError, lambda: TrainConfig(seed=-1)),
    "sample_prior": (InvalidCount, lambda: sample_prior(PriorSpec(dim=2), 2.5, np.random.default_rng(0))),
    "generate": (InvalidCount, lambda: generate(NET, PriorSpec(dim=2), 2.5, np.random.default_rng(0))),
    "kmeans-k": (InvalidCount, lambda: kmeans_fit(POINTS, 2.5)),
    "kmeans-seed": (SpecError, lambda: kmeans_fit(POINTS, 2, seed=-1)),
    "pool_sampler-batch_k": (SpecError, lambda: pool_sampler(POINTS, 2.5, 0)),
    "pool_sampler-seed": (SpecError, lambda: pool_sampler(POINTS, 2, -1)),
    "sample_cluster_model-n": (InvalidCount, lambda: sample_cluster_model(MODEL, 2.5)),
    "sample_cluster_model-seed": (SpecError, lambda: sample_cluster_model(MODEL, 2, seed=-1)),
    "layer-in_dim": (SpecError, lambda: LayerSpec(2.5, 3)),
    "layer-out_dim": (SpecError, lambda: LayerSpec(2, "3")),
    "autoencoder-input_dim": (SpecError, lambda: AutoencoderSpec(input_dim=2.5)),
    "autoencoder-latent_dim": (SpecError, lambda: AutoencoderSpec(input_dim=4, latent_dim=2.5)),
    "autoencoder-hidden": (SpecError, lambda: AutoencoderSpec(input_dim=4, hidden=(2.5,))),
}


@pytest.mark.parametrize("error, call", CASES.values(), ids=CASES.keys())
def test_rejects_a_count_or_seed_that_is_not_an_integer_in_range(error, call):
    with pytest.raises(error, match="need an integer"):
        call()


def test_accepts_numpy_integers():
    prior = PriorSpec(dim=np.int64(2), seed=np.uint32(3))
    assert sample_prior(prior, np.int64(4), np.random.default_rng(0)).data.shape == (4, 2)
    assert kmeans_fit(POINTS, np.int32(2), seed=np.int64(1)).k == 2
    assert pool_sampler(POINTS, np.int16(3), np.uint8(0))().k == 3
