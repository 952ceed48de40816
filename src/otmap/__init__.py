"""otmap: noise-to-distribution mapping networks trained with exact optimal transport."""

from .baseline import ClusterModel, kmeans_fit, sample_cluster_model
from .datasets import (
    ImageBatch,
    SyntheticKind,
    SyntheticSpec,
    load_idx,
    make_glyphs,
    make_moons,
)
from .errors import OtmapError
from .mappers import (
    PriorSpec,
    TrainConfig,
    TrainResult,
    diversity_penalty,
    generate,
    pool_sampler,
    sample_prior,
    train_otgen,
    train_ottrans,
)
from .nn import (
    Activation,
    LayerSpec,
    Mlp,
    forward,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)
from .ot import (
    Assignment,
    PointSet,
    ot_divergence,
    pairwise_cost,
    solve_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "Assignment",
    "ClusterModel",
    "ImageBatch",
    "LayerSpec",
    "Mlp",
    "OtmapError",
    "PointSet",
    "PriorSpec",
    "SyntheticKind",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "diversity_penalty",
    "forward",
    "generate",
    "init_mlp",
    "kmeans_fit",
    "load_checkpoint",
    "load_idx",
    "make_glyphs",
    "make_moons",
    "ot_divergence",
    "pairwise_cost",
    "pool_sampler",
    "sample_cluster_model",
    "sample_prior",
    "save_checkpoint",
    "solve_assignment",
    "train_otgen",
    "train_ottrans",
    "__version__",
]
