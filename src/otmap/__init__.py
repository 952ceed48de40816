"""otmap: noise-to-distribution mapping networks trained with exact optimal transport."""

from .baseline import ClusterModel, KmeansResult, kmeans_fit, sample_cluster_model
from .datasets import (
    ImageBatch,
    SyntheticKind,
    SyntheticSpec,
    load_idx,
    make_circles,
    make_glyphs,
    make_moons,
)
from .errors import OtmapError
from .mappers import (
    FeedbackTrace,
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
    AdamState,
    LayerSpec,
    Mlp,
    adam_step,
    backward,
    forward,
    init_adam,
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
    "AdamState",
    "Assignment",
    "ClusterModel",
    "FeedbackTrace",
    "ImageBatch",
    "KmeansResult",
    "LayerSpec",
    "Mlp",
    "OtmapError",
    "PointSet",
    "PriorSpec",
    "SyntheticKind",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "backward",
    "diversity_penalty",
    "forward",
    "generate",
    "init_adam",
    "init_mlp",
    "kmeans_fit",
    "load_checkpoint",
    "load_idx",
    "make_circles",
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
