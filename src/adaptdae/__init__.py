"""Online stacked denoising autoencoders with size-adaptive controllers.

The library couples a tied-weight autoencoder stack with three streaming
policies: a fixed network (sdae), a hard-example heuristic that grows and
merges nodes (midae), and a Q-learning controller with per-action GPR
utility curves (radae).  The harness drives any of them over simulated
covariate-shift streams and records a CSV trace per run.
"""

from .config import ExperimentConfig, parse_config, validate_experiment
from .controller import ControllerConfig, QModel, RlController, RlState
from .gp import GprModel
from .network import DataBatch, Layer, Network, batch_errors, finetune, init_network, predict
from .pools import PoolSet
from .stream import LabeledSource, StreamSpec, build_stream, load_idx, synth_dataset
from .structure import ActionKind

__all__ = [
    "ActionKind",
    "ControllerConfig",
    "DataBatch",
    "ExperimentConfig",
    "GprModel",
    "LabeledSource",
    "Layer",
    "Network",
    "PoolSet",
    "QModel",
    "RlController",
    "RlState",
    "StreamSpec",
    "batch_errors",
    "build_stream",
    "finetune",
    "init_network",
    "load_idx",
    "parse_config",
    "predict",
    "synth_dataset",
    "validate_experiment",
]

__version__ = "0.1.0"
