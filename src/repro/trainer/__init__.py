"""Trainer: the NumPy DLRM with KJT and IKJT (O5–O7) sparse paths."""

from .attention import AttentionPooling, TransformerPooling
from .embedding import EmbeddingActivations, EmbeddingTable
from .interaction import DotInteraction
from .loss import bce_with_logits, sigmoid
from .mlp import MLP, Linear
from .model import DLRM, DLRMConfig, make_pooling
from .optimizer import SGD, sparse_row_update
from .params import Parameter
from .pooling import MaxPooling, MeanPooling, PoolingModule, SumPooling
from .sparse_arch import SparseArch, SparseFeature, TrainerOptFlags

__all__ = [
    "Parameter",
    "Linear",
    "MLP",
    "SGD",
    "sparse_row_update",
    "EmbeddingTable",
    "EmbeddingActivations",
    "PoolingModule",
    "SumPooling",
    "MeanPooling",
    "MaxPooling",
    "AttentionPooling",
    "TransformerPooling",
    "DotInteraction",
    "bce_with_logits",
    "sigmoid",
    "SparseArch",
    "SparseFeature",
    "TrainerOptFlags",
    "DLRM",
    "DLRMConfig",
    "make_pooling",
]
