"""Spiking spatial-temporal adaptive-graph forecaster."""

from .autograd import Tensor, backward, no_grad
from .model import ForecastModel, ModelConfig, train
from .spiking import LifParams

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "ForecastModel",
    "ModelConfig",
    "train",
    "LifParams",
    "__version__",
]
