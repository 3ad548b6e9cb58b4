"""Precision limits of spectrophotometric concentration measurements of
molecules undergoing two-state chemical reactions.

The package computes photon counting statistics of a weak probe beam from the
dominant eigenvalue of a counting-field-dressed superoperator, transports
them through the sample, and converts them into Cramér-Rao sensitivity
bounds for homodyne and direct detection.
"""

from .errors import ModelError
from .params import ModelParams, default_config, from_config
from .pipeline import PointResult, evaluate_point

__all__ = [
    "ModelError",
    "ModelParams",
    "PointResult",
    "default_config",
    "evaluate_point",
    "from_config",
]

__version__ = "0.1.0"
