"""Model-based adaptive DPM: estimator, change detection, re-optimization."""

from .change_detect import BernoulliCUSUM
from .estimator import SlidingWindowEstimator
from .model_based import (
    AdaptationEvent,
    AdaptationLog,
    ModelBasedAdaptiveDPM,
    ModelBasedSpec,
)

__all__ = [
    "SlidingWindowEstimator",
    "BernoulliCUSUM",
    "ModelBasedAdaptiveDPM",
    "ModelBasedSpec",
    "AdaptationEvent",
    "AdaptationLog",
]
