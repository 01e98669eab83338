"""Video-QoE forecasting for teleoperated driving links.

Synthesizes labeled vehicular network telemetry, prepares windowed
sequence datasets, trains a zoo of small forecasting models on a
self-contained reverse-mode autodiff core, benchmarks accuracy and
inference latency, explains individual forecasts, and serves streaming
predictions with feedback actions.
"""

__version__ = "0.1.0"

from .errors import QoecastError
from .pipeline import FEATURE_NAMES, QOE_FEATURE, build_dataset, load_dataset
from .serve import FeedbackPolicy, StreamState, decide, run_stream
from .synthgen import GeneratorConfig, generate_trace, inject_episode, qoe_oracle
from .telemetry import TelemetrySample, Trace, load_trace, write_trace
from .train import TrainConfig, run_all_variants, train_variant
from .zoo import ALL_VARIANTS, BundleRunner, build_variant, load_bundle, save_bundle

__all__ = [
    "ALL_VARIANTS",
    "BundleRunner",
    "FEATURE_NAMES",
    "FeedbackPolicy",
    "GeneratorConfig",
    "QOE_FEATURE",
    "QoecastError",
    "StreamState",
    "TelemetrySample",
    "Trace",
    "TrainConfig",
    "build_dataset",
    "build_variant",
    "decide",
    "generate_trace",
    "inject_episode",
    "load_bundle",
    "load_dataset",
    "load_trace",
    "qoe_oracle",
    "run_all_variants",
    "run_stream",
    "save_bundle",
    "train_variant",
    "write_trace",
    "__version__",
]
