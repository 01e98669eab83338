"""Accuracy and latency measurement over the held-out test split.

Predictions are mapped back to QoE units before any metric is computed, so
MAE/RMSE are directly comparable across variants and against the naive
last-value baseline. Inference latency uses a fixed protocol: batches of 16,
10 warmup rounds, 100 timed repetitions. Error densities are 40-bin
histograms.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySplit, ScalerMismatch
from .pipeline import CONTEXT_LEN, N_FEATURES, PreparedDataset, inverse_target
from .zoo import BundleRunner, ModelBundle, last_value_baseline

LATENCY_BATCH = 16
LATENCY_WARMUP = 10
LATENCY_REPS = 100
DENSITY_BINS = 40  # histogram bins per error density

# density export merges the two non-sequence families, as in the figures
DENSITY_CLASS = {
    "gru": "gru",
    "lstm": "lstm",
    "transformer": "transformer",
    "dnn": "linear_dnn",
    "linear": "linear_dnn",
}


@dataclass
class MetricsReport:
    variant_id: str
    model_class: str
    mae: float
    rmse: float
    n_test: int
    abs_errors: np.ndarray
    latency: "LatencyStats | None" = None


@dataclass
class LatencyStats:
    batch_size: int
    reps: int
    mean_ms: float
    median_ms: float
    p95_ms: float

    @property
    def per_sample_ms(self) -> float:
        return self.mean_ms / self.batch_size


def _test_arrays(dataset: PreparedDataset):
    if len(dataset.test) == 0:
        raise EmptySplit("test split is empty")
    return dataset.test.X, dataset.test.y


def check_scaler(bundle: ModelBundle, dataset: PreparedDataset) -> None:
    """Raise ScalerMismatch unless the bundle was trained on this scaler."""
    a, b = bundle.scaler, dataset.scaler
    if not (np.array_equal(a.mins, b.mins) and np.array_equal(a.maxs, b.maxs)):
        raise ScalerMismatch(
            f"{bundle.variant_id}: bundle scaler does not match dataset scaler")


def _metrics(variant_id: str, model_class: str, dataset: PreparedDataset,
             preds: np.ndarray, y: np.ndarray) -> MetricsReport:
    """MAE and RMSE in QoE units of scaled predictions against scaled targets."""
    errors = (inverse_target(dataset.scaler, preds)
              - inverse_target(dataset.scaler, y))
    abs_errors = np.abs(errors)
    mae = float(abs_errors.mean())
    rmse = float(np.sqrt(np.mean(errors * errors)))
    assert rmse >= mae - 1e-9, "rmse below mae: metric computation is broken"
    return MetricsReport(variant_id=variant_id, model_class=model_class, mae=mae,
                         rmse=rmse, n_test=len(y), abs_errors=abs_errors)


def evaluate(bundle: ModelBundle, dataset: PreparedDataset) -> MetricsReport:
    """Test-split MAE and RMSE in QoE units for one bundle, which must
    pass check_scaler against the dataset."""
    check_scaler(bundle, dataset)
    X, y = _test_arrays(dataset)
    runner = BundleRunner(bundle)
    preds = runner.predict(X)[0]  # one pass: a prediction's last bits depend on the batch
    return _metrics(bundle.variant_id, runner.model.model_class, dataset, preds, y)


def evaluate_baseline(dataset: PreparedDataset) -> MetricsReport:
    """Same metrics for the carry-forward baseline (predict last window's QoE)."""
    X, y = _test_arrays(dataset)
    return _metrics("last_value", "baseline", dataset, last_value_baseline(X), y)


def benchmark_latency(bundle: ModelBundle, seed: int = 0) -> LatencyStats:
    """Wall-clock forward latency per batch under the fixed protocol:
    LATENCY_WARMUP untimed rounds, then LATENCY_REPS timed ones, each on the
    same seeded random batch of LATENCY_BATCH rows."""
    runner = BundleRunner(bundle)
    rng = np.random.default_rng(seed)
    batch = rng.random((LATENCY_BATCH, CONTEXT_LEN, N_FEATURES))
    for _ in range(LATENCY_WARMUP):
        runner.predict(batch)
    times = np.empty(LATENCY_REPS)
    for i in range(LATENCY_REPS):
        t0 = time.perf_counter()
        runner.predict(batch)
        times[i] = (time.perf_counter() - t0) * 1000.0
    return LatencyStats(
        batch_size=LATENCY_BATCH,
        reps=LATENCY_REPS,
        mean_ms=float(times.mean()),
        median_ms=float(np.median(times)),
        p95_ms=float(np.percentile(times, 95)),
    )


def rank_variants(reports: list[MetricsReport]) -> list[MetricsReport]:
    """Ascending RMSE, ties broken by MAE then variant id."""
    return sorted(reports, key=lambda r: (r.rmse, r.mae, r.variant_id))


def write_metrics_csv(reports: list[MetricsReport], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["variant_id", "model_class", "rmse", "mae",
                    "latency_ms_batch16", "latency_ms_sample", "n_test"])
        for r in reports:
            lat_b = repr(r.latency.mean_ms) if r.latency else ""
            lat_s = repr(r.latency.per_sample_ms) if r.latency else ""
            w.writerow([r.variant_id, r.model_class, repr(r.rmse), repr(r.mae),
                        lat_b, lat_s, r.n_test])


def export_error_density(reports: list[MetricsReport], out_dir) -> dict[str, Path]:
    """Per-class absolute-error histograms of DENSITY_BINS bins, normalized
    to unit area.

    Errors from all variants of a class are pooled; the dnn and linear
    families share one class. Each CSV row is bin_left,bin_right,density.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pooled: dict[str, list[np.ndarray]] = {}
    for r in reports:
        cls = DENSITY_CLASS.get(r.model_class)
        if cls is None:
            continue
        pooled.setdefault(cls, []).append(r.abs_errors)
    paths: dict[str, Path] = {}
    for cls, chunks in pooled.items():
        errs = np.concatenate(chunks)
        hi = max(float(errs.max()), 1e-9)
        counts, edges = np.histogram(errs, bins=DENSITY_BINS, range=(0.0, hi))
        width = edges[1] - edges[0]
        density = counts / (counts.sum() * width)
        path = out / f"density_{cls}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_left", "bin_right", "density"])
            for i in range(DENSITY_BINS):
                w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                            repr(float(density[i]))])
        paths[cls] = path
    return paths


# ------------------------------------------------------------ latency budget

@dataclass(frozen=True)
class LatencyBudget:
    """End-to-end glass-to-glass budget of a teleoperation loop, in ms."""

    inference_ms: float
    capture_ms: float = 18.0
    uplink_ms: float = 20.0
    downlink_ms: float = 20.0
    render_ms: float = 7.0

    def __post_init__(self):
        for name in ("inference_ms", "capture_ms", "uplink_ms", "downlink_ms", "render_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_ms(self) -> float:
        return (self.inference_ms + self.capture_ms + self.uplink_ms
                + self.downlink_ms + self.render_ms)

    def margin_ms(self, horizon_s: float) -> float:
        """Lead time a forecast gives the operator before its window lands."""
        return horizon_s * 1000.0 - self.total_ms
