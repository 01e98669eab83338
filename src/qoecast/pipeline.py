"""Feature pipeline: windows, scaling, context sequences, chronological split.

Ticks are aggregated into fixed, non-overlapping windows by
telemetry.WindowAggregator, the same rule serve applies live; each window
becomes a 6-feature vector whose last entry is the window's QoE (so models
see QoE history as an autoregressive input). Min-max scaling is fitted on
training windows only. A model input is the 5-window context preceding the
target window; targets are the scaled QoE of the next window. build_dataset
finds the sequences, orders them and cuts the split in one pass.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientData,
    NoCompleteWindow,
    ShapeMismatch,
    TooFewSequences,
    TraceTooShort,
    malformed,
)
from .synthgen import window_qoe
from .telemetry import DEFAULT_WINDOW_S, MIN_WINDOW_COVERAGE, Trace, WindowAggregator

FEATURE_NAMES = (
    "thr_mean_mbps",
    "jitter_mean_ms",
    "loss_rate_mean",
    "loss_count_sum",
    "speed_mean_kmh",
    "qoe",
)
N_FEATURES = len(FEATURE_NAMES)
QOE_FEATURE = FEATURE_NAMES.index("qoe")

# the fixed protocol every variant is trained and benchmarked under
CONTEXT_LEN = 5  # windows of model input
HORIZON = 1  # windows from the last input window to the target window
SPLIT_FRACTIONS = (0.70, 0.10, 0.20)  # chronological train/val/test
MIN_SEQUENCES = 10


@dataclass(frozen=True)
class WindowFeatures:
    """Aggregate features of one complete window."""

    window_index: int
    features: np.ndarray  # (6,) float64, FEATURE_NAMES order

    @property
    def qoe(self) -> float:
        return float(self.features[QOE_FEATURE])


@dataclass
class WindowingResult:
    windows: list[WindowFeatures]
    dropped: list[tuple[int, str]]  # (window_index, reason)


def window_trace(trace: Trace, window_s: int = DEFAULT_WINDOW_S) -> WindowingResult:
    """Aggregate a trace into consecutive windows with the shared
    telemetry.WindowAggregator, the rule serve applies live.

    Dropped windows are reported with their reason: "k/n ticks" under 80 %
    coverage, "non-finite" for an overflowing mean, and "k empty" at the
    first of k empty window slots. QoE comes from the trace's labels when
    present, otherwise from the oracle over the window's means, chained
    through the previous kept window.
    """
    labels = trace.label_map()
    windows: list[WindowFeatures] = []
    dropped: list[tuple[int, str]] = []
    prev_qoe: float | None = None
    for win in WindowAggregator(window_s, trace.tick_s).windows(trace.samples):
        if win.skipped:
            dropped.append((win.index - win.skipped, f"{win.skipped} empty"))
        if win.dropped is not None:
            dropped.append((win.index, win.dropped))
            continue
        prev_qoe = window_qoe(win, prev_qoe, labels.get(win.index))
        feats = np.array((*win.link, prev_qoe), dtype=np.float64)
        windows.append(WindowFeatures(window_index=win.index, features=feats))
    if not windows:
        raise NoCompleteWindow(
            f"trace {trace.trace_id!r}: no window kept (each needs "
            f"{MIN_WINDOW_COVERAGE:.0%} tick coverage and finite means)"
        )
    return WindowingResult(windows=windows, dropped=dropped)


# ------------------------------------------------------------------ scaling

@dataclass(frozen=True)
class ScalerStats:
    """Per-feature min-max statistics fitted on training windows only.

    Features whose min equals max are degenerate and map to 0.0. The target
    (next-window QoE) keeps its own min/max, which coincide with the qoe
    feature's when fitted from the same windows.
    """

    mins: np.ndarray  # (6,)
    maxs: np.ndarray  # (6,)
    target_min: float
    target_max: float
    degenerate: np.ndarray  # (6,) bool

    def to_dict(self) -> dict:
        return {
            "mins": [float(x) for x in self.mins],
            "maxs": [float(x) for x in self.maxs],
            "target_min": float(self.target_min),
            "target_max": float(self.target_max),
            "degenerate": [bool(x) for x in self.degenerate],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerStats":
        return cls(
            mins=np.asarray(d["mins"], dtype=np.float64),
            maxs=np.asarray(d["maxs"], dtype=np.float64),
            target_min=float(d["target_min"]),
            target_max=float(d["target_max"]),
            degenerate=np.asarray(d["degenerate"], dtype=bool),
        )


def scaler_fingerprint(stats: ScalerStats) -> int:
    """CRC-32 over the canonical little-endian bytes of the statistics."""
    crc = 0
    for arr in (stats.mins, stats.maxs,
                np.array([stats.target_min, stats.target_max]),
                stats.degenerate.astype(np.float64)):
        crc = zlib.crc32(np.ascontiguousarray(arr, dtype="<f8").tobytes(), crc)
    return crc


def fit_scaler(windows: list[WindowFeatures]) -> ScalerStats:
    if len(windows) < 2:
        raise InsufficientData(f"need at least 2 windows to fit a scaler, got {len(windows)}")
    mat = np.stack([w.features for w in windows])
    mins = mat.min(axis=0)
    maxs = mat.max(axis=0)
    degenerate = maxs == mins
    return ScalerStats(
        mins=mins,
        maxs=maxs,
        target_min=float(mins[QOE_FEATURE]),
        target_max=float(maxs[QOE_FEATURE]),
        degenerate=degenerate,
    )


def scale_features(stats: ScalerStats, raw: np.ndarray) -> np.ndarray:
    """Min-max scale raw feature rows (..., 6). Never clamped: values outside
    the fitted range scale past [0, 1], which is intentional for test data."""
    raw = np.asarray(raw, dtype=np.float64)
    span = np.where(stats.degenerate, 1.0, stats.maxs - stats.mins)
    scaled = (raw - stats.mins) / span
    return np.where(stats.degenerate, 0.0, scaled)


def scale_target(stats: ScalerStats, qoe: float | np.ndarray):
    if stats.target_max == stats.target_min:
        return np.zeros_like(np.asarray(qoe, dtype=np.float64)) + 0.0
    return (np.asarray(qoe, dtype=np.float64) - stats.target_min) / (stats.target_max - stats.target_min)


def inverse_target(stats: ScalerStats, scaled: float | np.ndarray):
    """Map scaled predictions back to QoE units. Identity composed with
    scale_target on non-degenerate targets."""
    if stats.target_max == stats.target_min:
        return np.zeros_like(np.asarray(scaled, dtype=np.float64)) + stats.target_min
    return stats.target_min + np.asarray(scaled, dtype=np.float64) * (stats.target_max - stats.target_min)


# ---------------------------------------------------------------- sequences

@dataclass(frozen=True)
class SequenceSample:
    """One supervised example: 5 consecutive scaled windows and the scaled
    QoE of the window after them. origin identifies the source windows;
    target_ts_ms positions the target window on the dataset's global
    timeline (trace offsets included) for chronological ordering."""

    inputs: np.ndarray  # (5, 6) float64
    target: float
    origin: tuple[str, int]  # (trace_id, first window index)
    target_ts_ms: int


@dataclass
class DatasetSplit:
    """Chronological train/val/test partition of sequences."""

    train: list[SequenceSample]
    val: list[SequenceSample]
    test: list[SequenceSample]
    train_end_ts_ms: int
    val_end_ts_ms: int


# ------------------------------------------------------------ full assembly

@dataclass
class PreparedDataset:
    """Everything a model needs: the split, the scaler it was scaled with,
    and the window length. The context, horizon and feature order are the
    module's fixed protocol."""

    split: DatasetSplit
    scaler: ScalerStats
    window_s: int = DEFAULT_WINDOW_S
    dropped_windows: list[tuple[str, int, str]] = field(default_factory=list)

    def arrays(self, part: str) -> tuple[np.ndarray, np.ndarray]:
        seqs = getattr(self.split, part)
        if not seqs:
            return (np.zeros((0, CONTEXT_LEN, N_FEATURES)), np.zeros((0,)))
        X = np.stack([s.inputs for s in seqs])
        y = np.array([s.target for s in seqs], dtype=np.float64)
        return X, y


def build_dataset(traces: list[Trace], window_s: int = DEFAULT_WINDOW_S) -> PreparedDataset:
    """Window traces, split chronologically, fit the scaler on training
    windows only, and emit scaled sequences.

    A sequence is CONTEXT_LEN consecutive windows (stride 1) and the window
    HORIZON steps after them; it never spans a dropped window. Traces are
    laid on a global timeline in input order (each offset by the cumulative
    span of its predecessors). Sequences are ordered by target timestamp
    and cut by SPLIT_FRACTIONS (floor, remainder to test). The scaler sees
    exactly the windows referenced by training sequences, then everything
    is scaled with it; leakage from val or test windows is structurally
    impossible.
    Raises TooFewSequences under MIN_SEQUENCES sequences in all, then
    TraceTooShort when any one trace yields none.
    """
    if not traces:
        raise InsufficientData("no traces given")
    window_ms = window_s * 1000
    need = CONTEXT_LEN + HORIZON

    per_trace: list[list[WindowFeatures]] = []
    starts: list[tuple[int, int, int]] = []  # (target_ts_ms, trace slot, first window)
    dropped: list[tuple[str, int, str]] = []
    too_short: list[tuple[str, int]] = []
    offset = 0
    for slot, tr in enumerate(traces):
        res = window_trace(tr, window_s)
        windows = res.windows
        per_trace.append(windows)
        dropped.extend((tr.trace_id, w, why) for w, why in res.dropped)
        found = len(starts)
        for i in range(len(windows) - need + 1):
            # consecutive indices only: no dropped window inside the span
            if windows[i + need - 1].window_index - windows[i].window_index == need - 1:
                starts.append((offset + windows[i + need - 1].window_index * window_ms, slot, i))
        if len(starts) == found:
            too_short.append((tr.trace_id, len(windows)))
        offset += (tr.samples[-1].ts_ms // window_ms + 1) * window_ms
    if len(starts) < MIN_SEQUENCES:
        raise TooFewSequences(
            f"got {len(starts)} sequences across {len(traces)} traces, "
            f"need at least {MIN_SEQUENCES}"
        )
    if too_short:
        trace_id, n = too_short[0]
        raise TraceTooShort(
            f"trace {trace_id!r}: {n} usable windows give no "
            f"{CONTEXT_LEN}+{HORIZON}-window sequence"
        )
    starts.sort()
    n = len(starts)
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])

    used = {(slot, j) for _, slot, i in starts[:n_train] for j in range(i, i + need)}
    scaler = fit_scaler([per_trace[slot][j] for slot, j in used])
    scaled, targets = [], []
    for windows in per_trace:
        raw = np.stack([w.features for w in windows])
        scaled.append(scale_features(scaler, raw))
        targets.append(scale_target(scaler, raw[:, QOE_FEATURE]))

    sequences = [
        SequenceSample(
            inputs=scaled[slot][i : i + CONTEXT_LEN].copy(),
            target=float(targets[slot][i + need - 1]),
            origin=(traces[slot].trace_id, per_trace[slot][i].window_index),
            target_ts_ms=ts,
        )
        for ts, slot, i in starts
    ]
    train = sequences[:n_train]
    val = sequences[n_train : n_train + n_val]
    split = DatasetSplit(
        train=train,
        val=val,
        test=sequences[n_train + n_val :],
        train_end_ts_ms=train[-1].target_ts_ms if train else -1,
        val_end_ts_ms=val[-1].target_ts_ms if val else -1,
    )
    return PreparedDataset(split=split, scaler=scaler, window_s=window_s,
                           dropped_windows=dropped)


# ----------------------------------------------------------------- dataset IO

def save_dataset(ds: PreparedDataset, out_dir: str | Path) -> None:
    """Write a prepared dataset as NDJSON splits + scaler + geometry."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for part in ("train", "val", "test"):
        with (out / f"{part}.ndjson").open("w", encoding="utf-8") as fh:
            for s in getattr(ds.split, part):
                fh.write(json.dumps({
                    "origin": [s.origin[0], s.origin[1]],
                    "inputs": [[float(v) for v in row] for row in s.inputs],
                    "target": float(s.target),
                    "target_ts_ms": s.target_ts_ms,
                }) + "\n")
    (out / "scaler.json").write_text(
        json.dumps(ds.scaler.to_dict(), indent=2) + "\n", encoding="utf-8")
    (out / "dataset.json").write_text(json.dumps({
        "window_s": ds.window_s,
        "context_len": CONTEXT_LEN,
        "horizon": HORIZON,
        "feature_order": list(FEATURE_NAMES),
        "counts": {p: len(getattr(ds.split, p)) for p in ("train", "val", "test")},
        "train_end_ts_ms": ds.split.train_end_ts_ms,
        "val_end_ts_ms": ds.split.val_end_ts_ms,
        "dropped_windows": [list(d) for d in ds.dropped_windows],
    }, indent=2) + "\n", encoding="utf-8")


def load_dataset(in_dir: str | Path) -> PreparedDataset:
    """Read a dataset written by save_dataset. A geometry other than the
    fixed protocol raises ShapeMismatch naming the field, before any model
    sees the data; so does a missing key or a value of the wrong JSON type,
    naming the file and, in a split, the line."""
    src = Path(in_dir)
    meta_path, scaler_path = src / "dataset.json", src / "scaler.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    fixed = {"context_len": CONTEXT_LEN, "horizon": HORIZON,
             "feature_order": list(FEATURE_NAMES)}
    try:
        for key, want in fixed.items():
            if meta[key] != want:
                raise ShapeMismatch(f"{meta_path}: {key} is {meta[key]!r}, "
                                    f"the model zoo takes {want!r}")
        window_s = int(meta["window_s"])
        train_end, val_end = int(meta["train_end_ts_ms"]), int(meta["val_end_ts_ms"])
        dropped = [tuple(d) for d in meta.get("dropped_windows", [])]
    except (KeyError, TypeError) as exc:
        raise malformed(meta_path, exc) from None
    try:
        scaler = ScalerStats.from_dict(json.loads(scaler_path.read_text(encoding="utf-8")))
    except (KeyError, TypeError) as exc:
        raise malformed(scaler_path, exc) from None
    parts = {}
    for part in ("train", "val", "test"):
        path = src / f"{part}.ndjson"
        seqs = []
        with path.open(encoding="utf-8") as fh:
            try:
                for line_no, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    d = json.loads(line)
                    seqs.append(SequenceSample(
                        inputs=np.asarray(d["inputs"], dtype=np.float64),
                        target=float(d["target"]),
                        origin=(d["origin"][0], int(d["origin"][1])),
                        target_ts_ms=int(d["target_ts_ms"]),
                    ))
            except (KeyError, TypeError) as exc:
                raise malformed(f"{path} line {line_no}", exc) from None
        parts[part] = seqs
    split = DatasetSplit(
        train=parts["train"], val=parts["val"], test=parts["test"],
        train_end_ts_ms=train_end,
        val_end_ts_ms=val_end,
    )
    return PreparedDataset(
        split=split,
        scaler=scaler,
        window_s=window_s,
        dropped_windows=dropped,
    )
