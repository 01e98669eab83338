"""Feature pipeline: windows, scaling, context sequences, chronological split.

Ticks are aggregated into fixed, non-overlapping windows by
telemetry.WindowAggregator, the same rule serve applies live; each window
becomes a 6-feature vector whose last entry is the window's QoE (so models
see QoE history as an autoregressive input). Min-max scaling (mins, maxs)
is fitted on training windows only. A model input is the 5-window context
preceding the target window; targets are the scaled QoE of the next window.
build_dataset cuts the sequences into train, val and test arrays in one pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientData,
    NoCompleteWindow,
    ShapeMismatch,
    TooFewSequences,
    TraceTooShort,
    load_json,
    malformed,
)
from .synthgen import window_qoe
from .telemetry import MIN_WINDOW_COVERAGE, WINDOW_MS, WINDOW_S, Trace, WindowAggregator

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

# the protocol geometry as dataset.json states it; a bundle states all but
# the horizon
GEOMETRY = {"window_s": WINDOW_S, "context_len": CONTEXT_LEN, "horizon": HORIZON,
            "feature_order": list(FEATURE_NAMES)}


def check_geometry(doc: dict, source, keys=tuple(GEOMETRY)) -> None:
    """Raise ShapeMismatch naming `source` and the first of `keys` whose
    value in doc is not the protocol's; a missing key raises KeyError."""
    for key in keys:
        if doc[key] != GEOMETRY[key]:
            raise ShapeMismatch(f"{source}: {key} is {doc[key]!r}, "
                                f"the model zoo takes {GEOMETRY[key]!r}")


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


def window_trace(trace: Trace) -> WindowingResult:
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
    for win in WindowAggregator().windows(trace.samples):
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

    A feature whose min equals its max is degenerate and maps to 0.0. The
    target is the next window's QoE, so its bounds are the qoe feature's.
    """

    mins: np.ndarray  # (6,)
    maxs: np.ndarray  # (6,)

    @cached_property
    def degenerate(self) -> np.ndarray:
        return self.maxs == self.mins

    @cached_property
    def span(self) -> np.ndarray:  # 1.0 on degenerate features
        return np.where(self.degenerate, 1.0, self.maxs - self.mins)

    @cached_property
    def target_bounds(self) -> tuple[float, float]:
        return float(self.mins[QOE_FEATURE]), float(self.maxs[QOE_FEATURE])

    def to_dict(self) -> dict:
        return {
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
            "target_min": float(self.mins[QOE_FEATURE]),
            "target_max": float(self.maxs[QOE_FEATURE]),
            "degenerate": self.degenerate.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, source) -> "ScalerStats":
        """Read to_dict's output, from a bundle or scaler.json; values that
        to_dict would not have written raise ShapeMismatch naming `source`."""
        try:
            for key, kind, valid in (("mins", "finite numbers", _finite_number),
                                     ("maxs", "finite numbers", _finite_number),
                                     ("degenerate", "booleans", lambda v: type(v) is bool)):
                if not (isinstance(d[key], list) and len(d[key]) == N_FEATURES
                        and all(map(valid, d[key]))):
                    raise ShapeMismatch(f"{source}: {key} must be {N_FEATURES} {kind}, "
                                        f"got {d[key]!r}")
            stats = cls(mins=np.array(d["mins"], dtype=np.float64),
                        maxs=np.array(d["maxs"], dtype=np.float64))
            for key, want in stats.to_dict().items():
                if d[key] != want:
                    raise ShapeMismatch(f"{source}: {key} is {d[key]!r}, "
                                        f"mins and maxs give {want!r}")
        except (KeyError, TypeError) as exc:
            raise malformed(source, exc) from None
        return stats


def _finite_number(v) -> bool:  # NaN, infinities and ints past the float range fail
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def fit_scaler(windows: list[WindowFeatures]) -> ScalerStats:
    if len(windows) < 2:
        raise InsufficientData(f"need at least 2 windows to fit a scaler, got {len(windows)}")
    mat = np.stack([w.features for w in windows])
    return ScalerStats(mins=mat.min(axis=0), maxs=mat.max(axis=0))


def scale_features(stats: ScalerStats, raw, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max scale raw feature rows (..., 6), into `out` if given (serve's
    ring row). Never clamped: values outside the fitted range scale past
    [0, 1], which is intentional for test data."""
    scaled = np.subtract(np.asarray(raw, dtype=np.float64), stats.mins, out=out)
    scaled /= stats.span
    np.copyto(scaled, 0.0, where=stats.degenerate)
    return scaled


def inverse_target(stats: ScalerStats, scaled: float | np.ndarray):
    """Map scaled predictions back to QoE units, the inverse of the qoe
    column of scale_features on a non-degenerate target. A float is mapped
    in floats, anything else as a float64 array; both give the same bits."""
    lo, hi = stats.target_bounds
    if not isinstance(scaled, float):
        scaled = np.asarray(scaled, dtype=np.float64)
    if hi == lo:
        return np.zeros_like(scaled) + lo
    return lo + scaled * (hi - lo)


# ------------------------------------------------------------ the split

PARTS = ("train", "val", "test")


@dataclass(frozen=True)
class SplitArrays:
    """One part of the chronological split. Row i is 5 scaled windows, the
    scaled QoE of the window after them, where they start, and the target
    window's time on the global timeline (trace offsets included)."""

    X: np.ndarray  # (n, 5, 6) float64
    y: np.ndarray  # (n,) float64
    origin: list[tuple[str, int]]
    target_ts_ms: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows: slice) -> "SplitArrays":
        return SplitArrays(X=self.X[rows], y=self.y[rows], origin=self.origin[rows],
                           target_ts_ms=self.target_ts_ms[rows])


# ------------------------------------------------------------ full assembly

@dataclass
class PreparedDataset:
    """Everything a model needs: the three parts of the split and the scaler
    they were scaled with. The window length, context, horizon and feature
    order are the fixed protocol."""

    train: SplitArrays
    val: SplitArrays
    test: SplitArrays
    scaler: ScalerStats
    dropped_windows: list[tuple[str, int, str]] = field(default_factory=list)


def build_dataset(traces: list[Trace]) -> PreparedDataset:
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
    need = CONTEXT_LEN + HORIZON

    per_trace: list[list[WindowFeatures]] = []
    starts: list[tuple[int, int, int]] = []  # (target_ts_ms, trace slot, first window)
    dropped: list[tuple[str, int, str]] = []
    too_short: list[tuple[str, int]] = []
    offset = 0
    for slot, tr in enumerate(traces):
        res = window_trace(tr)
        windows = res.windows
        per_trace.append(windows)
        dropped.extend((tr.trace_id, w, why) for w, why in res.dropped)
        found = len(starts)
        for i in range(len(windows) - need + 1):
            # consecutive indices only: no dropped window inside the span
            if windows[i + need - 1].window_index - windows[i].window_index == need - 1:
                starts.append((offset + windows[i + need - 1].window_index * WINDOW_MS, slot, i))
        if len(starts) == found:
            too_short.append((tr.trace_id, len(windows)))
        offset += (tr.samples[-1].ts_ms // WINDOW_MS + 1) * WINDOW_MS
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
    scaled = [scale_features(scaler, np.stack([w.features for w in windows]))
              for windows in per_trace]
    every = SplitArrays(
        X=np.stack([scaled[slot][i : i + CONTEXT_LEN] for _, slot, i in starts]),
        y=np.array([scaled[slot][i + need - 1, QOE_FEATURE] for _, slot, i in starts]),
        origin=[(traces[slot].trace_id, per_trace[slot][i].window_index)
                for _, slot, i in starts],
        target_ts_ms=np.array([ts for ts, _, _ in starts], dtype=np.int64),
    )
    return PreparedDataset(train=every[:n_train], val=every[n_train : n_train + n_val],
                           test=every[n_train + n_val :], scaler=scaler,
                           dropped_windows=dropped)


# ----------------------------------------------------------------- dataset IO

def save_dataset(ds: PreparedDataset, out_dir: str | Path) -> None:
    """Write a prepared dataset as NDJSON splits + scaler + geometry; a window
    row that several contexts share is rendered to JSON once."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text: dict[bytes, str] = {}  # a window row's JSON, by the row's bytes
    for name in PARTS:
        part = getattr(ds, name)
        keys = np.ascontiguousarray(part.X, np.float64).view(f"V{8 * N_FEATURES}")[..., 0]
        with (out / f"{name}.ndjson").open("w", encoding="utf-8") as fh:
            for origin, x, row_keys, y, ts in zip(part.origin, part.X, keys.tolist(),
                                                  part.y.tolist(), part.target_ts_ms.tolist()):
                inputs = ", ".join([text.get(k) or text.setdefault(k, json.dumps(w.tolist()))
                                    for k, w in zip(row_keys, x)])
                fh.write(f'{{"origin": {json.dumps(list(origin))}, "inputs": [{inputs}], '
                         f'"target": {json.dumps(y)}, "target_ts_ms": {ts}}}\n')
    (out / "scaler.json").write_text(
        json.dumps(ds.scaler.to_dict(), indent=2) + "\n", encoding="utf-8")
    (out / "dataset.json").write_text(json.dumps({
        **GEOMETRY,
        **_split_facts(ds),
        "dropped_windows": [list(d) for d in ds.dropped_windows],
    }, indent=2) + "\n", encoding="utf-8")


def _split_facts(ds: PreparedDataset) -> dict:
    """dataset.json's counts and last train and val target times (-1 if empty)."""
    facts = {"counts": {name: len(getattr(ds, name)) for name in PARTS}}
    for name in ("train", "val"):
        ts = getattr(ds, name).target_ts_ms
        facts[f"{name}_end_ts_ms"] = int(ts[-1]) if len(ts) else -1
    return facts


def _load_part(path: Path) -> SplitArrays:
    """Read one split file; a bad row raises ShapeMismatch naming the line."""
    xs, ys, origins, stamps = [], [], [], []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path} line {line_no}"
            d = load_json(line, where)
            try:
                x = np.asarray(d["inputs"], dtype=np.float64)
                ys.append(float(d["target"]))
                origins.append((d["origin"][0], int(d["origin"][1])))
                stamps.append(int(d["target_ts_ms"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise malformed(where, exc) from None
            if x.shape != (CONTEXT_LEN, N_FEATURES):
                raise ShapeMismatch(f"{where}: inputs have shape {x.shape}, "
                                    f"the model zoo takes {(CONTEXT_LEN, N_FEATURES)}")
            if not (np.isfinite(x).all() and np.isfinite(ys[-1])):
                raise ShapeMismatch(f"{where}: inputs and target must be finite")
            xs.append(x)
    return SplitArrays(X=np.array(xs).reshape(-1, CONTEXT_LEN, N_FEATURES),
                       y=np.array(ys, dtype=np.float64), origin=origins,
                       target_ts_ms=np.array(stamps, dtype=np.int64))


def load_dataset(in_dir: str | Path) -> PreparedDataset:
    """Read a dataset written by save_dataset. A geometry other than the
    fixed protocol raises ShapeMismatch naming the field, before any model
    sees the data; so does a syntax error, a missing key, a value of the wrong
    JSON type, a non-finite split value or a count or end time the splits
    contradict, naming the file and, in a split, the line."""
    src = Path(in_dir)
    meta_path, scaler_path = src / "dataset.json", src / "scaler.json"
    meta = load_json(meta_path.read_text(encoding="utf-8"), meta_path)
    try:
        check_geometry(meta, meta_path)
        dropped = [tuple(d) for d in meta.get("dropped_windows", [])]
        stored = {key: meta[key] for key in ("counts", "train_end_ts_ms", "val_end_ts_ms")}
    except (KeyError, TypeError) as exc:
        raise malformed(meta_path, exc) from None
    scaler_doc = load_json(scaler_path.read_text(encoding="utf-8"), scaler_path)
    ds = PreparedDataset(**{name: _load_part(src / f"{name}.ndjson") for name in PARTS},
                         scaler=ScalerStats.from_dict(scaler_doc, scaler_path),
                         dropped_windows=dropped)
    for key, want in _split_facts(ds).items():
        if stored[key] != want:
            raise ShapeMismatch(f"{meta_path}: {key} is {stored[key]!r}, "
                                f"the split files give {want!r}")
    return ds
