"""Reference computations the benchmark checks the program against.

Everything here is written from the published recipe (feature order, window
rule, min-max scaling, GRU cell layout, hysteresis policy, solver optimality
conditions) with numpy and the standard library only. Nothing is imported
from qoecast, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np

FEATURES = ("thr_mean_mbps", "jitter_mean_ms", "loss_rate_mean",
            "loss_count_sum", "speed_mean_kmh", "qoe")
WINDOW_MS = 10_000
TICKS_PER_WINDOW = 10
MIN_COVERAGE = 0.8
CONTEXT = 5
SPLIT = (0.7, 0.1)

# Default feedback policy: alert below 50, reduce bitrate below 70, and an
# active action is kept until the forecast clears its threshold by 3.
ALERT_BELOW = 50.0
REDUCE_BELOW = 70.0
HYSTERESIS = 3.0
ACTIONS = ("none", "reduce_bitrate", "alert")

# Penalties (l1, l2) of the regularised linear variants.
LINEAR_PENALTIES = {"lin_l1": (0.01, 0.0), "lin_elasticnet": (0.005, 0.005)}

F32_EPS = 2.0 ** -24


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"non-finite constant {name}")
    return json.loads(text, parse_constant=reject)


# ------------------------------------------------------------------ bundles

def read_bundle(path) -> dict:
    """Parse a bundle document; recompute its CRC-32 from the stored values.

    Returns the float64 parameters, the scaler and whether the stored
    checksum equals the recomputed one.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    crc = 0
    params = {}
    for entry in doc["params"]:
        shape = tuple(int(d) for d in entry["shape"])
        a32 = np.asarray(entry["values"], dtype="<f4").reshape(shape)
        crc = zlib.crc32(entry["name"].encode("utf-8"), crc)
        crc = zlib.crc32(b"\x00", crc)
        crc = zlib.crc32("x".join(str(d) for d in shape).encode("ascii"), crc)
        crc = zlib.crc32(b"\x00", crc)
        crc = zlib.crc32(a32.tobytes(), crc)
        params[entry["name"]] = a32.astype(np.float64)
    return {"params": params, "scaler": scaler_of(doc["scaler"]),
            "checksum_ok": crc == doc.get("checksum")}


def scaler_of(sc: dict) -> dict:
    """Min-max statistics as stored in a bundle or a dataset's scaler.json."""
    return {
        "mins": np.asarray(sc["mins"], dtype=np.float64),
        "maxs": np.asarray(sc["maxs"], dtype=np.float64),
        "degenerate": np.asarray(sc["degenerate"], dtype=bool),
        "target_min": float(sc["target_min"]),
        "target_max": float(sc["target_max"]),
    }


def scale(scaler: dict, raw: np.ndarray) -> np.ndarray:
    span = np.where(scaler["degenerate"], 1.0, scaler["maxs"] - scaler["mins"])
    return np.where(scaler["degenerate"], 0.0, (raw - scaler["mins"]) / span)


def unscale_target(scaler: dict, scaled):
    lo, hi = scaler["target_min"], scaler["target_max"]
    return lo + np.asarray(scaled, dtype=np.float64) * (hi - lo)


# ------------------------------------------------------------ GRU forward

def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def gru_forward(params: dict, X: np.ndarray) -> np.ndarray:
    """Scaled prediction of a one-layer GRU with additive attention.

    X is (batch, 5, 6). Gates are laid out z|r|h; the reset gate multiplies
    the state before the candidate's recurrent matmul; attention scores
    v . tanh(W h_t + b) are softmaxed over the five steps; a dense head maps
    the attended state to one value.
    """
    W, U, b = params["gru0_kernel"], params["gru0_recurrent"], params["gru0_bias"]
    u = U.shape[0]
    B, T, _ = X.shape
    h = np.zeros((B, u))
    states = []
    for t in range(T):
        gx = X[:, t, :] @ W + b
        z = _sigmoid(gx[:, :u] + h @ U[:, :u])
        r = _sigmoid(gx[:, u:2 * u] + h @ U[:, u:2 * u])
        cand = np.tanh(gx[:, 2 * u:] + (r * h) @ U[:, 2 * u:])
        h = (1.0 - z) * h + z * cand
        states.append(h)
    H = np.stack(states, axis=1)
    scores = (np.tanh(H @ params["att_kernel"] + params["att_bias"])
              @ params["att_score"])[:, :, 0]
    scores = scores - scores.max(axis=1, keepdims=True)
    alpha = np.exp(scores)
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = np.einsum("bt,btu->bu", alpha, H)
    return (ctx @ params["out_kernel"] + params["out_bias"])[:, 0]


def ig_by_differences(params: dict, x: np.ndarray, steps: int = 64,
                      h: float = 1e-5) -> np.ndarray:
    """Integrated gradients from the all-zero input to x, (5, 6).

    Gradients come from central finite differences of gru_forward at the
    midpoints (k - 0.5) / steps of the straight path.
    """
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    points = alphas[:, None, None] * x[None]
    n = x.size
    eye = np.eye(n).reshape(n, *x.shape) * h
    plus = (points[:, None] + eye[None]).reshape(-1, *x.shape)
    minus = (points[:, None] - eye[None]).reshape(-1, *x.shape)
    grads = (gru_forward(params, plus) - gru_forward(params, minus)) / (2 * h)
    return grads.reshape(steps, *x.shape).mean(axis=0) * x


# ----------------------------------------------------------------- policy

def _classify(pred: float, alert_t: float, reduce_t: float) -> str:
    if pred < alert_t:
        return "alert"
    if pred < reduce_t:
        return "reduce_bitrate"
    return "none"


def next_action(pred: float, prev: str) -> str:
    """Escalate at once; de-escalate only past threshold + hysteresis."""
    base = _classify(pred, ALERT_BELOW, REDUCE_BELOW)
    if ACTIONS.index(base) >= ACTIONS.index(prev):
        return base
    return _classify(pred, ALERT_BELOW + HYSTERESIS, REDUCE_BELOW + HYSTERESIS)


# ------------------------------------------------------ windows and streams

class WindowStream:
    """Expected forecasting windows of one stream of accepted ticks.

    Ticks are (ts_ms, thr, jitter, loss_rate, loss_count, speed, qoe). A
    window closes at its tenth tick or when a later window's tick arrives;
    a window with under 8 ticks, or a missing window slot, restarts the
    five-window context. Yields (window_index, raw feature rows) for every
    window that completes a full context.
    """

    def __init__(self):
        self.ring: list[list[float]] = []
        self.acc = None
        self.next_w = None
        self.dropped = 0
        self.out: list[tuple[int, np.ndarray]] = []

    def _close(self):
        w, ticks = self.acc
        self.acc = None
        self.next_w = w + 1
        if len(ticks) < MIN_COVERAGE * TICKS_PER_WINDOW:
            self.dropped += 1
            self.ring.clear()
            return
        n = len(ticks)
        sums = [0.0] * 6
        for t in ticks:
            for k in range(5):
                sums[k] += t[k + 1]
        qoe = sum(t[6] for t in ticks) / n
        row = [sums[0] / n, sums[1] / n, sums[2] / n, sums[3], sums[4] / n, qoe]
        self.ring = (self.ring + [row])[-CONTEXT:]
        if len(self.ring) == CONTEXT:
            self.out.append((w, np.array(self.ring)))

    def add(self, tick):
        w = tick[0] // WINDOW_MS
        if self.acc is not None and w > self.acc[0]:
            self._close()
        if self.acc is None:
            if self.next_w is not None and w > self.next_w:
                self.dropped += w - self.next_w
                self.ring.clear()
            self.acc = (w, [])
        self.acc[1].append(tick)
        if len(self.acc[1]) == TICKS_PER_WINDOW:
            self._close()

    def finish(self):
        if self.acc is not None:
            self._close()
        return self


# ------------------------------------------------------------------ corpus

def read_ticks(path: Path) -> list[tuple]:
    """Ticks of a CSV or NDJSON trace file, read with the stdlib only."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        rows = [strict_json(line) for line in text.splitlines() if line.strip()]
    return [(int(r["ts_ms"]), float(r["throughput_mbps"]), float(r["jitter_ms"]),
             float(r["loss_rate"]), int(r["loss_count"]), float(r["speed_kmh"]))
            for r in rows]


def read_split(ds: Path, part: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Inputs (n, 5, 6), targets and target timestamps of a prepared split."""
    rows = [json.loads(line) for line in (ds / f"{part}.ndjson").read_text().splitlines()
            if line.strip()]
    return (np.array([r["inputs"] for r in rows], dtype=np.float64).reshape(-1, CONTEXT, 6),
            np.array([r["target"] for r in rows], dtype=np.float64),
            [r["target_ts_ms"] for r in rows])


def read_labels(path: Path) -> dict[int, float]:
    rows = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    return {int(r["window_index"]): float(r["qoe"]) for r in rows}


def prepare_reference(traces: list[tuple[list[tuple], dict[int, float]]]):
    """Windows, chronological split and training-window scaler of a corpus.

    traces are (ticks, labels) in file-name order. Returns the expected
    (inputs, targets, target_ts) of each split.
    """
    seqs = []  # (target_ts, trace slot, first window position)
    per_trace = []
    offset = 0
    for slot, (ticks, labels) in enumerate(traces):
        by_w: dict[int, list[tuple]] = {}
        for t in ticks:
            by_w.setdefault(t[0] // WINDOW_MS, []).append(t)
        windows = []
        for w in sorted(by_w):
            g = by_w[w]
            if len(g) < MIN_COVERAGE * TICKS_PER_WINDOW:
                continue
            n = len(g)
            windows.append((w, [math.fsum(x[1] for x in g) / n,
                                math.fsum(x[2] for x in g) / n,
                                math.fsum(x[3] for x in g) / n,
                                float(sum(x[4] for x in g)),
                                math.fsum(x[5] for x in g) / n,
                                labels[w]]))
        per_trace.append(windows)
        for i in range(len(windows) - CONTEXT):
            if windows[i + CONTEXT][0] - windows[i][0] == CONTEXT:
                seqs.append((offset + windows[i + CONTEXT][0] * WINDOW_MS, slot, i))
        offset += (ticks[-1][0] // WINDOW_MS + 1) * WINDOW_MS
    seqs.sort()
    n = len(seqs)
    n_train, n_val = int(n * SPLIT[0]), int(n * SPLIT[1])
    used = {(slot, j) for _, slot, i in seqs[:n_train] for j in range(i, i + CONTEXT + 1)}
    mat = np.array([per_trace[s][j][1] for s, j in sorted(used)])
    lo, hi = mat.min(axis=0), mat.max(axis=0)
    scaler = {"mins": lo, "maxs": hi, "degenerate": lo == hi,
              "target_min": lo[5], "target_max": hi[5]}
    parts = {}
    cuts = {"train": seqs[:n_train], "val": seqs[n_train:n_train + n_val],
            "test": seqs[n_train + n_val:]}
    for part, chosen in cuts.items():
        X = np.array([[per_trace[s][j][1] for j in range(i, i + CONTEXT)]
                      for _, s, i in chosen]).reshape(-1, CONTEXT, 6)
        y = np.array([per_trace[s][i + CONTEXT][1][5] for _, s, i in chosen])
        span = scaler["target_max"] - scaler["target_min"]
        parts[part] = (scale(scaler, X), (y - scaler["target_min"]) / span,
                       [ts for ts, _, _ in chosen])
    return parts


# ---------------------------------------------------------- linear solvers

def ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    A = np.hstack([X, np.ones((len(X), 1))])
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    return beta[:-1], float(beta[-1])


def kkt_violation(X, y, w, b, l1, l2) -> tuple[float, float]:
    """Worst subgradient violation of mean squared error + l1|w| + l2 w^2,
    and the violation float32 storage of w and b can cause on its own."""
    n = len(y)
    r = y - b - X @ w
    grad = -(2.0 / n) * (X.T @ r) + 2.0 * l2 * w
    viol = np.where(w != 0.0, np.abs(grad + l1 * np.sign(w)),
                    np.maximum(np.abs(grad) - l1, 0.0))
    worst = max(float(viol.max()), abs(2.0 * float(r.mean())))
    # a stored weight may sit half an ulp of float32 from the float64 optimum
    dr = np.abs(X) @ (np.abs(w) * F32_EPS) + abs(b) * F32_EPS
    allowance = float(((2.0 / n) * (np.abs(X).T @ dr)).max()
                      + 2.0 * l2 * np.abs(w).max() * F32_EPS
                      + 2.0 * float(dr.mean()))
    return worst, allowance
