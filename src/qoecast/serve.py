"""Streaming forecasts with feedback actions.

Samples arrive one at a time (NDJSON on a stream). Ticks accumulate into
fixed windows; each completed window joins a ring of the last five, and once
the ring is full every further completed window produces a one-window-ahead
QoE forecast plus a feedback action. The first decision therefore lands
exactly when the fifth window completes.

Windows come from telemetry.WindowAggregator, the rule the offline pipeline
applies too, so a served window's link features equal the prepared ones.
The window's own QoE feature comes from measured in-band values when the
stream carries them, else from the previous forecast, else from the QoE
oracle over the window's means (synthgen.window_qoe). Dropped windows
(under 80% tick coverage or a non-finite mean) and empty window slots break
context continuity and clear the ring, as gaps break offline sequences.

Kept windows go to a zoo.Forecaster, advanced once per tick. A decision's
latency_ms covers its completing tick alone, from reading the line to the
record being ready (explanation included), not work run on earlier ticks.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, IO, Iterable

import numpy as np

from .errors import OutOfOrderSample, QoecastError
from .explain import integrated_gradients
from .pipeline import HORIZON
from .synthgen import window_qoe
from .telemetry import (WINDOW_MS, WINDOW_S, TelemetrySample, Window, WindowAggregator,
                        _parse_record, decode_json_line)
from .zoo import Forecaster, ModelBundle

ACTIONS = ("none", "reduce_bitrate", "alert")
_SEVERITY = {a: i for i, a in enumerate(ACTIONS)}
EXPLAIN_TOP_K = 3  # attribution cells attached to an explained alert


@dataclass(frozen=True)
class FeedbackPolicy:
    """Action thresholds in QoE units with de-escalation hysteresis.

    Predictions below alert_threshold raise an alert; between the two
    thresholds they ask for a bitrate reduction. Escalation is immediate;
    an active action is kept until the prediction clears its threshold by
    the hysteresis margin.
    """

    alert_threshold: float = 50.0
    reduce_bitrate_threshold: float = 70.0
    hysteresis: float = 3.0

    def __post_init__(self):
        if not (0.0 <= self.alert_threshold <= self.reduce_bitrate_threshold <= 100.0):
            raise ValueError(
                f"need 0 <= alert <= reduce_bitrate <= 100, got "
                f"{self.alert_threshold}/{self.reduce_bitrate_threshold}")
        if not 0 <= self.hysteresis < math.inf:  # NaN fails every comparison
            raise ValueError(f"hysteresis must be non-negative and finite, got {self.hysteresis}")


def _classify(pred: float, alert_t: float, reduce_t: float) -> str:
    if pred < alert_t:
        return "alert"
    if pred < reduce_t:
        return "reduce_bitrate"
    return "none"


def decide(policy: FeedbackPolicy, qoe_pred: float, prev_action: str = "none") -> str:
    """Map a prediction to an action given the previous action.

    Worsening predictions escalate at the base thresholds right away;
    improving ones de-escalate only once they exceed the relevant threshold
    plus the hysteresis margin, so a borderline recovery does not flap.
    """
    if prev_action not in _SEVERITY:
        raise ValueError(f"unknown previous action {prev_action!r}")
    base = _classify(qoe_pred, policy.alert_threshold, policy.reduce_bitrate_threshold)
    if _SEVERITY[base] >= _SEVERITY[prev_action]:
        return base
    return _classify(qoe_pred, policy.alert_threshold + policy.hysteresis,
                     policy.reduce_bitrate_threshold + policy.hysteresis)


@dataclass
class ForecastDecision:
    ts_ms: int
    horizon_s: int
    qoe_pred: float
    action: str
    latency_ms: float = 0.0
    explain: list[dict] | None = None
    inputs_scaled: np.ndarray | None = None  # (5, 6), for explanations

    def to_record(self) -> dict:
        rec = {
            "ts_ms": self.ts_ms,
            "horizon_s": self.horizon_s,
            "qoe_pred": self.qoe_pred,
            "action": self.action,
            "latency_ms": self.latency_ms,
        }
        if self.explain is not None:
            rec["explain"] = self.explain
        return rec


@dataclass
class StreamStats:
    ticks: int = 0
    windows: int = 0
    dropped_windows: int = 0
    forecasts: int = 0
    errors: int = 0
    actions: dict = field(default_factory=lambda: {a: 0 for a in ACTIONS})


class StreamState:
    """Incremental forecasting state over one telemetry stream: the window
    aggregator, the QoE fallback chain, the feedback state and the
    counters. Kept windows go to a Forecaster, whose context a dropped
    window or an empty window slot resets."""

    def __init__(self, bundle: ModelBundle, policy: FeedbackPolicy):
        self.policy = policy
        self.forecaster = Forecaster(bundle)
        self._windows = WindowAggregator()
        self._last_ts: int | None = None
        self._prev_window_qoe: float | None = None
        self.last_prediction: float | None = None
        self.prev_action = "none"
        self.stats = StreamStats()

    # ------------------------------------------------------------- ingest

    def ingest(self, sample: TelemetrySample) -> ForecastDecision | None:
        """Feed one tick; returns a decision when it completes a window that
        fills the context ring. Out-of-order ticks raise and change nothing."""
        if self._last_ts is not None and sample.ts_ms <= self._last_ts:
            raise OutOfOrderSample(
                f"ts_ms {sample.ts_ms} not after {self._last_ts}")
        self._last_ts = sample.ts_ms
        self.stats.ticks += 1
        self.forecaster.advance()
        decision = None
        for win in self._windows.add(sample):
            decision = self._finalize(win) or decision
        return decision

    def flush(self) -> ForecastDecision | None:
        """Finalize a pending partial window at stream end."""
        decision = None
        for win in self._windows.flush():
            decision = self._finalize(win)
        return decision

    def _finalize(self, win: Window) -> ForecastDecision | None:
        if win.skipped:
            # empty window slots in between: context continuity is gone
            self.stats.dropped_windows += win.skipped
            self.forecaster.reset()
        if win.dropped is not None:
            self.stats.dropped_windows += 1
            self.forecaster.reset()
            return None
        qoe = window_qoe(win, self._prev_window_qoe, win.qoe, self.last_prediction)
        self._prev_window_qoe = qoe
        self.stats.windows += 1
        pred = self.forecaster.push((*win.link, qoe))
        if pred is None:
            return None
        action = decide(self.policy, pred, self.prev_action)
        self.prev_action = action
        self.last_prediction = pred
        self.stats.forecasts += 1
        self.stats.actions[action] += 1
        return ForecastDecision(
            ts_ms=(win.index + 1) * WINDOW_MS,
            horizon_s=HORIZON * WINDOW_S,
            qoe_pred=pred,
            action=action,
            inputs_scaled=self.forecaster.context[0].copy(),
        )


# ----------------------------------------------------------------- NDJSON IO

def run_stream(
    bundle: ModelBundle,
    policy: FeedbackPolicy,
    instream: IO[str] | IO[bytes] | Iterable[str | bytes],
    outstream: IO[str],
    explain_on_alert: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Consume NDJSON telemetry, emit NDJSON decisions, return a summary.

    Input lines are text or UTF-8 bytes, each decoded on its own. Bad input
    lines, invalid UTF-8 included, become error records on the output
    stream instead of terminating the run. Each decision carries the
    latency, as measured by `clock`, from reading the line that completed
    its window to emitting it; work run ahead on earlier lines is not in
    it. When explain_on_alert is set, alert decisions are annotated with
    the top EXPLAIN_TOP_K attribution cells; cheaper decisions never wait
    on explanation work. Floats are rendered with shortest round-trip
    formatting, so equal predictions give byte-equal output.
    """
    state = StreamState(bundle, policy)
    record_no = 0

    def emit(decision: ForecastDecision, t0: float) -> None:
        if explain_on_alert and decision.action == "alert":
            attribution = integrated_gradients(state.forecaster.runner, decision.inputs_scaled)
            decision.explain = [
                {"window": w, "feature": f, "attribution": v}
                for w, f, v in attribution.top_k(EXPLAIN_TOP_K)
            ]
        decision.latency_ms = (clock() - t0) * 1000.0
        outstream.write(json.dumps(decision.to_record()) + "\n")

    for line in instream:
        if not line.strip():
            continue
        record_no += 1
        t0 = clock()
        try:
            sample = _parse_record(decode_json_line(line, record_no), record_no)
            decision = state.ingest(sample)
        except QoecastError as exc:
            state.stats.errors += 1
            outstream.write(json.dumps({
                "error": type(exc).__name__,
                "record": record_no,
                "detail": str(exc),
            }) + "\n")
            continue
        if decision is not None:
            emit(decision, t0)

    t0 = clock()
    tail = state.flush()
    if tail is not None:
        emit(tail, t0)

    summary = asdict(state.stats)
    outstream.write(json.dumps({"summary": summary}) + "\n")
    return summary
