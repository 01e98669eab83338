"""stream and alert: NDJSON telemetry through serve.run_stream.

Both serve the gru_basic bundle trained in set-up on the desk corpus, in a
closed loop: the benchmark hands run_stream one line at a time from a
generator and takes each output line in a sink object, so a decision's
latency runs from the hand-over of the line that completed its window to
the write of the decision.

stream: one day of 1 Hz telemetry with in-band QoE and no explanations.
Every two hours (a block of 720 windows) it holds a thin window (three
ticks removed: dropped, context restarts), a 25-tick gap (three windows
dropped, context restarts) and a fixed 90-tick segment whose middle tick
carries throughput Infinity. After every 233rd tick a malformed line is
inserted, after every 307th a repeat of the tick before (out of order).
The segment and the bad lines are the same for every seed; the rest of the
telemetry comes from the seed.

alert: two hours of the default, stressed link with explain_on_alert; no
planted lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from common import Ctx, Outcome, clock, cli_call, desk_dataset, median
from qoecast import serve, zoo

BLOCK_WINDOWS = 720
THIN_AT, GAP_AT, SEGMENT_AT = 100, 300, 500
GAP_TICKS = 25
SEGMENT_SEED = 20250603
INF_TICK = 45  # of the 90-tick segment: the middle of window SEGMENT_AT
MALFORMED_EVERY = 233
OUT_OF_ORDER_EVERY = 307
MALFORMED = (
    '{"ts_ms": 12, "throughput_mbps": ',
    '[1, 2, 3]',
    '{"ts_ms": 0, "throughput_mbps": 20.0}',
    '{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, "loss_rate": 1.5, '
    '"loss_count": 3, "speed_kmh": 40.0}',
    '{"ts_ms": 0, "throughput_mbps": "fast", "jitter_ms": 30.0, "loss_rate": 0.01, '
    '"loss_count": 10, "speed_kmh": 40.0}',
    '{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, "loss_rate": 0.01, '
    '"loss_count": 10, "speed_kmh": 40.0, "qoe": 140.0}',
)
IG_SAMPLES_PER_PASS = 2
PRED_TOL = 1e-9


@dataclass
class Plan:
    """A stream and what the reference expects of it."""

    lines: list[str]
    bad: dict[int, str] = field(default_factory=dict)  # record number -> kind
    ticks: list[tuple] = field(default_factory=list)  # lines the reference accepts
    inf_windows: set[int] = field(default_factory=set)


def _tick(obj) -> tuple:
    return (obj["ts_ms"], obj["throughput_mbps"], obj["jitter_ms"], obj["loss_rate"],
            obj["loss_count"], obj["speed_kmh"], obj["qoe"])


def build_plan(raw: list[str], segment: list[str] | None) -> Plan:
    """Plant the fault schedule into generated lines (segment None: none)."""
    if segment is None:
        return Plan(lines=raw, ticks=[_tick(json.loads(x)) for x in raw])
    removed: set[int] = set()
    replaced: dict[int, str] = {}
    for base in range(0, len(raw) // 10 - BLOCK_WINDOWS + 1, BLOCK_WINDOWS):
        thin = (base + THIN_AT) * 10
        removed |= {thin + 3, thin + 4, thin + 5}
        gap = (base + GAP_AT) * 10 + 5
        removed |= set(range(gap, gap + GAP_TICKS))
        first = (base + SEGMENT_AT - 4) * 10
        for k, text in enumerate(segment):
            obj = json.loads(text)
            obj["ts_ms"] = (first + k) * 1000
            if k == INF_TICK:
                obj["throughput_mbps"] = math.inf
            replaced[first + k] = json.dumps(obj)
    plan = Plan(lines=[])
    kept: list[str] = []
    for i, text in enumerate(raw):
        if i in removed:
            continue
        text = replaced.get(i, text)
        plan.lines.append(text)
        obj = json.loads(text)
        if math.isinf(obj["throughput_mbps"]):
            plan.bad[len(plan.lines)] = "infinity"
            plan.inf_windows.add(obj["ts_ms"] // ref.WINDOW_MS)
        else:
            plan.ticks.append(_tick(obj))
        kept.append(text)
        if len(kept) % OUT_OF_ORDER_EVERY == 0:
            plan.lines.append(kept[-2])
            plan.bad[len(plan.lines)] = "out_of_order"
        if len(kept) % MALFORMED_EVERY == 0:
            plan.lines.append(MALFORMED[len(kept) // MALFORMED_EVERY % len(MALFORMED)])
            plan.bad[len(plan.lines)] = "malformed"
    return plan


def generated_lines(work: Path, name: str, seed: int, seconds: int) -> list[str]:
    out = work / name
    cli_call("generate", "--seed", seed, "--traces", 1, "--duration", seconds,
             "--format", "ndjson", "--inband-qoe", "--out", out)
    return (out / "trace_00.ndjson").read_text(encoding="utf-8").splitlines()


@dataclass
class State:
    bundle: object
    bundle_ref: dict
    plan: Plan
    expect: dict = field(default_factory=dict)  # decision ts -> (qoe, scaled rows)


def setup_serving(ctx: Ctx, hours: int, faults: bool) -> State:
    ds = desk_dataset(ctx.work)
    cli_call("train", "--data", ds, "--variant", "gru_basic", "--seed", 1,
             "--out", ctx.work / "gru")
    path = ctx.work / "gru" / "gru_basic.bundle.json"
    raw = generated_lines(ctx.work, "telemetry", ctx.seed, hours * 3600)
    segment = generated_lines(ctx.work, "segment", SEGMENT_SEED, 90) if faults else None
    return State(zoo.load_bundle(path), ref.read_bundle(path), build_plan(raw, segment))


def expected_decisions(state: State) -> dict:
    """Reference forecast of every window that completes a full context."""
    ws = ref.WindowStream()
    for t in state.plan.ticks:
        ws.add(t)
    ws.finish()
    sc = state.bundle_ref["scaler"]
    X = ref.scale(sc, np.stack([rows for _, rows in ws.out]))
    qoe = ref.unscale_target(sc, ref.gru_forward(state.bundle_ref["params"], X))
    state.expect = {(w + 1) * ref.WINDOW_MS: (float(q), x)
                    for (w, _), q, x in zip(ws.out, qoe, X)}
    return {"dropped_windows": ws.dropped}


class Sink:
    """Output stream of run_stream: keeps lines and decision latencies."""

    def __init__(self):
        self.lines: list[str] = []
        self.latency: list[float] = []
        self.explained: list[float] = []
        self.handed = 0.0

    def write(self, text: str) -> None:
        t = clock()
        if text.startswith('{"ts_ms"'):
            self.latency.append(t - self.handed)
            if '"explain"' in text:
                self.explained.append(t - self.handed)
        self.lines.append(text)


def feed(lines, sink: Sink):
    for line in lines:
        sink.handed = clock()
        yield line


def check_pass(out: Outcome, state: State, sink: Sink, explain: bool,
               ref_counts: dict, rng: np.random.Generator) -> None:
    """Check one pass's output against the plan and the reference."""
    plan = state.plan
    decisions: dict[int, dict] = {}
    errors: dict[int, dict] = {}
    summary = None
    prev = "none"
    for text in sink.lines:
        try:
            rec = ref.strict_json(text)
        except ValueError:
            rec = json.loads(text)
            rec["_bad"] = "not strict JSON"
        if "summary" in rec:
            summary = rec["summary"]
        elif "error" in rec:
            errors[rec["record"]] = rec
        else:
            rule = ref.next_action(rec["qoe_pred"], prev)
            if rec["action"] != rule:
                rec.setdefault("_bad", f"action {rec['action']} where the rule gives {rule}")
            prev = rec["action"]
            if rec["ts_ms"] in decisions:
                rec.setdefault("_bad", "repeated decision")
            decisions[rec["ts_ms"]] = rec

    alerts = []
    for ts, (qoe, _) in state.expect.items():
        rec = decisions.pop(ts, None)
        w = ts // ref.WINDOW_MS - 1
        known = any(w - ref.CONTEXT < i <= w for i in plan.inf_windows)
        why = _decision_fault(rec, qoe, explain)
        out.check(why is None, f"decision at {ts}: {why}", known)
        if why is None and rec["action"] == "alert" and explain:
            alerts.append((ts, rec))
    for ts in decisions:
        out.check(False, f"decision at {ts} the reference does not expect")
    for rec_no, kind in plan.bad.items():
        out.check(errors.pop(rec_no, None) is not None,
                  f"no error record for the {kind} line {rec_no}", kind == "infinity")
    for rec_no in errors:
        out.check(False, f"error record for the good line {rec_no}")
    out.check(summary is not None
              and summary["ticks"] + summary["errors"] == len(plan.lines)
              and summary["dropped_windows"] == ref_counts["dropped_windows"],
              f"summary {summary} does not reconcile with {len(plan.lines)} lines")

    picks = rng.permutation(len(alerts))[:IG_SAMPLES_PER_PASS]
    for ts, rec in (alerts[i] for i in picks):
        values = ref.ig_by_differences(state.bundle_ref["params"], state.expect[ts][1])
        top = np.argsort(-np.abs(values), axis=None)[:3]
        want = {(int(i) // 6, ref.FEATURES[int(i) % 6]): float(values.flat[i]) for i in top}
        got = {(c["window"], c["feature"]): c["attribution"] for c in rec["explain"]}
        ok = got.keys() == want.keys() and all(
            abs(got[k] - v) <= 1e-6 + 1e-5 * abs(v) for k, v in want.items())
        out.check(ok, f"attributions at {ts}: {got} where differences give {want}")


def _decision_fault(rec: dict | None, qoe: float, explain: bool) -> str | None:
    if rec is None:
        return "missing"
    if "_bad" in rec:
        return rec["_bad"]
    keys = {"ts_ms", "horizon_s", "qoe_pred", "action", "latency_ms"}
    if set(rec) - {"explain"} != keys or rec["horizon_s"] != 10:
        return f"malformed record {rec}"
    if abs(rec["qoe_pred"] - qoe) > PRED_TOL:
        return f"qoe_pred {rec['qoe_pred']!r} where the reference gives {qoe!r}"
    if not (rec["latency_ms"] >= 0.0):
        return f"latency_ms {rec['latency_ms']}"
    cells = rec.get("explain")
    if explain and rec["action"] == "alert":
        if not (isinstance(cells, list) and len(cells) == 3
                and len({(c["window"], c["feature"]) for c in cells}) == 3
                and all(0 <= c["window"] < ref.CONTEXT and c["feature"] in ref.FEATURES
                        and math.isfinite(c["attribution"]) for c in cells)):
            return f"alert explanation {cells}"
    elif cells is not None:
        return f"explanation on a {rec['action']} decision"
    return None


def run_serving(ctx: Ctx, state: State, explain: bool) -> Outcome:
    out = Outcome()
    ref_counts = expected_decisions(state)
    policy = serve.FeedbackPolicy()
    rng = ctx.rng(2)
    ticks = 0
    summary = {}
    while sum(out.passes) < ctx.seconds:
        sink = Sink()
        with ctx.measuring():
            t0 = clock()
            summary = serve.run_stream(state.bundle, policy, feed(state.plan.lines, sink),
                                       sink, explain_on_alert=explain)
            out.passes.append(clock() - t0)
        ticks += summary["ticks"]
        lat = sink.explained if explain else sink.latency
        out.ops_ms.extend(x * 1e3 for x in lat)
        check_pass(out, state, sink, explain, ref_counts, rng)

    all_lat = np.asarray(out.ops_ms)
    out.named["serve_ticks_per_s"] = (ticks / sum(out.passes), "1/s")
    if explain:
        out.named["explained_p50_ms"] = (median(all_lat), "ms")
        out.named["explained_p95_ms"] = (float(np.percentile(all_lat, 95)), "ms")
    else:
        out.named["decision_p50_ms"] = (median(all_lat), "ms")
        out.named["decision_p99_ms"] = (float(np.percentile(all_lat, 99)), "ms")
    out.named["alert_share"] = (summary["actions"]["alert"] / summary["forecasts"], "1")
    out.counts = {"serve.lines": len(state.plan.lines),
                  "serve.forecasts": summary["forecasts"],
                  "serve.dropped_windows": summary["dropped_windows"],
                  "serve.error_records": summary["errors"]}
    return out
