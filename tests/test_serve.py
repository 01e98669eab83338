import io
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from qoecast.errors import MalformedRow, OutOfOrderSample, ScalerMissing
from qoecast.pipeline import ScalerStats, scale_features
from qoecast.seeding import derive_seed
from qoecast.serve import (
    ACTIONS,
    FeedbackPolicy,
    StreamState,
    decide,
    run_stream,
)
from qoecast.synthgen import GeneratorConfig, generate_trace, qoe_oracle, window_qoe
from qoecast.telemetry import (WINDOW_MS, TelemetrySample, Trace, WindowAggregator, load_trace,
                               write_trace)
from qoecast.zoo import (ALL_VARIANTS, BundleRunner, Forecaster, ModelBundle, build_variant,
                         load_bundle)
from qoecast.pipeline import inverse_target, window_trace

from op_reference import inverse_target_reference, scale_features_reference

DATA_DIR = Path(__file__).parent / "data"

POLICY = FeedbackPolicy(alert_threshold=50.0, reduce_bitrate_threshold=70.0,
                        hysteresis=3.0)


def _scaler():
    return ScalerStats(mins=np.zeros(6),
                       maxs=np.array([50.0, 100.0, 0.05, 500.0, 80.0, 100.0]))


def _lv_bundle():
    """Linear bundle that predicts the last window's QoE unchanged."""
    w = np.zeros((30, 1), dtype=np.float32)
    w[29, 0] = 1.0
    return ModelBundle(variant_id="lin_basic",
                       scaler=_scaler(),
                       params={"weights": w, "bias": np.zeros(1, dtype=np.float32)},
                       meta={})


def _sample(i, thr=30.0, jit=15.0, loss=0.01, loss_count=10, speed=40.0,
            qoe=None, ts=None):
    return TelemetrySample(ts_ms=ts if ts is not None else i * 1000,
                           throughput_mbps=thr, jitter_ms=jit, loss_rate=loss,
                           loss_count=loss_count, speed_kmh=speed, qoe=qoe)


def _line(i, **kw):
    rec = _sample(i, **kw)._asdict()
    if rec["qoe"] is None:
        del rec["qoe"]
    return json.dumps(rec) + "\n"


# Lines that trace files and live streams both reject, each with the field
# its MalformedRow names.
BAD_LINES = [
    pytest.param("{not json", "record", id="invalid_json"),
    pytest.param("[1, 2]", "record", id="not_object"),
    # deep nesting used to end the stream, and prepare, with RecursionError
    pytest.param("[" * 100000 + "]" * 100000, "record", id="nesting"),
    pytest.param('{"ts_ms": 0, "throughput_mbps": Infinity, "jitter_ms": 30.0, '
                 '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0}',
                 "throughput_mbps", id="infinity"),
    # json reads 1e400 as inf, which used to end the stream with OverflowError
    pytest.param('{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                 '"loss_rate": 0.01, "loss_count": 1e400, "speed_kmh": 40.0}',
                 "loss_count", id="overflow"),
    # a 400-digit qoe, or a 400-digit integer string, is too large for a
    # float and used to end the stream with OverflowError
    pytest.param('{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                 '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0, '
                 '"qoe": 1' + "0" * 400 + '}', "qoe", id="huge_qoe"),
    pytest.param('{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                 '"loss_rate": 0.01, "loss_count": "1' + "0" * 400 + '", '
                 '"speed_kmh": 40.0}', "loss_count", id="huge_int_string"),
    # past the interpreter's integer-string limit json.loads raises a plain
    # ValueError, which used to end the stream
    pytest.param('{"ts_ms": 1' + "0" * 5000 + '}', "record", id="long_int_literal"),
]


@pytest.mark.parametrize("bad,field", BAD_LINES)
def test_trace_file_rejects_the_same_lines(tmp_path, bad, field):
    # file record numbers count the blank line; stream ones do not
    p = tmp_path / "t.ndjson"
    p.write_text(_line(0) + "\n" + bad + "\n")
    with pytest.raises(MalformedRow) as e:
        load_trace(p)
    assert (e.value.record_no, e.value.field) == (3, field)
    out = io.StringIO()
    run_stream(_lv_bundle(), POLICY, ["\n", bad + "\n"], out)
    streamed = json.loads(out.getvalue().splitlines()[0])
    assert streamed["detail"] == str(e.value).replace("record 3:", "record 1:", 1)


class TestDecide:
    @pytest.mark.parametrize("prev,pred,expected", [
        # escalation from idle happens at the base thresholds
        ("none", 40.0, "alert"),
        ("none", 49.999, "alert"),
        ("none", 50.0, "reduce_bitrate"),
        ("none", 69.9, "reduce_bitrate"),
        ("none", 70.0, "none"),
        ("none", 90.0, "none"),
        # active alert holds until the prediction clears threshold + 3
        ("alert", 30.0, "alert"),
        ("alert", 52.9, "alert"),
        ("alert", 53.0, "reduce_bitrate"),
        ("alert", 72.9, "reduce_bitrate"),
        ("alert", 73.0, "none"),
        # bitrate reduction: same margin upward, immediate escalation down
        ("reduce_bitrate", 40.0, "alert"),
        ("reduce_bitrate", 69.0, "reduce_bitrate"),
        ("reduce_bitrate", 72.9, "reduce_bitrate"),
        ("reduce_bitrate", 73.0, "none"),
    ])
    def test_hysteresis_table(self, prev, pred, expected):
        assert decide(POLICY, pred, prev) == expected

    def test_zero_hysteresis_deescalates_at_base(self):
        p = FeedbackPolicy(50.0, 70.0, hysteresis=0.0)
        assert decide(p, 70.0, "reduce_bitrate") == "none"
        assert decide(p, 69.9, "reduce_bitrate") == "reduce_bitrate"

    def test_unknown_previous_action(self):
        with pytest.raises(ValueError):
            decide(POLICY, 80.0, "panic")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FeedbackPolicy(alert_threshold=80.0, reduce_bitrate_threshold=70.0)
        with pytest.raises(ValueError):
            FeedbackPolicy(alert_threshold=-1.0)
        with pytest.raises(ValueError):
            FeedbackPolicy(reduce_bitrate_threshold=101.0)
        with pytest.raises(ValueError):
            FeedbackPolicy(hysteresis=-0.5)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_hysteresis_rejected(self, margin):
        # a NaN margin made every de-escalation test False: an active alert
        # dropped to none with no hold
        with pytest.raises(ValueError, match="hysteresis must be"):
            FeedbackPolicy(hysteresis=margin)


def _drive(state, samples):
    decisions = []
    for s in samples:
        d = state.ingest(s)
        if d is not None:
            decisions.append(d)
    return decisions


class TestStreamState:
    def test_first_decision_exactly_at_fifth_window(self):
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, [_sample(i) for i in range(120)])
        assert len(decisions) == 8  # 12 windows, forecasts from the 5th on
        assert decisions[0].ts_ms == 50000
        assert decisions[0].horizon_s == 10
        assert [d.ts_ms for d in decisions] == [50000 + 10000 * k for k in range(8)]
        assert state.stats.ticks == 120
        assert state.stats.windows == 12
        assert state.stats.forecasts == 8

    def test_oracle_fallback_then_prediction_carry(self):
        # constant link stats: the oracle chain is flat, and the carried
        # prediction keeps it there once forecasts exist
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, [_sample(i) for i in range(120)])
        expected = qoe_oracle(30.0, 1.0, 15.0)
        for d in decisions:
            assert d.qoe_pred == pytest.approx(expected, abs=1e-9)

    def test_inband_qoe_takes_priority(self):
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, [_sample(i, qoe=80.0) for i in range(60)])
        assert len(decisions) == 2
        for d in decisions:
            assert d.qoe_pred == pytest.approx(80.0, abs=1e-9)

    def test_prediction_fallback_when_inband_stops(self):
        state = StreamState(_lv_bundle(), POLICY)
        ramp = {0: 60.0, 1: 62.0, 2: 64.0, 3: 66.0, 4: 68.0}
        samples = [_sample(i, qoe=ramp[i // 10]) for i in range(50)]
        samples += [_sample(i) for i in range(50, 80)]  # in-band feed stops
        decisions = _drive(state, samples)
        assert decisions[0].qoe_pred == pytest.approx(68.0, abs=1e-9)
        for d in decisions[1:]:
            assert d.qoe_pred == pytest.approx(68.0, abs=1e-9)

    def test_out_of_order_raises_and_preserves_state(self):
        state = StreamState(_lv_bundle(), POLICY)
        state.ingest(_sample(0, ts=5000))
        before = state.stats.ticks
        with pytest.raises(OutOfOrderSample):
            state.ingest(_sample(0, ts=5000))
        with pytest.raises(OutOfOrderSample):
            state.ingest(_sample(0, ts=4000))
        assert state.stats.ticks == before
        assert state.ingest(_sample(0, ts=6000)) is None  # stream continues

    def test_empty_window_slots_clear_context(self):
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, [_sample(i) for i in range(60)])
        assert len(decisions) == 2  # windows 4 and 5
        # windows 6 and 7 never arrive
        late = [_sample(i) for i in range(80, 130)]
        decisions = _drive(state, late)
        assert state.stats.dropped_windows == 2
        assert len(decisions) == 1  # ring must refill before forecasting again
        assert decisions[0].ts_ms == 130000

    def test_low_coverage_window_drops_and_clears(self):
        samples = [_sample(i) for i in range(55)]  # window 5 gets 5/10 ticks
        samples += [_sample(i) for i in range(60, 110)]  # windows 6..10
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, samples)
        assert state.stats.dropped_windows == 1
        assert state.stats.windows == 10
        assert [d.ts_ms for d in decisions] == [50000, 110000]

    def test_flush_forecasts_partial_window_with_coverage(self):
        state = StreamState(_lv_bundle(), POLICY)
        decisions = _drive(state, [_sample(i) for i in range(49)])  # 9/10 of w4
        assert decisions == []
        tail = state.flush()
        assert tail is not None
        assert tail.ts_ms == 50000
        assert state.flush() is None  # nothing pending afterwards

    def test_flush_drops_thin_partial_window(self):
        state = StreamState(_lv_bundle(), POLICY)
        _drive(state, [_sample(i) for i in range(45)])  # 5/10 of w4
        assert state.flush() is None
        assert state.stats.dropped_windows == 1

    def test_missing_scaler_rejected(self):
        bundle = _lv_bundle()
        bundle.scaler = None
        with pytest.raises(ScalerMissing):
            StreamState(bundle, POLICY)


class TestRunStream:
    def _run(self, lines, bundle=None, policy=POLICY, **kw):
        out = io.StringIO()
        summary = run_stream(bundle or _lv_bundle(), policy, lines, out,
                             clock=lambda: 0.0, **kw)
        records = [json.loads(l) for l in out.getvalue().splitlines()]
        return records, summary

    def test_decisions_and_summary_record(self):
        records, summary = self._run([_line(i) for i in range(120)])
        decisions = [r for r in records if "qoe_pred" in r]
        assert len(decisions) == 8
        assert records[-1] == {"summary": summary}
        assert summary["ticks"] == 120
        assert summary["windows"] == 12
        assert summary["forecasts"] == 8
        assert summary["errors"] == 0
        assert set(summary["actions"]) == set(ACTIONS)
        assert sum(summary["actions"].values()) == 8

    def test_zero_clock_gives_zero_latency(self):
        records, _ = self._run([_line(i) for i in range(60)])
        for r in records:
            if "qoe_pred" in r:
                assert r["latency_ms"] == 0.0

    def test_error_records_do_not_stop_the_stream(self):
        lines = [_line(i) for i in range(50)]
        lines.insert(10, "{not json\n")
        lines.insert(20, json.dumps({"ts_ms": 99999999, "throughput_mbps": 1.0,
                                     "jitter_ms": 1.0, "loss_rate": 7.0,
                                     "loss_count": 1, "speed_kmh": 1.0}) + "\n")
        lines.insert(30, _line(0, ts=3000))  # behind the stream clock
        records, summary = self._run(lines)
        errors = [r for r in records if "error" in r]
        assert [e["error"] for e in errors] == ["MalformedRow", "MalformedRow",
                                                "OutOfOrderSample"]
        assert all(e["record"] > 0 for e in errors)
        assert summary["errors"] == 3
        assert summary["forecasts"] == 1  # the 50 good ticks still forecast

    @pytest.mark.parametrize("bad,field", BAD_LINES)
    def test_no_input_line_ends_the_stream(self, bad, field):
        lines = [_line(i) for i in range(60)]
        lines.insert(30, bad + "\n")
        records, summary = self._run(lines)
        errors = [r for r in records if "error" in r]
        assert errors == [{"error": "MalformedRow", "record": 31,
                           "detail": errors[0]["detail"]}]
        assert errors[0]["detail"].startswith(f"record 31: bad value for {field!r}")
        assert records[-1] == {"summary": summary}
        assert summary["ticks"] == 60 and summary["errors"] == 1
        assert summary["forecasts"] == 2

    def test_blank_lines_ignored(self):
        lines = [_line(i) for i in range(50)]
        lines.insert(5, "\n")
        lines.insert(25, "   \n")
        _, summary = self._run(lines)
        assert summary["ticks"] == 50
        assert summary["errors"] == 0

    def test_explain_on_alert_only(self):
        # low in-band QoE forces an alert; the recovery window does not explain
        lines = [_line(i, qoe=30.0) for i in range(50)]
        lines += [_line(i, qoe=90.0) for i in range(50, 100)]
        records, _ = self._run(lines, explain_on_alert=True)
        decisions = [r for r in records if "qoe_pred" in r]
        alerts = [r for r in decisions if r["action"] == "alert"]
        calm = [r for r in decisions if r["action"] == "none"]
        assert alerts and calm
        for r in alerts:
            assert len(r["explain"]) == 3
            top = r["explain"][0]
            assert top["window"] == 4 and top["feature"] == "qoe"
            assert top["attribution"] != 0.0
        for r in calm:
            assert "explain" not in r

    def test_flush_decision_emitted(self):
        records, summary = self._run([_line(i) for i in range(49)])
        decisions = [r for r in records if "qoe_pred" in r]
        assert len(decisions) == 1
        assert decisions[0]["ts_ms"] == 50000
        assert summary["windows"] == 5


class TestOfflineEquivalence:
    def test_streaming_matches_offline_predictions(self, gru_bundle, tmp_path):
        cfg = GeneratorConfig(seed=derive_seed(5, "trace:0"), duration_s=300,
                              trace_id="eq")
        trace = generate_trace(cfg)
        path = tmp_path / "eq.ndjson"
        write_trace(trace, path, inband_qoe=True)
        with path.open(encoding="utf-8") as fh:
            lines = fh.readlines()
        out = io.StringIO()
        summary = run_stream(gru_bundle, POLICY, lines, out, clock=lambda: 0.0)
        streamed = [json.loads(l) for l in out.getvalue().splitlines()
                    if "qoe_pred" in l]
        assert summary["forecasts"] == 26

        windows = window_trace(trace).windows
        raw = np.stack([w.features for w in windows])
        scaled = scale_features(gru_bundle.scaler, raw)
        runner = BundleRunner(gru_bundle)
        for k, rec in enumerate(streamed):
            i = k + 4  # forecast issued when window i completes
            pred_scaled, _ = runner.predict(scaled[i - 4 : i + 1][None])
            offline = float(inverse_target(gru_bundle.scaler, pred_scaled[0]))
            assert rec["qoe_pred"] == pytest.approx(offline, abs=1e-9)
            assert rec["ts_ms"] == (i + 1) * 10000


def _reference_decisions(bundle, samples):
    """(ts_ms, qoe_pred, action, inputs_scaled) of every decision under the
    plain rule: a ring of raw window rows, and at each window that fills
    it the whole context scaled and run through a batch-1 predict, with
    the scaler's plain formulas from op_reference."""
    runner = BundleRunner(bundle)
    ring = deque(maxlen=5)
    out = []
    prev_qoe = last = None
    action = "none"
    agg = WindowAggregator()
    for win in agg.windows(samples):
        if win.skipped or win.dropped is not None:
            ring.clear()
        if win.dropped is not None:
            continue
        prev_qoe = window_qoe(win, prev_qoe, win.qoe, last)
        ring.append(np.array((*win.link, prev_qoe)))
        if len(ring) == 5:
            scaled = scale_features_reference(bundle.scaler, np.stack(ring))
            last = float(inverse_target_reference(bundle.scaler,
                                                  runner.predict(scaled[None])[0][0]))
            action = decide(POLICY, last, action)
            out.append(((win.index + 1) * WINDOW_MS, last, action, scaled))
    return out


def _inband_samples(seed, duration_s):
    trace = generate_trace(GeneratorConfig(seed=seed, duration_s=duration_s, trace_id="sched"))
    label_of = trace.label_map()
    return [s._replace(qoe=label_of.get(s.ts_ms // WINDOW_MS)) for s in trace.samples]


def _spy_runner(runner):
    """Record each call of the runner's begin, finish and predict."""
    calls = []
    for name in ("begin", "finish", "predict"):
        def spy(*args, _name=name, _method=getattr(runner, name)):
            calls.append(_name)
            return _method(*args)
        setattr(runner, name, spy)
    return calls


def _init_bundle(vid, scaler):
    params = {k: v.astype(np.float32) for k, v in build_variant(vid).init_params(3).items()}
    return ModelBundle(variant_id=vid, scaler=scaler, params=params, meta={})


@pytest.fixture(params=ALL_VARIANTS)
def any_bundle(request, gru_bundle):
    """The trained gru_basic bundle, or a variant at its seeded init."""
    return gru_bundle if request.param == "gru_basic" else _init_bundle(request.param,
                                                                        gru_bundle.scaler)


class TestBeginAhead:
    """Each context begins on the tick after its fourth window joins the
    ring, and the completing tick only finishes it: for a recurrent bundle
    the last step per layer and the head, for any other the whole forward
    pass. Every variant decides as a batch-1 predict of its context."""

    def _serve(self, bundle, samples):
        state = StreamState(bundle, POLICY)
        calls = _spy_runner(state.forecaster.runner)
        ticks, decisions = [], []
        for s in samples:
            before = len(calls)
            d = state.ingest(s)
            ticks.append((calls[before:], d))
            if d is not None:
                decisions.append(d)
        tail = state.flush()
        if tail is not None:
            decisions.append(tail)
        return state, ticks, decisions

    def _check_against_reference(self, bundle, samples, decisions):
        runner = BundleRunner(bundle)
        ref = _reference_decisions(bundle, samples)
        assert len(decisions) == len(ref)
        for d, (ts, pred, action, scaled) in zip(decisions, ref):
            assert (d.ts_ms, d.qoe_pred, d.action) == (ts, pred, action)
            assert np.array_equal(d.inputs_scaled, scaled)
            alone = runner.predict(d.inputs_scaled[None])[0][0]
            assert d.qoe_pred == float(inverse_target_reference(bundle.scaler, alone))

    def test_gap_free_stream_only_finishes_on_decision_ticks(self, any_bundle):
        samples = _inband_samples(derive_seed(11, "trace:0"), 300)
        state, ticks, decisions = self._serve(any_bundle, samples)
        assert len(decisions) == 26
        for calls, d in ticks:
            assert calls == ["finish"] if d is not None else calls in ([], ["begin"])
        assert sum(calls == ["begin"] for calls, _ in ticks) == 26
        self._check_against_reference(any_bundle, samples, decisions)
        # every decision hands out a fresh array, not the ring itself
        for d in decisions:
            assert not np.shares_memory(d.inputs_scaled, state.forecaster.context)
        decisions[-1].inputs_scaled[:] = np.nan
        assert np.all(np.isfinite(state.forecaster.context))

    def test_first_decision_after_a_gap_and_a_thin_window(self, any_bundle):
        samples = _inband_samples(derive_seed(12, "trace:0"), 400)
        # a 25-tick gap in window 9 and on, a window 20 of 7 ticks
        samples = [s for s in samples
                   if not (95000 <= s.ts_ms < 120000 or 203000 <= s.ts_ms < 206000)]
        state, _, decisions = self._serve(any_bundle, samples)
        assert state.stats.dropped_windows == 4
        restarts = {d.ts_ms for d in decisions} & {170000, 260000}
        assert restarts == {170000, 260000}  # five windows after each restart
        self._check_against_reference(any_bundle, samples, decisions)

    def test_forecasts_fed_back_when_inband_qoe_stops(self, any_bundle):
        samples = _inband_samples(derive_seed(13, "trace:0"), 300)
        samples = samples[:150] + [s._replace(qoe=None) for s in samples[150:]]
        _, _, decisions = self._serve(any_bundle, samples)
        assert len(decisions) == 26
        self._check_against_reference(any_bundle, samples, decisions)

    def test_windows_that_join_with_no_tick_between(self, any_bundle):
        # the window aggregator closes at most one window per tick; should
        # windows ever join back to back, the context begins when it is due
        samples = _inband_samples(derive_seed(14, "trace:0"), 80)
        windows = list(WindowAggregator().windows(samples))
        state = StreamState(any_bundle, POLICY)
        calls = _spy_runner(state.forecaster.runner)
        decisions = [state._finalize(w) for w in windows]
        assert calls == ["begin", "finish"] * 4
        self._check_against_reference(any_bundle, samples,
                                      [d for d in decisions if d is not None])


def _raw_windows(scaler, rng, n):
    """n raw feature rows inside the scaler's fitted range."""
    return rng.uniform(scaler.mins, scaler.maxs, size=(n, 6))


def _batch_forecast(bundle, rows):
    """A batch-1 predict of the five rows, scaled and mapped back with the
    scaler's plain formulas."""
    scaled = scale_features_reference(bundle.scaler, rows)
    pred = BundleRunner(bundle).predict(scaled[None])[0][0]
    return float(inverse_target_reference(bundle.scaler, pred))


class TestForecaster:
    """A Forecaster forecasts each full ring as a batch-1 predict of its
    context, however its pushes, advances and resets interleave."""

    def test_windows_pushed_with_no_advance_between(self, any_bundle, rng):
        forecaster = Forecaster(any_bundle)
        calls = _spy_runner(forecaster.runner)
        rows = _raw_windows(any_bundle.scaler, rng, 9)
        got = [forecaster.push(tuple(row)) for row in rows]
        assert got[:4] == [None] * 4
        assert calls == ["begin", "finish"] * 5  # each push begins what is due
        assert got[4:] == [_batch_forecast(any_bundle, rows[k - 4:k + 1]) for k in range(4, 9)]

    def test_advance_begins_once_when_due(self, gru_bundle, rng):
        forecaster = Forecaster(gru_bundle)
        calls = _spy_runner(forecaster.runner)
        for row in _raw_windows(gru_bundle.scaler, rng, 4):
            forecaster.advance()
            assert forecaster.push(row) is None
        assert calls == []
        forecaster.advance()
        forecaster.advance()
        assert calls == ["begin"]
        assert forecaster.push(_raw_windows(gru_bundle.scaler, rng, 1)[0]) is not None
        assert calls == ["begin", "finish"]

    @pytest.mark.parametrize("begun", (True, False), ids=("begun", "due"))
    @pytest.mark.parametrize("vid", ("gru_basic", "lstm_deep", "tr_basic", "lin_basic"))
    def test_reset_discards_a_begun_run(self, vid, begun, gru_bundle, rng):
        bundle = _init_bundle(vid, gru_bundle.scaler)
        forecaster = Forecaster(bundle)
        for row in _raw_windows(bundle.scaler, rng, 4):
            forecaster.push(row)
        if begun:
            forecaster.advance()  # begun on windows that a gap then cuts off
        forecaster.reset()
        calls = _spy_runner(forecaster.runner)
        rows = _raw_windows(bundle.scaler, rng, 5)
        got = []
        for row in rows:
            forecaster.advance()
            got.append(forecaster.push(row))
        assert got == [None] * 4 + [_batch_forecast(bundle, rows)]
        assert calls == ["begin", "finish"]  # begun afresh on the new windows


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _served_link_rows(state, samples):
    """Link columns of every window the stream keeps, in order."""
    rows = []
    finalize = state._finalize

    def keep(win):
        before = state.stats.windows
        decision = finalize(win)
        if state.stats.windows > before:
            rows.append(np.array(win.link))
        return decision

    state._finalize = keep
    for s in samples:
        state.ingest(s)
    state.flush()
    return rows


class TestOneWindowRule:
    def test_gappy_trace_same_windows_both_paths(self):
        trace = generate_trace(GeneratorConfig(seed=derive_seed(7, "trace:0"),
                                               duration_s=200, trace_id="gappy"))
        # window 3 keeps 7 of its 10 ticks; window 8 is missing altogether
        samples = tuple(s for s in trace.samples
                        if not (30000 <= s.ts_ms < 33000 or 80000 <= s.ts_ms < 90000))
        gappy = Trace(samples=samples, labels=trace.labels, trace_id="gappy")
        state = StreamState(_lv_bundle(), POLICY)
        served = _served_link_rows(state, samples)
        res = window_trace(gappy)
        assert len(served) == len(res.windows) == 18
        for row, w in zip(served, res.windows):
            assert np.array_equal(row, w.features[:5])
        assert res.dropped == [(3, "7/10 ticks"), (8, "1 empty")]
        assert state.stats.dropped_windows == 2

    def test_ticks_finer_than_tick_s_agree(self):
        # 0.5 s ticks against the 1 s protocol tick: each window closes at its
        # tenth tick, 5 s in, and the ticks of its second half are ignored on
        # both paths
        samples = tuple(_sample(i, thr=1.0 + i, ts=500 * i) for i in range(200))
        state = StreamState(_lv_bundle(), POLICY)
        served = _served_link_rows(state, samples)
        res = window_trace(Trace(samples=samples))
        assert [w.window_index for w in res.windows] == list(range(10))
        assert res.dropped == []
        assert state.stats.dropped_windows == 0
        assert len(served) == 10
        for row, w in zip(served, res.windows):
            assert np.array_equal(row, w.features[:5])
            assert w.features[0] == 1.0 + 20 * w.window_index + 4.5

    def test_overflowing_window_is_dropped_not_forecast(self):
        # ten ticks of 1e308 overflow the window sum to inf
        lines = [_line(i) for i in range(40)]
        lines += [_line(i, thr=1e308) for i in range(40, 50)]
        lines += [_line(i) for i in range(50, 60)]
        out = io.StringIO()
        summary = run_stream(load_bundle(DATA_DIR / "lastvalue.bundle.json"),
                             FeedbackPolicy(), lines, out, clock=lambda: 0.0)
        records = [json.loads(l, parse_constant=_reject_constant)
                   for l in out.getvalue().splitlines()]
        assert records == [{"summary": summary}]
        assert summary["dropped_windows"] == 1
        assert summary["windows"] == 5 and summary["forecasts"] == 0


class TestGoldenStream:
    def test_byte_exact_replay(self):
        bundle = load_bundle(DATA_DIR / "lastvalue.bundle.json")
        lines = (DATA_DIR / "golden_input.ndjson").read_text(encoding="utf-8") \
            .splitlines(keepends=True)
        expected = (DATA_DIR / "golden_expected.ndjson").read_text(encoding="utf-8")
        out = io.StringIO()
        run_stream(bundle, FeedbackPolicy(), lines, out, clock=lambda: 0.0)
        assert out.getvalue() == expected
