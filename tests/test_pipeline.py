import json
import re
from dataclasses import replace

import numpy as np
import pytest

from qoecast.errors import (
    InsufficientData,
    NoCompleteWindow,
    ShapeMismatch,
    TooFewSequences,
    TraceTooShort,
)
from qoecast.pipeline import (
    CONTEXT_LEN,
    FEATURE_NAMES,
    HORIZON,
    QOE_FEATURE,
    ScalerStats,
    SplitArrays,
    build_dataset,
    fit_scaler,
    inverse_target,
    load_dataset,
    scale_features,
    save_dataset,
    window_trace,
)
from qoecast.seeding import derive_seed
from qoecast.synthgen import GeneratorConfig, generate_trace, qoe_oracle
from qoecast.telemetry import WINDOW_S, TelemetrySample, Trace

from op_reference import inverse_target_reference, scale_features_reference


DATASET_FILES = ("train.ndjson", "val.ndjson", "test.ndjson", "scaler.json", "dataset.json")


def _tick(ts_ms, thr=20.0, jit=15.0, loss=0.01, loss_count=10, speed=30.0):
    return TelemetrySample(ts_ms=ts_ms, throughput_mbps=thr, jitter_ms=jit,
                           loss_rate=loss, loss_count=loss_count, speed_kmh=speed)


def _ramp_trace(n_ticks=600, trace_id="ramp"):
    # throughput rises linearly; window w mean is exactly 1.18 + 0.4*w
    samples = tuple(
        _tick(i * 1000, thr=1.0 + 0.04 * i, jit=10.0, loss=0.0, loss_count=0)
        for i in range(n_ticks)
    )
    return Trace(samples=samples, trace_id=trace_id)


def _ramp_qoe_chain(n_windows):
    qs = []
    prev = None
    for w in range(n_windows):
        q = qoe_oracle(1.18 + 0.4 * w, 0.0, 10.0, prev)
        qs.append(q)
        prev = q
    return qs


class TestWindowing:
    def test_full_trace_window_count_and_means(self):
        res = window_trace(_ramp_trace())
        assert len(res.windows) == 60
        assert res.dropped == []
        for w in res.windows:
            assert w.features[0] == pytest.approx(1.18 + 0.4 * w.window_index, abs=1e-12)
            assert w.features[3] == 0.0  # loss_count sums

    def test_loss_count_sums_over_ticks(self):
        samples = tuple(_tick(i * 1000, loss_count=3) for i in range(20))
        res = window_trace(Trace(samples=samples))
        assert [w.features[3] for w in res.windows] == [30.0, 30.0]

    def test_short_window_dropped_with_reason(self):
        # window 1 keeps only 7 of its 10 ticks: below the 80% floor
        keep = [i for i in range(30) if not (10 <= i < 13)]
        samples = tuple(_tick(i * 1000) for i in keep)
        res = window_trace(Trace(samples=samples))
        assert [w.window_index for w in res.windows] == [0, 2]
        assert res.dropped == [(1, "7/10 ticks")]

    def test_exactly_80_percent_kept(self):
        keep = [i for i in range(10) if i not in (3, 7)]
        res = window_trace(Trace(samples=tuple(_tick(i * 1000) for i in keep)))
        assert [w.window_index for w in res.windows] == [0]

    def test_labels_override_oracle(self):
        samples = tuple(_tick(i * 1000) for i in range(30))
        tr = Trace(samples=samples, labels=((0, 42.0),))
        res = window_trace(tr)
        assert res.windows[0].qoe == 42.0

    def test_oracle_chains_through_previous_kept_window(self):
        samples = tuple(_tick(i * 1000) for i in range(30))
        tr = Trace(samples=samples, labels=((0, 42.0),))
        res = window_trace(tr)
        q1 = qoe_oracle(20.0, 1.0, 15.0, 42.0)
        q2 = qoe_oracle(20.0, 1.0, 15.0, q1)
        assert res.windows[1].qoe == pytest.approx(q1, abs=1e-12)
        assert res.windows[2].qoe == pytest.approx(q2, abs=1e-12)

    def test_oracle_chain_skips_dropped_window(self):
        # window 1 is dropped, so window 2 chains from window 0's qoe
        keep = [i for i in range(30) if not (10 <= i < 15)]
        tr = Trace(samples=tuple(_tick(i * 1000) for i in keep), labels=((0, 42.0),))
        res = window_trace(tr)
        assert res.dropped == [(1, "5/10 ticks")]
        assert res.windows[1].window_index == 2
        assert res.windows[1].qoe == pytest.approx(qoe_oracle(20.0, 1.0, 15.0, 42.0))

    def test_non_finite_window_dropped(self):
        # ten ticks of 1e308 overflow window 1's throughput sum to inf
        samples = tuple(_tick(i * 1000, thr=1e308 if 10 <= i < 20 else 20.0)
                        for i in range(30))
        res = window_trace(Trace(samples=samples, labels=((0, 42.0),)))
        assert res.dropped == [(1, "non-finite")]
        assert [w.window_index for w in res.windows] == [0, 2]
        assert np.all(np.isfinite(np.stack([w.features for w in res.windows])))
        assert res.windows[1].qoe == pytest.approx(qoe_oracle(20.0, 1.0, 15.0, 42.0))

    def test_empty_slots_listed_once_per_run(self):
        keep = [i for i in range(60) if not (20 <= i < 40)]
        res = window_trace(Trace(samples=tuple(_tick(i * 1000) for i in keep)))
        assert [w.window_index for w in res.windows] == [0, 1, 4, 5]
        assert res.dropped == [(2, "2 empty")]

    def test_no_complete_window_raises(self):
        samples = tuple(_tick(w * 10000 + k * 1000) for w in range(3) for k in range(4))
        with pytest.raises(NoCompleteWindow):
            window_trace(Trace(samples=samples))


def _qoe_row(qoe, rest=0.0):
    row = np.full(6, rest)
    row[QOE_FEATURE] = qoe
    return row


class TestScaler:
    def _windows(self, n=20, seed=0):
        cfg = GeneratorConfig(seed=derive_seed(seed, "trace:0"), duration_s=n * 10)
        return window_trace(generate_trace(cfg)).windows

    def test_fit_records_extremes(self):
        ws = window_trace(_ramp_trace()).windows
        stats = fit_scaler(ws)
        assert stats.mins[0] == pytest.approx(1.18)
        assert stats.maxs[0] == pytest.approx(1.18 + 0.4 * 59)
        assert stats.to_dict()["target_min"] == stats.mins[QOE_FEATURE]
        assert stats.to_dict()["target_max"] == stats.maxs[QOE_FEATURE]

    def test_scale_maps_fitted_range_to_unit(self):
        ws = self._windows()
        stats = fit_scaler(ws)
        mat = np.stack([w.features for w in ws])
        scaled = scale_features(stats, mat)
        assert scaled.min(axis=0) == pytest.approx(np.zeros(6), abs=1e-12)
        for j in range(6):
            if not stats.degenerate[j]:
                assert scaled[:, j].max() == pytest.approx(1.0, abs=1e-12)

    def test_scale_does_not_clamp(self):
        ws = self._windows()
        stats = fit_scaler(ws)
        row = ws[0].features.copy()
        row[0] = stats.maxs[0] + (stats.maxs[0] - stats.mins[0])
        assert scale_features(stats, row)[0] == pytest.approx(2.0)

    def test_degenerate_feature_maps_to_zero(self):
        samples = tuple(_tick(i * 1000, jit=25.0) for i in range(40))
        ws = window_trace(Trace(samples=samples)).windows
        stats = fit_scaler(ws)
        assert stats.degenerate[1]
        row = ws[0].features.copy()
        row[1] = 999.0
        assert scale_features(stats, row)[1] == 0.0

    def test_target_round_trip(self, rng):
        ws = self._windows()
        stats = fit_scaler(ws)
        for _ in range(200):
            q = float(rng.uniform(0, 100))
            scaled = scale_features(stats, _qoe_row(q))[QOE_FEATURE]
            assert inverse_target(stats, scaled) == pytest.approx(q, abs=1e-9)

    def test_degenerate_target_inverse_is_constant(self):
        stats = ScalerStats(mins=_qoe_row(55.0), maxs=_qoe_row(55.0, rest=1.0))
        assert scale_features(stats, _qoe_row(55.0))[QOE_FEATURE] == 0.0
        assert inverse_target(stats, 0.3) == 55.0

    def test_round_trip_keeps_scaler_values(self):
        stats = fit_scaler(self._windows())
        back = ScalerStats.from_dict(stats.to_dict(), "scaler")
        assert np.array_equal(back.mins, stats.mins)
        assert np.array_equal(back.maxs, stats.maxs)

    @pytest.mark.parametrize("key,value", [
        ("mins", [0.0] * 3), ("maxs", [1.0] * 7), ("mins", [0.0] * 5 + [float("nan")]),
        ("maxs", [1.0] * 5 + ["1"]), ("maxs", [1.0] * 5 + [10 ** 400]),
        ("degenerate", [0] * 6), ("degenerate", False)])
    def test_from_dict_rejects_wrong_counts_and_types(self, key, value):
        d = fit_scaler(self._windows()).to_dict()
        d[key] = value
        with pytest.raises(ShapeMismatch, match=f"scaler.json: {key} must be 6 "):
            ScalerStats.from_dict(d, "scaler.json")

    @pytest.mark.parametrize("key,value", [("target_min", -1.0), ("target_max", 1e9),
                                           ("degenerate", [True] * 6)])
    def test_from_dict_rejects_what_mins_and_maxs_contradict(self, key, value):
        d = fit_scaler(self._windows()).to_dict()
        d[key] = value
        with pytest.raises(ShapeMismatch, match=f"scaler.json: {key} is "):
            ScalerStats.from_dict(d, "scaler.json")

    def test_too_few_windows(self):
        ws = self._windows()
        with pytest.raises(InsufficientData):
            fit_scaler(ws[:1])


INF, NAN = float("inf"), float("nan")
# no degenerate feature; two degenerate features and a degenerate target; a
# degenerate target whose bounds are -0.0
EXACT_SCALERS = {
    "live": ScalerStats(mins=np.array([0.5, -3.0, 0.0, 0.0, 1e-3, 12.5]),
                        maxs=np.array([49.75, 120.0, 0.07, 611.0, 95.5, 97.25])),
    "flat": ScalerStats(mins=np.array([0.5, 15.0, 0.0, -0.0, 1e-3, 55.0]),
                        maxs=np.array([49.75, 15.0, 0.07, 0.0, 95.5, 55.0])),
    "negzero": ScalerStats(mins=np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.0]),
                           maxs=np.array([1.0, 1.0, 1.0, 1.0, 1.0, -0.0])),
}


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype == np.float64 and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestScalingExactness:
    """scale_features and inverse_target give the bits of the plain formulas
    in tests/op_reference.py for every kind of input, non-finite values
    included."""

    def _rows(self, rng):
        rows = rng.uniform(-50.0, 650.0, size=(40, 6))
        rows[0] = [NAN, INF, -INF, 0.0, -0.0, 1e30]
        rows[1] = [-INF, NAN, INF, -1e30, 5e-324, NAN]
        rows[2] = [-0.0, 15.0, 0.07, 0.0, 95.5, 55.0]
        return rows

    @pytest.mark.parametrize("name", EXACT_SCALERS)
    def test_scale_features_bits(self, name, rng):
        stats = EXACT_SCALERS[name]
        rows = self._rows(rng)
        kept = rows.copy()
        for raw in (rows, rows[3], rows[0], rows.reshape(8, 5, 6), rows.astype(np.float32),
                    tuple(rows[1].tolist()), rows[2].tolist()):
            assert _same_bits(scale_features(stats, raw),
                              scale_features_reference(stats, raw))
        assert _same_bits(rows, kept)  # the input is not written
        ring = np.full((1, 5, 6), 7.0)
        for k, row in enumerate(rows[:5]):
            into = ring[0, k]
            assert scale_features(stats, tuple(row.tolist()), out=into) is into
        assert _same_bits(ring[0], scale_features_reference(stats, rows[:5]))

    @pytest.mark.parametrize("name", EXACT_SCALERS)
    def test_inverse_target_bits(self, name, rng):
        stats = EXACT_SCALERS[name]
        values = rng.uniform(-0.5, 1.5, size=64)
        values[:6] = [NAN, INF, -INF, 0.0, -0.0, 1e30]
        for v in values.tolist():
            got = inverse_target(stats, v)
            assert type(got) is float or stats.degenerate[QOE_FEATURE]  # mapped in floats
            assert _same_bits(np.float64(got), inverse_target_reference(stats, v))
        for v in values[:8]:  # numpy float64 scalars, as predictions come
            assert _same_bits(np.float64(inverse_target(stats, v)),
                              inverse_target_reference(stats, v))
        for arr in (values, values.astype(np.float32), values.reshape(8, 8),
                    np.asarray(values[7]), np.float32(values[9])):
            assert _same_bits(inverse_target(stats, arr), inverse_target_reference(stats, arr))


def _all_rows(ds):
    """The train, val and test rows of a dataset, in order, as one part."""
    parts = (ds.train, ds.val, ds.test)
    return SplitArrays(X=np.concatenate([p.X for p in parts]),
                       y=np.concatenate([p.y for p in parts]),
                       origin=[o for p in parts for o in p.origin],
                       target_ts_ms=np.concatenate([p.target_ts_ms for p in parts]))


class TestSequences:
    def test_count_formula(self):
        ds = build_dataset([_ramp_trace()])
        assert len(_all_rows(ds)) == 55  # 60 windows, context 5 + horizon 1

    def test_targets_and_origins(self):
        ds = build_dataset([_ramp_trace()])
        raw = np.stack([w.features for w in window_trace(_ramp_trace()).windows])
        scaled = scale_features(ds.scaler, raw)
        rows = _all_rows(ds)
        for i in range(len(rows)):
            assert rows.origin[i] == ("ramp", i)
            assert rows.y[i] == pytest.approx(float(scaled[i + 5, QOE_FEATURE]), abs=0)
            assert np.array_equal(rows.X[i], scaled[i : i + 5])
            assert rows.target_ts_ms[i] == (i + 5) * 10000

    def test_sequences_never_span_gaps(self):
        # knock out window 30: runs of 30 and 29 windows remain
        keep = [i for i in range(600) if not (300 <= i < 310)]
        tr = Trace(samples=tuple(_tick(i * 1000, thr=1.0 + 0.04 * i, jit=10.0, loss=0.0)
                                 for i in keep), trace_id="gap")
        assert len(window_trace(tr).windows) == 59
        rows = _all_rows(build_dataset([tr]))
        assert len(rows) == (30 - 5) + (29 - 5)
        for _, first in rows.origin:
            assert not (first <= 30 <= first + 5)

    def test_trace_too_short(self):
        # enough sequences overall, but the second trace yields none
        with pytest.raises(TraceTooShort, match="short"):
            build_dataset([_ramp_trace(), _ramp_trace(50, trace_id="short")])

    def test_ts_offset_shifts_targets(self):
        ds = build_dataset([_ramp_trace(trace_id="a"), _ramp_trace(trace_id="b")])
        rows = _all_rows(ds)
        first_b = min(ts for (tid, _), ts in zip(rows.origin, rows.target_ts_ms)
                      if tid == "b")
        assert first_b == 600000 + 5 * 10000


class TestChronoSplit:
    def test_fraction_counts(self):
        ds = build_dataset([_ramp_trace()])
        assert (len(ds.train), len(ds.val), len(ds.test)) == (38, 5, 12)

    def test_chronological_order(self):
        ds = build_dataset([_ramp_trace(trace_id="a"), _ramp_trace(trace_id="b")])
        ts = _all_rows(ds).target_ts_ms.tolist()
        assert ts == sorted(ts)
        assert ds.train.target_ts_ms[-1] <= ds.val.target_ts_ms[0]
        assert ds.val.target_ts_ms[-1] <= ds.test.target_ts_ms[0]

    def test_remainder_goes_to_test(self):
        ds = build_dataset([_ramp_trace(160)])  # 16 windows, 11 sequences
        assert (len(ds.train), len(ds.val), len(ds.test)) == (7, 1, 3)

    def test_too_few_sequences(self):
        # two 9-window traces give 4 sequences each
        with pytest.raises(TooFewSequences):
            build_dataset([_ramp_trace(90, trace_id="a"), _ramp_trace(90, trace_id="b")])



class TestBuildDataset:
    def test_scaler_sees_training_windows_only(self):
        # single ramp trace: train sequences cover windows 0..42, so the
        # fitted max must be window 42's mean, not the global window 59
        ds = build_dataset([_ramp_trace()])
        assert ds.scaler.maxs[0] == pytest.approx(1.18 + 0.4 * 42, abs=1e-9)
        qs = _ramp_qoe_chain(60)
        assert ds.scaler.maxs[QOE_FEATURE] == pytest.approx(qs[42], abs=1e-9)
        assert ds.scaler.mins[QOE_FEATURE] == pytest.approx(qs[0], abs=1e-9)

    def test_leakage_canary_test_targets_exceed_unit(self):
        # qoe keeps rising after the training cut, so honest scaling pushes
        # val and test targets past 1.0; a leaky scaler would cap them at 1
        ds = build_dataset([_ramp_trace()])
        assert all(t > 1.0 for t in ds.test.y)
        assert all(0.0 <= t <= 1.0 for t in ds.train.y)

    def test_split_counts_and_order(self, small_dataset):
        ds = small_dataset
        total = sum(len(getattr(ds, p)) for p in ("train", "val", "test"))
        assert total == 110  # two traces, 55 sequences each
        assert len(ds.train) == 77
        ts = _all_rows(ds).target_ts_ms.tolist()
        assert ts == sorted(ts)

    def test_traces_laid_on_global_timeline(self, small_dataset):
        by_trace = {}
        rows = _all_rows(small_dataset)
        for (trace_id, _), ts in zip(rows.origin, rows.target_ts_ms):
            by_trace.setdefault(trace_id, []).append(ts)
        assert max(by_trace["trace_00"]) < min(by_trace["trace_01"])
        assert min(by_trace["trace_01"]) >= 600000

    def test_arrays_shapes(self, small_dataset):
        X, y = small_dataset.train.X, small_dataset.train.y
        assert X.shape == (77, 5, 6)
        assert y.shape == (77,)
        assert X.dtype == np.float64

    def test_no_traces(self):
        with pytest.raises(InsufficientData):
            build_dataset([])

    def test_too_few_sequences_across_traces(self):
        with pytest.raises(TooFewSequences):
            build_dataset([_ramp_trace(140)])  # 14 windows, 9 sequences

    def test_random_trace_invariants(self):
        # structural invariants on a handful of generated traces
        for seed in range(6):
            cfg = GeneratorConfig(seed=derive_seed(seed, "trace:0"), duration_s=300)
            ds = build_dataset([generate_trace(cfg)])
            n = sum(len(getattr(ds, p)) for p in ("train", "val", "test"))
            assert len(ds.train) == int(n * 0.7)
            ts = _all_rows(ds).target_ts_ms.tolist()
            assert ts == sorted(ts)
            Xtr, ytr = ds.train.X, ds.train.y
            assert np.all(ytr >= 0.0) and np.all(ytr <= 1.0)
            assert np.all(Xtr >= -1e-12) and np.all(Xtr <= 1.0 + 1e-12)
            assert Xtr.shape[1:] == (5, 6)


class TestDatasetIO:
    def test_round_trip_exact(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path)
        back = load_dataset(tmp_path)
        assert np.array_equal(back.scaler.mins, small_dataset.scaler.mins)
        assert np.array_equal(back.scaler.maxs, small_dataset.scaler.maxs)
        meta = json.loads((tmp_path / "dataset.json").read_text())
        assert (meta["window_s"], meta["context_len"], meta["horizon"]) == \
            (WINDOW_S, CONTEXT_LEN, HORIZON)
        assert meta["feature_order"] == list(FEATURE_NAMES)
        for part in ("train", "val", "test"):
            a, b = getattr(small_dataset, part), getattr(back, part)
            assert len(a) == len(b)
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.y, b.y)
            assert a.origin == b.origin
            assert np.array_equal(a.target_ts_ms, b.target_ts_ms)

    def test_dropped_windows_survive_round_trip(self, tmp_path):
        keep = [i for i in range(600) if not (300 <= i < 303)]
        tr = Trace(samples=tuple(_tick(i * 1000, thr=1.0 + 0.04 * i) for i in keep),
                   trace_id="gap")
        ds = build_dataset([tr, _ramp_trace()])
        assert ("gap", 30, "7/10 ticks") in ds.dropped_windows
        save_dataset(ds, tmp_path)
        assert ("gap", 30, "7/10 ticks") in load_dataset(tmp_path).dropped_windows

    @pytest.mark.parametrize("key,value", [("context_len", 3), ("horizon", 2),
                                           ("feature_order", list(FEATURE_NAMES[::-1])),
                                           ("window_s", 5)])
    def test_load_rejects_another_geometry(self, small_dataset, tmp_path, key, value):
        # the zoo runs 5-window contexts of the six features in order only
        save_dataset(small_dataset, tmp_path)
        meta_path = tmp_path / "dataset.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatch, match=key):
            load_dataset(tmp_path)

    def test_empty_part_arrays(self, small_dataset, tmp_path):
        save_dataset(replace(small_dataset, val=small_dataset.val[:0]), tmp_path)
        ds = load_dataset(tmp_path)
        X, y = ds.val.X, ds.val.y
        assert X.shape == (0, 5, 6) and y.shape == (0,)

    def test_files_round_trip_byte_for_byte(self, small_dataset, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        save_dataset(small_dataset, first)
        save_dataset(load_dataset(first), again)
        for name in DATASET_FILES:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_split_rows_are_the_json_of_each_row(self, small_dataset, tmp_path):
        # each distinct window row is rendered once: the text must still be
        # json.dumps of the whole row, for repeated rows, -0.0 and NaN too
        X = small_dataset.test.X.copy()
        X[0, 0, 1], X[1, 2, 3], X[2, 4, :] = -0.0, NAN, 0.0
        X[3, 1] = X[3, 0]
        ds = replace(small_dataset, test=replace(small_dataset.test, X=X))
        save_dataset(ds, tmp_path)
        for name in ("train", "val", "test"):
            part = getattr(ds, name)
            want = "".join(
                json.dumps({"origin": list(o), "inputs": x, "target": y, "target_ts_ms": ts})
                + "\n" for o, x, y, ts in zip(part.origin, part.X.tolist(), part.y.tolist(),
                                              part.target_ts_ms.tolist()))
            assert (tmp_path / f"{name}.ndjson").read_text(encoding="utf-8") == want, name

    def test_stored_end_times_are_the_last_targets(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path)
        meta = json.loads((tmp_path / "dataset.json").read_text())
        assert meta["train_end_ts_ms"] == small_dataset.train.target_ts_ms[-1]
        assert meta["val_end_ts_ms"] == small_dataset.val.target_ts_ms[-1]
        assert meta["counts"] == {p: len(getattr(small_dataset, p))
                                  for p in ("train", "val", "test")}

    @pytest.mark.parametrize("key,value", [("counts", {"train": 1, "val": 1, "test": 1}),
                                           ("train_end_ts_ms", 0), ("val_end_ts_ms", -1)])
    def test_load_rejects_counts_or_ends_the_splits_contradict(
            self, small_dataset, tmp_path, key, value):
        save_dataset(small_dataset, tmp_path)
        meta_path = tmp_path / "dataset.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatch, match=f"dataset.json: {key} is"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("inputs", [[[0.0] * 6] * 4, [[0.0] * 5] * 5,
                                        [[0.0] * 6] * 4 + [[0.0] * 5]])
    def test_load_rejects_inputs_of_another_shape(self, small_dataset, tmp_path, inputs):
        save_dataset(small_dataset, tmp_path)
        path = tmp_path / "test.ndjson"
        rows = path.read_text().splitlines()
        row = json.loads(rows[1])
        row["inputs"] = inputs
        rows[1] = json.dumps(row)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ShapeMismatch, match=f"{path} line 2: "):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", DATASET_FILES)
    def test_json_syntax_error_names_the_file(self, small_dataset, tmp_path, name):
        save_dataset(small_dataset, tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:40] + "\n"  # truncated: a whole file, or a split's first row
        path.write_text(lines[0] if name.endswith(".json") else "".join(lines))
        where = f"{path} line 1" if name.endswith(".ndjson") else str(path)
        with pytest.raises(ShapeMismatch, match=f"{re.escape(where)}: malformed"):
            load_dataset(tmp_path)
