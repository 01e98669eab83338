import csv
import dataclasses

import numpy as np
import pytest

from qoecast.errors import EmptySplit, ScalerMismatch
from qoecast.evaluation import (
    DENSITY_BINS,
    DENSITY_CLASS,
    LatencyBudget,
    LatencyStats,
    MetricsReport,
    benchmark_latency,
    check_scaler,
    evaluate,
    evaluate_baseline,
    export_error_density,
    rank_variants,
    write_metrics_csv,
)
from qoecast.pipeline import ScalerStats, inverse_target, load_dataset, save_dataset
from qoecast.zoo import BundleRunner, ModelBundle


def _linear_probe_bundle(ds, weights=None, bias=0.0):
    w = np.zeros((30, 1), dtype=np.float32)
    if weights is not None:
        w[:, 0] = weights
    return ModelBundle(
        variant_id="lin_basic",
        scaler=ds.scaler, params={"weights": w,
                                  "bias": np.array([bias], dtype=np.float32)},
        meta={})


class TestEvaluate:
    def test_constant_predictor_hand_check(self, small_dataset):
        # zero weights, bias 0.5: every prediction is scaled 0.5, so the
        # metrics reduce to a plain numpy computation in QoE units
        ds = small_dataset
        rep = evaluate(_linear_probe_bundle(ds, bias=0.5), ds)
        y = ds.test.y
        errors = (inverse_target(ds.scaler, 0.5) - inverse_target(ds.scaler, y))
        assert rep.mae == pytest.approx(float(np.mean(np.abs(errors))), abs=1e-12)
        assert rep.rmse == pytest.approx(float(np.sqrt(np.mean(errors ** 2))), abs=1e-12)
        assert rep.n_test == len(y)
        assert rep.model_class == "linear"
        assert np.array_equal(rep.abs_errors, np.abs(errors))

    def test_last_value_probe_matches_baseline(self, small_dataset):
        # weight 1.0 on the last window's qoe feature reproduces the
        # carry-forward baseline exactly, closing the loop between routes
        ds = small_dataset
        w = np.zeros(30)
        w[29] = 1.0
        rep = evaluate(_linear_probe_bundle(ds, weights=w), ds)
        base = evaluate_baseline(ds)
        assert rep.mae == pytest.approx(base.mae, abs=1e-12)
        assert rep.rmse == pytest.approx(base.rmse, abs=1e-12)
        assert base.variant_id == "last_value"
        assert base.model_class == "baseline"

    def test_rmse_at_least_mae(self, small_dataset, gru_bundle, linear_bundle):
        for rep in (evaluate(gru_bundle, small_dataset),
                    evaluate(linear_bundle, small_dataset),
                    evaluate_baseline(small_dataset)):
            assert rep.rmse >= rep.mae - 1e-9
            assert np.isfinite(rep.mae) and rep.mae >= 0.0

    def test_metrics_in_qoe_units(self, small_dataset, linear_bundle):
        # worst case error cannot exceed the full 0..100 scale
        rep = evaluate(linear_bundle, small_dataset)
        assert 0.0 <= rep.mae <= 100.0
        assert rep.abs_errors.shape == (rep.n_test,)

    def test_scaler_mismatch_rejected(self, small_dataset):
        ds = small_dataset
        bundle = _linear_probe_bundle(ds, bias=0.5)
        s = ds.scaler
        bundle.scaler = ScalerStats(mins=s.mins + 1e-9, maxs=s.maxs)
        with pytest.raises(ScalerMismatch):
            evaluate(bundle, ds)

    def test_scaler_compared_by_value(self, small_dataset):
        # -0.0 and 0.0 scale alike, so a bundle holding either one matches
        maxs = small_dataset.scaler.maxs
        ds = dataclasses.replace(small_dataset, scaler=ScalerStats(mins=np.zeros(6), maxs=maxs))
        bundle = _linear_probe_bundle(ds)
        bundle.scaler = ScalerStats(mins=-np.zeros(6), maxs=maxs)
        check_scaler(bundle, ds)

    def test_empty_test_split(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "ds")
        ds = load_dataset(tmp_path / "ds")
        ds.test = ds.test[:0]
        with pytest.raises(EmptySplit):
            evaluate(_linear_probe_bundle(ds, bias=0.5), ds)
        with pytest.raises(EmptySplit):
            evaluate_baseline(ds)

    @pytest.mark.parametrize("bundle", ["linear_bundle", "gru_bundle"])
    def test_batching_does_not_change_predictions(self, small_dataset, bundle, request):
        runner = BundleRunner(request.getfixturevalue(bundle))
        X = small_dataset.test.X
        whole, _ = runner.predict(X)
        chunked = np.concatenate([runner.predict(X[i : i + 4])[0]
                                  for i in range(0, len(X), 4)])
        assert chunked == pytest.approx(whole, abs=1e-12)


class TestLatency:
    def test_benchmark_reports_consistent_stats(self, small_dataset):
        bundle = _linear_probe_bundle(small_dataset, bias=0.5)
        stats = benchmark_latency(bundle)
        assert stats.batch_size == 16
        assert stats.reps == 100
        assert 0.0 < stats.mean_ms
        assert stats.median_ms <= stats.p95_ms
        assert stats.per_sample_ms == pytest.approx(stats.mean_ms / 16)

    def test_budget_totals(self):
        budget = LatencyBudget(66.0, 18.0, 20.0, 20.0, 7.0)
        assert budget.total_ms == 131.0
        assert budget.margin_ms(10.0) == pytest.approx(10000.0 - 131.0)

    def test_budget_defaults(self):
        assert LatencyBudget(5.0).total_ms == pytest.approx(70.0)

    def test_budget_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyBudget(-1.0)
        with pytest.raises(ValueError):
            LatencyBudget(5.0, capture_ms=-0.1)
        with pytest.raises(ValueError):
            LatencyBudget(5.0, render_ms=-0.1)


def _report(vid, cls, rmse, mae, errs=None, latency=None):
    return MetricsReport(variant_id=vid, model_class=cls, mae=mae, rmse=rmse,
                         n_test=8, abs_errors=errs if errs is not None
                         else np.abs(np.random.default_rng(0).normal(0, mae, 64)),
                         latency=latency)


class TestRanking:
    def test_orders_by_rmse(self):
        reps = [_report("b", "gru", 3.0, 2.0), _report("a", "gru", 1.0, 0.5),
                _report("c", "dnn", 2.0, 1.5)]
        assert [r.variant_id for r in rank_variants(reps)] == ["a", "c", "b"]

    def test_tie_break_mae_then_id(self):
        reps = [_report("z", "gru", 2.0, 1.0), _report("m", "gru", 2.0, 1.0),
                _report("a", "gru", 2.0, 0.9)]
        assert [r.variant_id for r in rank_variants(reps)] == ["a", "m", "z"]


class TestMetricsCsv:
    def test_format_and_empty_latency_cells(self, tmp_path):
        lat = LatencyStats(batch_size=16, reps=100, mean_ms=4.25,
                           median_ms=4.0, p95_ms=5.5)
        reps = [_report("gru_basic", "gru", 2.0, 1.5, latency=lat),
                _report("last_value", "baseline", 3.0, 2.5)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(reps, path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant_id", "model_class", "rmse", "mae",
                           "latency_ms_batch16", "latency_ms_sample", "n_test"]
        assert rows[1] == ["gru_basic", "gru", "2.0", "1.5",
                           "4.25", repr(4.25 / 16), "8"]
        assert rows[2][4] == "" and rows[2][5] == ""  # baseline has no latency


class TestErrorDensity:
    def test_unit_area_and_class_merge(self, tmp_path, rng):
        reps = [
            _report("gru_basic", "gru", 2.0, 1.5, errs=np.abs(rng.normal(0, 2, 200))),
            _report("lstm_basic", "lstm", 2.1, 1.6, errs=np.abs(rng.normal(0, 2, 200))),
            _report("tr_basic", "transformer", 2.2, 1.7, errs=np.abs(rng.normal(0, 2, 200))),
            _report("dnn_basic", "dnn", 2.3, 1.8, errs=np.abs(rng.normal(0, 2, 200))),
            _report("lin_basic", "linear", 2.4, 1.9, errs=np.abs(rng.normal(0, 2, 200))),
            _report("last_value", "baseline", 3.0, 2.5),
        ]
        paths = export_error_density(reps, tmp_path)
        # dnn and linear pool into one file; the baseline exports nothing
        assert set(paths) == {"gru", "lstm", "transformer", "linear_dnn"}
        for cls, path in paths.items():
            assert path.name == f"density_{cls}.csv"
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == DENSITY_BINS == 40
            area = sum((float(r["bin_right"]) - float(r["bin_left"]))
                       * float(r["density"]) for r in rows)
            assert area == pytest.approx(1.0, abs=1e-9)
            assert float(rows[0]["bin_left"]) == 0.0

    def test_density_class_map_covers_model_classes(self):
        assert DENSITY_CLASS["dnn"] == DENSITY_CLASS["linear"] == "linear_dnn"
        assert "baseline" not in DENSITY_CLASS
