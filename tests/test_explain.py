import numpy as np
import pytest

from qoecast.errors import NoAttentionComponent, ShapeMismatch
from qoecast.explain import (
    IG_STEPS,
    attention_map,
    integrated_gradients,
    lime_local,
)
from qoecast.pipeline import FEATURE_NAMES
from qoecast.zoo import BundleRunner, ModelBundle, build_variant


@pytest.fixture(scope="module")
def probe_input(small_dataset):
    return small_dataset.test.X[0]


@pytest.fixture(scope="module")
def linear_runner(linear_bundle):
    return BundleRunner(linear_bundle)


@pytest.fixture(scope="module")
def gru_runner(gru_bundle):
    return BundleRunner(gru_bundle)


def _init_runner(vid, small_dataset, seed=0):
    model = build_variant(vid)
    params = {k: np.asarray(v, dtype=np.float32)
              for k, v in model.init_params(seed).items()}
    return BundleRunner(ModelBundle(variant_id=vid, scaler=small_dataset.scaler,
                                    params=params, meta={}))


class TestIntegratedGradients:
    def test_linear_closed_form(self, linear_runner, probe_input):
        att = integrated_gradients(linear_runner, probe_input)
        w = np.asarray(linear_runner.bundle.params["weights"], dtype=np.float64).reshape(5, 6)
        assert att.method == "integrated_gradients_exact"
        assert att.values == pytest.approx(w * probe_input, abs=1e-12)
        assert att.completeness_gap <= 1e-9
        assert att.steps == 1

    def test_linear_custom_baseline(self, linear_runner, probe_input):
        baseline = probe_input * 0.5
        att = integrated_gradients(linear_runner, probe_input, baseline=baseline)
        w = np.asarray(linear_runner.bundle.params["weights"], dtype=np.float64).reshape(5, 6)
        assert att.values == pytest.approx(w * (probe_input - baseline), abs=1e-12)
        assert att.completeness_gap <= 1e-9

    def test_neural_completeness(self, gru_runner, probe_input):
        att = integrated_gradients(gru_runner, probe_input, steps=256)
        span = abs(att.prediction - att.baseline_prediction)
        assert att.completeness_gap <= max(0.01 * span, 1e-6)
        assert att.values.shape == (5, 6)
        assert att.steps == 256

    def test_more_steps_shrink_the_gap(self, gru_runner, probe_input):
        coarse = integrated_gradients(gru_runner, probe_input, steps=4)
        fine = integrated_gradients(gru_runner, probe_input, steps=512)
        assert fine.completeness_gap <= coarse.completeness_gap + 1e-12

    def test_prediction_matches_runner(self, gru_runner, probe_input):
        att = integrated_gradients(gru_runner, probe_input, steps=8)
        pred, _ = gru_runner.predict(probe_input[None])
        assert att.prediction == pytest.approx(float(pred[0]), abs=1e-12)

    def test_default_steps(self, gru_runner, probe_input):
        att = integrated_gradients(gru_runner, probe_input)
        assert att.steps == IG_STEPS

    def test_top_k(self, linear_runner, probe_input):
        att = integrated_gradients(linear_runner, probe_input)
        top = att.top_k(3)
        assert len(top) == 3
        mags = [abs(v) for _, _, v in top]
        assert mags == sorted(mags, reverse=True)
        assert abs(top[0][2]) == pytest.approx(np.abs(att.values).max())
        for w, name, _ in top:
            assert 0 <= w < 5 and name in FEATURE_NAMES

    def test_input_shape_checked(self, linear_runner):
        with pytest.raises(ShapeMismatch):
            integrated_gradients(linear_runner, np.zeros((4, 6)))

    def test_runner_reused_without_state(self, gru_runner, probe_input):
        # serve explains every alert on its stream's one runner
        first = integrated_gradients(gru_runner, probe_input, steps=8)
        again = integrated_gradients(gru_runner, probe_input, steps=8)
        assert np.array_equal(first.values, again.values)
        # ndarray weights are constants: a backward pass has nowhere to leave state
        assert all(type(p) is np.ndarray for p in gru_runner.params.values())

    def test_steps_validated(self, gru_runner, probe_input):
        with pytest.raises(ValueError):
            integrated_gradients(gru_runner, probe_input, steps=0)


class TestAttentionMap:
    def test_recurrent_weights(self, gru_runner, probe_input):
        amap = attention_map(gru_runner, probe_input)
        assert amap.weights.shape == (5,)
        assert amap.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(amap.weights > 0)
        pred, _ = gru_runner.predict(probe_input[None])
        assert amap.prediction == pytest.approx(float(pred[0]), abs=1e-12)

    def test_transformer_heads(self, small_dataset, probe_input):
        amap = attention_map(_init_runner("tr_basic", small_dataset), probe_input)
        assert amap.weights.shape == (2, 5, 5)
        assert np.sum(amap.weights, axis=-1) == pytest.approx(np.ones((2, 5)), abs=1e-12)

    def test_no_attention_component(self, small_dataset, linear_runner, probe_input):
        with pytest.raises(NoAttentionComponent):
            attention_map(linear_runner, probe_input)
        with pytest.raises(NoAttentionComponent):
            attention_map(_init_runner("dnn_basic", small_dataset), probe_input)


class TestLimeLocal:
    def test_recovers_linear_model(self, linear_runner, probe_input):
        sur = lime_local(linear_runner, probe_input, seed=3)
        w = np.asarray(linear_runner.bundle.params["weights"], dtype=np.float64).reshape(-1)
        assert sur.coefficients == pytest.approx(w, abs=1e-2)
        assert sur.r_squared >= 0.999
        assert sur.cell_coefficients().shape == (5, 6)

    def test_intercept_reconstructs_prediction(self, linear_runner, probe_input):
        sur = lime_local(linear_runner, probe_input, seed=3)
        pred, _ = linear_runner.predict(probe_input[None])
        local = probe_input.reshape(-1) @ sur.coefficients + sur.intercept
        assert local == pytest.approx(float(pred[0]), abs=1e-2)

    def test_seeded_determinism(self, gru_runner, probe_input):
        a = lime_local(gru_runner, probe_input, seed=5)
        b = lime_local(gru_runner, probe_input, seed=5)
        c = lime_local(gru_runner, probe_input, seed=6)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_neural_surrogate_is_sane(self, gru_runner, probe_input):
        sur = lime_local(gru_runner, probe_input, seed=0)
        assert np.all(np.isfinite(sur.coefficients))
        assert sur.r_squared <= 1.0 + 1e-12

    def test_input_shape_checked(self, gru_runner):
        with pytest.raises(ShapeMismatch):
            lime_local(gru_runner, np.zeros(30))
