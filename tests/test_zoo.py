import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qoecast.errors import (
    ChecksumMismatch,
    QoecastError,
    ShapeMismatch,
    UnknownVariant,
    VersionMismatch,
)
from qoecast.nncore import Tensor
from qoecast.pipeline import FEATURE_NAMES, QOE_FEATURE, ScalerStats
from qoecast.zoo import (
    ALL_VARIANTS,
    BUNDLE_FORMAT_VERSION,
    LINEAR_VARIANTS,
    NEURAL_VARIANTS,
    BundleRunner,
    ModelBundle,
    build_variant,
    last_value_baseline,
    load_bundle,
    params_checksum,
    save_bundle,
    serialize,
    sinusoidal_positions,
)
from oracles import param_count

LASTVALUE = Path(__file__).parent / "data" / "lastvalue.bundle.json"

EXPECTED_VARIANTS = (
    "lstm_basic", "lstm_wide", "lstm_deep",
    "gru_basic", "gru_wide", "gru_deep",
    "tr_basic", "tr_4heads", "tr_largeff", "tr_lowdrop",
    "dnn_basic", "dnn_deep", "dnn_elu", "dnn_highdrop",
    "lin_basic", "lin_l1", "lin_l2", "lin_elasticnet",
)


def _tensor_params(model, seed=0):
    return {k: Tensor(v) for k, v in model.init_params(seed).items()}


def _batch(rng, n=4):
    return rng.uniform(0.0, 1.0, size=(n, 5, 6))


class TestRegistry:
    def test_eighteen_variants(self):
        assert ALL_VARIANTS == EXPECTED_VARIANTS

    def test_class_partition(self):
        assert len(NEURAL_VARIANTS) == 14
        assert LINEAR_VARIANTS == ("lin_basic", "lin_l1", "lin_l2", "lin_elasticnet")
        classes = {build_variant(v).model_class for v in ALL_VARIANTS}
        assert classes == {"lstm", "gru", "transformer", "dnn", "linear"}

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariant):
            build_variant("resnet")

    def test_param_count_matches_specs(self):
        for vid in ALL_VARIANTS:
            m = build_variant(vid)
            assert param_count(m) == sum(int(np.prod(s.shape)) for s in m.param_specs)


class TestParamCounts:
    def test_gru_basic_cell(self):
        m = build_variant("gru_basic")
        cell = {s.name: s.shape for s in m.param_specs if s.name.startswith("gru0")}
        assert cell == {"gru0_kernel": (6, 96), "gru0_recurrent": (32, 96),
                        "gru0_bias": (96,)}
        n_cell = sum(int(np.prod(s)) for s in cell.values())
        assert n_cell == 3744  # 6*96 + 32*96 + 96

    def test_lstm_basic_cell(self):
        m = build_variant("lstm_basic")
        cell = {s.name: s.shape for s in m.param_specs if s.name.startswith("lstm0")}
        assert cell == {"lstm0_kernel": (6, 128), "lstm0_recurrent": (32, 128),
                        "lstm0_bias": (128,)}
        n_cell = sum(int(np.prod(s)) for s in cell.values())
        assert n_cell == 4992  # 6*128 + 32*128 + 128

    def test_totals_with_attention_and_head(self):
        # the parameter counts of the seed-1 desk bundles
        counts = {vid: param_count(build_variant(vid)) for vid in ALL_VARIANTS}
        assert counts == {
            "lstm_basic": 9377, "lstm_wide": 55957, "lstm_deep": 26017,
            "gru_basic": 8129, "gru_wide": 22145, "gru_deep": 20609,
            "tr_basic": 8801, "tr_4heads": 8801, "tr_largeff": 12961, "tr_lowdrop": 8801,
            "dnn_basic": 4097, "dnn_deep": 14337, "dnn_elu": 4097, "dnn_highdrop": 4097,
            "lin_basic": 31, "lin_l1": 31, "lin_l2": 31, "lin_elasticnet": 31,
        }


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _manual_attention_head(params, states):
    # states: (B, T, units)
    e = np.tanh(states @ params["att_kernel"] + params["att_bias"])
    scores = (e @ params["att_score"])[..., 0]
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    ctx = np.einsum("bt,btu->bu", alpha, states)
    return (ctx @ params["out_kernel"] + params["out_bias"])[:, 0]


def _manual_gru(params, x, u=32):
    W, U, b = params["gru0_kernel"], params["gru0_recurrent"], params["gru0_bias"]
    B, T, _ = x.shape
    h = np.zeros((B, u))
    states = []
    for t in range(T):
        gx = x[:, t] @ W + b
        rec = h @ U
        z = _sig(gx[:, :u] + rec[:, :u])
        r = _sig(gx[:, u:2 * u] + rec[:, u:2 * u])
        cand = np.tanh(gx[:, 2 * u:] + (r * h) @ U[:, 2 * u:])
        h = (1.0 - z) * h + z * cand
        states.append(h)
    return _manual_attention_head(params, np.stack(states, axis=1))


def _manual_lstm(params, x, u=32):
    W, U, b = params["lstm0_kernel"], params["lstm0_recurrent"], params["lstm0_bias"]
    B, T, _ = x.shape
    h = np.zeros((B, u))
    c = np.zeros((B, u))
    states = []
    for t in range(T):
        g = x[:, t] @ W + b + h @ U
        i = _sig(g[:, :u])
        f = _sig(g[:, u:2 * u])
        cand = np.tanh(g[:, 2 * u:3 * u])
        o = _sig(g[:, 3 * u:])
        c = f * c + i * cand
        h = o * np.tanh(c)
        states.append(h)
    return _manual_attention_head(params, np.stack(states, axis=1))


class TestForward:
    @pytest.mark.parametrize("vid", EXPECTED_VARIANTS)
    def test_shapes_and_aux(self, vid, rng):
        m = build_variant(vid)
        x = Tensor(_batch(rng))
        pred, aux = m.forward(_tensor_params(m), x)
        assert pred.data.shape == (4,)
        assert np.all(np.isfinite(pred.data))
        if m.has_attention:
            att = aux["attention"]
            assert np.sum(att, axis=-1) == pytest.approx(
                np.ones(att.shape[:-1]), abs=1e-12)
        else:
            assert aux == {}

    def test_attention_shapes(self, rng):
        x = Tensor(_batch(rng))
        m = build_variant("gru_basic")
        _, aux = m.forward(_tensor_params(m), x)
        assert aux["attention"].shape == (4, 5)
        m = build_variant("tr_4heads")
        _, aux = m.forward(_tensor_params(m), x)
        assert aux["attention"].shape == (4, 4, 5, 5)

    def test_gru_matches_manual_implementation(self, rng):
        m = build_variant("gru_basic")
        raw = m.init_params(3)
        x = _batch(rng)
        pred, _ = m.forward({k: Tensor(v) for k, v in raw.items()}, Tensor(x))
        assert pred.data == pytest.approx(_manual_gru(raw, x), abs=1e-12)

    def test_lstm_matches_manual_implementation(self, rng):
        m = build_variant("lstm_basic")
        raw = m.init_params(3)
        x = _batch(rng)
        pred, _ = m.forward({k: Tensor(v) for k, v in raw.items()}, Tensor(x))
        assert pred.data == pytest.approx(_manual_lstm(raw, x), abs=1e-12)

    def test_dnn_matches_manual_implementation(self, rng):
        m = build_variant("dnn_basic")
        raw = m.init_params(3)
        x = _batch(rng)
        h = x.reshape(4, 30)
        h = np.maximum(0.0, h @ raw["dense0_kernel"] + raw["dense0_bias"])
        h = np.maximum(0.0, h @ raw["dense1_kernel"] + raw["dense1_bias"])
        manual = (h @ raw["out_kernel"] + raw["out_bias"])[:, 0]
        pred, _ = m.forward({k: Tensor(v) for k, v in raw.items()}, Tensor(x))
        assert pred.data == pytest.approx(manual, abs=1e-12)

    def test_linear_matches_manual_implementation(self, rng):
        m = build_variant("lin_basic")
        raw = m.init_params(3)
        x = _batch(rng)
        manual = (x.reshape(4, 30) @ raw["weights"] + raw["bias"])[:, 0]
        pred, _ = m.forward({k: Tensor(v) for k, v in raw.items()}, Tensor(x))
        assert pred.data == pytest.approx(manual, abs=1e-12)

    def test_eval_forward_deterministic(self, rng):
        for vid in ("gru_deep", "tr_basic", "dnn_highdrop"):
            m = build_variant(vid)
            params = _tensor_params(m)
            x = Tensor(_batch(rng))
            a, _ = m.forward(params, x)
            b, _ = m.forward(params, x)
            assert np.array_equal(a.data, b.data)

    def test_train_dropout_perturbs(self, rng):
        m = build_variant("dnn_basic")
        params = _tensor_params(m)
        x = Tensor(_batch(rng))
        eval_pred, _ = m.forward(params, x)
        train_pred, _ = m.forward(params, x, train=True, rng=np.random.default_rng(0))
        assert not np.array_equal(eval_pred.data, train_pred.data)

    def test_bad_input_shape(self, rng):
        m = build_variant("gru_basic")
        with pytest.raises(ShapeMismatch):
            m.forward(_tensor_params(m), Tensor(rng.uniform(size=(4, 3, 6))))
        with pytest.raises(ShapeMismatch):
            m.forward(_tensor_params(m), Tensor(rng.uniform(size=(4, 5, 7))))


class TestBaselineAndPositions:
    def test_last_value_baseline(self, rng):
        x = _batch(rng, 7)
        assert np.array_equal(last_value_baseline(x), x[:, -1, QOE_FEATURE])

    def test_last_value_shape_check(self, rng):
        with pytest.raises(ShapeMismatch):
            last_value_baseline(rng.uniform(size=(3, 5)))

    def test_sinusoidal_positions(self):
        pe = sinusoidal_positions(5, 32)
        assert pe.shape == (5, 32)
        assert pe[0] == pytest.approx(np.tile([0.0, 1.0], 16))
        assert np.all(np.abs(pe) <= 1.0)


def _make_bundle(vid="gru_basic", seed=0, meta=None):
    model = build_variant(vid)
    params = {k: np.asarray(v, dtype=np.float32)
              for k, v in model.init_params(seed).items()}
    scaler = ScalerStats(mins=np.zeros(6),
                         maxs=np.array([50.0, 50.0, 50.0, 50.0, 50.0, 100.0]))
    return ModelBundle(variant_id=vid, scaler=scaler,
                       params=params, meta=meta or {"val_mae": 0.05})


def _load_text(tmp_path, text):
    """Write a bundle document where load_bundle, the program's reader, reads it."""
    path = tmp_path / "model.bundle.json"
    path.write_text(text, encoding="utf-8")
    return load_bundle(path)


class TestBundles:
    def test_serialize_round_trip_bit_exact(self, tmp_path):
        b = _make_bundle()
        text = serialize(b)
        again = serialize(_load_text(tmp_path, text))
        assert text == again

    def test_params_restored_exactly_as_float32(self, tmp_path):
        b = _make_bundle()
        back = _load_text(tmp_path, serialize(b))
        for k, v in b.params.items():
            assert back.params[k].dtype == np.float32
            assert np.array_equal(back.params[k], v)
        assert back.meta == b.meta
        assert back.variant_id == "gru_basic"

    def test_checksum_tamper_detected(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["params"][0]["values"][0] += 0.5
        with pytest.raises(ChecksumMismatch):
            _load_text(tmp_path, json.dumps(doc))

    def test_stored_checksum_tamper_detected(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["checksum"] += 1
        with pytest.raises(ChecksumMismatch):
            _load_text(tmp_path, json.dumps(doc))

    def test_version_mismatch(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["format_version"] = BUNDLE_FORMAT_VERSION + 1
        with pytest.raises(VersionMismatch):
            _load_text(tmp_path, json.dumps(doc))

    def test_unknown_variant_rejected(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["variant_id"] = "resnet"
        with pytest.raises(UnknownVariant):
            _load_text(tmp_path, json.dumps(doc))

    def test_shape_tamper_detected(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["params"][0]["shape"][0] += 1
        with pytest.raises(ShapeMismatch):
            _load_text(tmp_path, json.dumps(doc))

    def test_missing_param_detected(self, tmp_path):
        doc = json.loads(serialize(_make_bundle()))
        doc["params"] = doc["params"][:-1]
        with pytest.raises(ShapeMismatch):
            _load_text(tmp_path, json.dumps(doc))

    def test_spec_shape_enforced(self, tmp_path):
        # right names and value counts, but a transposed kernel shape
        doc = json.loads(serialize(_make_bundle("lin_basic")))
        entry = next(e for e in doc["params"] if e["name"] == "weights")
        entry["shape"] = [1, 30]
        with pytest.raises(ShapeMismatch):
            _load_text(tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("key,value", [("context_len", 3),
                                           ("feature_order", list(FEATURE_NAMES[::-1])),
                                           ("window_s", 5)])
    def test_other_geometry_rejected(self, key, value, tmp_path):
        # the checksum covers only the params, so an edited geometry used to
        # load and fail later, or be served silently
        doc = json.loads(serialize(_make_bundle()))
        doc[key] = value
        with pytest.raises(ShapeMismatch, match=key):
            _load_text(tmp_path, json.dumps(doc))

    def test_checksum_sensitive_to_name_and_order(self):
        b = _make_bundle("lin_basic")
        ordered = params_checksum(b.params)
        renamed = {("w" if k == "weights" else k): v for k, v in b.params.items()}
        assert params_checksum(renamed) != ordered

    def test_file_round_trip(self, tmp_path):
        b = _make_bundle()
        path = tmp_path / "model.bundle.json"
        save_bundle(b, path)
        back = load_bundle(path)
        assert serialize(back) == serialize(b)


# numbers no writer produces, swapped in for one in a bundle's text
_SWAPS = (b"NaN", b"-Infinity", b"1e400", b"9" * 401, b"true", b"null", b"[]",
          b"[[1.0, 2.0], [3.0]]", b'"x"', b"{}")
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(data: bytes, rng) -> bytes:
    """One seeded mutation: a byte set to any value, a truncation, a span
    copied elsewhere, or a number swapped for one of _SWAPS."""
    i, j, k = sorted(rng.integers(len(data), size=3))
    kind = rng.integers(4)
    if kind == 0:
        return data[:i] + bytes([rng.integers(256)]) + data[i + 1:]
    if kind == 1:
        return data[:i]
    if kind == 2:
        return data[:k] + data[i:j] + data[k:]
    numbers = list(_NUMBER.finditer(data))
    m = numbers[rng.integers(len(numbers))]
    return data[:m.start()] + _SWAPS[rng.integers(len(_SWAPS))] + data[m.end():]


def test_mutated_bundles_raise_only_domain_errors_naming_the_file(tmp_path):
    # 300 fixed mutations of one bundle file: load_bundle returns a bundle
    # or raises a QoecastError that names the file, never anything else
    data = LASTVALUE.read_bytes()
    rng = np.random.default_rng(20)
    path = tmp_path / "mutant.bundle.json"
    escaped = []
    for n in range(300):
        path.write_bytes(_mutate(data, rng))
        try:
            load_bundle(path)
        except QoecastError as exc:
            if str(path) not in str(exc):
                escaped.append(f"mutant {n}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - what the test looks for
            escaped.append(f"mutant {n}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped[:10])


class TestBundleRunner:
    def test_predict_matches_forward(self, rng):
        b = _make_bundle("gru_basic")
        runner = BundleRunner(b)
        x = _batch(rng)
        pred, aux = runner.predict(x)
        params = {k: Tensor(np.asarray(v, dtype=np.float64)) for k, v in b.params.items()}
        direct, _ = build_variant("gru_basic").forward(params, Tensor(x))
        assert np.array_equal(pred, direct.data)
        assert aux["attention"].shape == (4, 5)

    def test_begin_returns_none_without_recurrent_layers(self, rng):
        x = _batch(rng, 2)
        for vid in ("tr_basic", "dnn_basic", "lin_basic"):
            runner = BundleRunner(_make_bundle(vid))
            assert runner.begin(x) is None
            assert np.array_equal(runner.finish(None, x)[0], runner.predict(x)[0])

    @pytest.mark.parametrize("vid", ALL_VARIANTS)
    def test_predict_is_the_taped_forward_bit_for_bit(self, vid, rng):
        # the untaped forward runs the recurrent head on arrays; it must keep
        # the taped ops' operand shapes and so their bits
        runner = BundleRunner(_make_bundle(vid, seed=2))
        for n in (1, 16):
            x = _batch(rng, n)
            pred = runner.predict(x)[0]
            assert pred.tobytes() == runner.input_gradients(x)[0].tobytes()

    def test_runner_checks_weight_shapes_when_built(self):
        # begin and finish run unchecked on the runner's weights
        b = _make_bundle("gru_basic")
        b.params["att_score"] = b.params["att_score"].reshape(1, -1)
        with pytest.raises(ShapeMismatch, match=r"'att_score' has shape \(1, 128\)"):
            BundleRunner(b)
        b = _make_bundle("lstm_deep")
        del b.params["out_bias"]
        with pytest.raises(ShapeMismatch, match="bundle lstm_deep: params .* do not match"):
            BundleRunner(b)

    def test_runner_widens_once(self, rng):
        b = _make_bundle("lin_basic")
        runner = BundleRunner(b)
        x = _batch(rng, 2)
        p1, _ = runner.predict(x)
        p2, _ = runner.predict(x)
        assert np.array_equal(p1, p2)
        assert p1.dtype == np.float64


RECURRENT_VARIANTS = ("gru_basic", "gru_wide", "gru_deep",
                      "lstm_basic", "lstm_wide", "lstm_deep")
_RUNNERS = {vid: BundleRunner(_make_bundle(vid, seed=k))
            for k, vid in enumerate(RECURRENT_VARIANTS)}
_CONTEXTS = st.integers(1, 3).flatmap(lambda rows: hnp.arrays(
    np.float64, (rows, 5, 6), elements=st.floats(-2.0, 3.0, width=32)))
# what stands in for the last window before it arrives
_PLACEHOLDERS = st.sampled_from(["zeros", "real", "+1e6", "-1e6"]) | hnp.arrays(
    np.float64, 6, elements=st.floats(-1e6, 1e6))


class TestBeginFinish:
    """finish(begin(x'), x) is predict(x) bit for bit, whatever x' holds in
    its last window: begin reads only the first four windows."""

    # 250 batches of 1-3 contexts: 505 contexts per variant
    @pytest.mark.parametrize("vid", RECURRENT_VARIANTS)
    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(x=_CONTEXTS, placeholder=_PLACEHOLDERS)
    def test_finish_of_begin_equals_predict(self, vid, x, placeholder):
        runner = _RUNNERS[vid]
        early = x.copy()
        if isinstance(placeholder, str):
            early[:, -1] = {"zeros": 0.0, "real": x[:, -1], "+1e6": 1e6,
                            "-1e6": -1e6}[placeholder]
        else:
            early[:, -1] = placeholder
        begun = runner.begin(early)
        early[:] = np.nan  # begin keeps nothing of its input
        pred, aux = runner.finish(begun, x)
        want, want_aux = runner.predict(x)
        assert np.array_equal(pred, want)
        assert np.array_equal(aux["attention"], want_aux["attention"])
        # the begun run is not used up
        assert np.array_equal(runner.finish(begun, x)[0], want)

    def test_begin_is_four_steps_per_layer(self, rng):
        runner = _RUNNERS["lstm_deep"]
        begun = runner.begin(_batch(rng, 2))
        assert len(begun) == 3
        for states, (h, c) in begun:
            assert len(states) == 4
            assert h is states[-1] and c.shape == h.shape == (2, 32)
