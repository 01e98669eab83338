"""Forecasting model zoo: 18 variants behind one forward interface.

Families: recurrent (GRU/LSTM with additive attention over the 5 hidden
states), a single-block Transformer encoder, plain feed-forward nets on the
flattened context, and linear regressors. Every model maps a scaled
(batch, 5, 6) context to one scaled QoE prediction per row and exposes its
attention weights, when it has any, as a side output that never influences
the prediction.

Trained weights travel as a ModelBundle: a JSON document holding the
architecture id, the protocol geometry, the scaler, 32-bit parameters and
a CRC-32 over their canonical serialization. BundleRunner is the one way
to run a bundle; it checks the weight shapes once.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import nncore as nc
from .errors import (ChecksumMismatch, ShapeMismatch, UnknownVariant, VersionMismatch,
                     load_json, malformed)
from .nncore import ParamSpec, Tape, Tensor
from .pipeline import (CONTEXT_LEN, GEOMETRY, N_FEATURES, QOE_FEATURE, ScalerStats,
                       check_geometry)

ATTENTION_WIDTH = 128
D_MODEL = 32
BUNDLE_FORMAT_VERSION = 1
BUNDLE_GEOMETRY = ("window_s", "context_len", "feature_order")  # GEOMETRY less the horizon


def _dense_specs(name: str, n_in: int, n_out: int) -> list[ParamSpec]:
    return [
        ParamSpec(f"{name}_kernel", (n_in, n_out), "glorot"),
        ParamSpec(f"{name}_bias", (n_out,), "zeros"),
    ]


def _dense(tape, params, name: str, x: Tensor) -> Tensor:
    return nc.add(tape, nc.matmul(tape, x, params[f"{name}_kernel"]), params[f"{name}_bias"])


class ForecastModel:
    """Shared surface: param specs, seeded init, forward to (pred, aux)."""

    variant_id: str
    model_class: str
    has_attention: bool = False

    def __init__(self, variant_id: str):
        self.variant_id = variant_id
        self.param_specs: tuple[ParamSpec, ...] = tuple(self._build_specs())

    def _build_specs(self) -> list[ParamSpec]:
        raise NotImplementedError

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        return nc.init_params(self.param_specs, seed)

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 3 or x.data.shape[1:] != (CONTEXT_LEN, N_FEATURES):
            raise ShapeMismatch(
                f"{self.variant_id}: expected (batch, {CONTEXT_LEN}, "
                f"{N_FEATURES}) input, got {x.data.shape}")

    def forward(self, params: Mapping[str, nc.Weight], x: Tensor, tape: Tape | None = None,
                train: bool = False, rng: np.random.Generator | None = None):
        raise NotImplementedError

    def begin(self, params: Mapping[str, np.ndarray], x: Tensor):
        """The part of an untaped forward pass that reads only the first
        CONTEXT_LEN - 1 windows of x, for finish; None where the model has
        no such part. Neither checks the weights: BundleRunner has."""
        return None

    def finish(self, params: Mapping[str, np.ndarray], begun, x: Tensor):
        """forward(params, x) without a tape, given begun = begin(params, x')
        for an x' that equals x except in its last window: the same bits as
        the forward pass."""
        return self.forward(params, x)


# ----------------------------------------------------------- recurrent nets

class RecurrentModel(ForecastModel):
    """Stacked GRU or LSTM layers, additive attention, dense head.

    Gate layout per layer: one input kernel (d_in, G*units), one recurrent
    kernel (units, G*units) with orthogonal square blocks, one bias (G*units).
    GRU order z|r|h with the reset gate applied before the candidate's
    recurrent matmul; LSTM order i|f|g|o with the forget bias initialized
    to 1. Dropout, when configured, acts on the sequence between layers
    during training only.
    """

    has_attention = True

    def __init__(self, variant_id: str, cell: str, layer_units: tuple[int, ...],
                 dropout_rate: float = 0.0):
        self.cell = cell
        self.layer_units = layer_units
        self.dropout_rate = dropout_rate
        self.model_class = cell
        self._gates = 3 if cell == "gru" else 4
        self._layer, self._loop, self._carried = (  # a step carries h, or h and c
            (nc.gru_layer, nc._gru_steps, 1) if cell == "gru"
            else (nc.lstm_layer, nc._lstm_steps, 2))
        super().__init__(variant_id)

    def _build_specs(self) -> list[ParamSpec]:
        specs: list[ParamSpec] = []
        d_in = N_FEATURES
        bias_init = "zeros" if self.cell == "gru" else "lstm_bias"
        for li, units in enumerate(self.layer_units):
            g = self._gates
            specs.append(ParamSpec(f"{self.cell}{li}_kernel", (d_in, g * units), "glorot"))
            specs.append(ParamSpec(f"{self.cell}{li}_recurrent", (units, g * units),
                                   "orthogonal_blocks"))
            specs.append(ParamSpec(f"{self.cell}{li}_bias", (g * units,), bias_init))
            d_in = units
        top = self.layer_units[-1]
        specs.append(ParamSpec("att_kernel", (top, ATTENTION_WIDTH), "glorot"))
        specs.append(ParamSpec("att_bias", (ATTENTION_WIDTH,), "zeros"))
        specs.append(ParamSpec("att_score", (ATTENTION_WIDTH, 1), "glorot"))
        specs.extend(_dense_specs("out", top, 1))
        return specs

    def _cell(self, params, li: int):
        name = f"{self.cell}{li}"
        return params[f"{name}_kernel"], params[f"{name}_recurrent"], params[f"{name}_bias"]

    def forward(self, params, x, tape=None, train=False, rng=None):
        self._check_input(x)
        seq = x
        for li in range(len(self.layer_units)):
            seq = self._layer(tape, seq, *self._cell(params, li))
            if li < len(self.layer_units) - 1 and self.dropout_rate > 0.0:
                seq = nc.dropout(tape, seq, self.dropout_rate, train, rng)
        return self._head(tape, params, seq if tape is not None else seq.data)

    def begin(self, params, x):
        """Every layer's first CONTEXT_LEN - 1 steps, as (states, carry) per
        layer. Each layer after the first projects a whole context whose
        last row, a repeat of the state before it, stands in for the state
        that finish computes."""
        self._check_input(x)
        seq, begun = x.data, []
        for li in range(len(self.layer_units)):
            if li:
                seq = nc.stack_states([*hs, hs[-1]])
            hs: list[np.ndarray] = []
            W, U, b = self._cell(params, li)
            zero = (np.zeros((len(seq), U.shape[0])),) * self._carried
            carry = self._loop(nc._project(seq, W, b), U, *zero, hs, CONTEXT_LEN - 1)
            begun.append((tuple(hs), carry))
        return tuple(begun)

    def finish(self, params, begun, x):
        """Every layer's last step, then attention and the head, on arrays."""
        self._check_input(x)
        seq = x.data
        for li, (states, carry) in enumerate(begun):
            hs = list(states)
            W, U, b = self._cell(params, li)
            self._loop(nc._project(seq, W, b), U, *carry, hs, CONTEXT_LEN)
            seq = nc.stack_states(hs)
        return self._head(None, params, seq)

    def _head(self, tape, params, seq):
        """Attention and the dense layer over a Tensor with a tape, else an array."""
        if tape is not None:
            ctx, alpha = nc.additive_attention(tape, seq, params["att_kernel"],
                                               params["att_bias"], params["att_score"])
            pred = nc.reshape(tape, _dense(tape, params, "out", ctx), (seq.data.shape[0],))
            return pred, {"attention": alpha.copy()}
        W, b, v, kernel, bias = (w.data if isinstance(w, Tensor) else w for w in map(
            params.__getitem__, ("att_kernel", "att_bias", "att_score", "out_kernel", "out_bias")))
        ctx, alpha, _ = nc._attention(seq, W, b, v)
        return Tensor((ctx @ kernel + bias).reshape(len(ctx))), {"attention": alpha}


# -------------------------------------------------------------- transformer

def sinusoidal_positions(n_pos: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, (n_pos, d_model)."""
    pos = np.arange(n_pos)[:, None].astype(np.float64)
    i = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((n_pos, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class TransformerModel(ForecastModel):
    """One post-norm encoder block over the 5 projected positions.

    Input projection to d_model=32 plus fixed sinusoidal position codes;
    the fused nncore.encoder_block (multi-head self-attention, residual +
    layer norm with learned gain/shift, position-wise FFN with ReLU, second
    residual + norm, dropout on each sublayer output during training); mean
    pooling over positions and a dense head.
    """

    model_class = "transformer"
    has_attention = True

    def __init__(self, variant_id: str, heads: int = 2, ff_dim: int = 64,
                 dropout_rate: float = 0.10):
        self.heads = heads
        self.ff_dim = ff_dim
        self.dropout_rate = dropout_rate
        self._pe = sinusoidal_positions(CONTEXT_LEN, D_MODEL)
        super().__init__(variant_id)

    def _build_specs(self) -> list[ParamSpec]:
        d = D_MODEL
        specs = _dense_specs("embed", N_FEATURES, d)
        for name in ("wq", "wk", "wv", "wo"):
            specs.extend(_dense_specs(name, d, d))
        specs.append(ParamSpec("ln1_gamma", (d,), "ones"))
        specs.append(ParamSpec("ln1_beta", (d,), "zeros"))
        specs.extend(_dense_specs("ffn1", d, self.ff_dim))
        specs.extend(_dense_specs("ffn2", self.ff_dim, d))
        specs.append(ParamSpec("ln2_gamma", (d,), "ones"))
        specs.append(ParamSpec("ln2_beta", (d,), "zeros"))
        specs.extend(_dense_specs("out", d, 1))
        return specs

    def forward(self, params, x, tape=None, train=False, rng=None):
        self._check_input(x)
        B = x.data.shape[0]
        h = nc.add(tape, _dense(tape, params, "embed", x), self._pe)
        h, weights = nc.encoder_block(tape, h, params, self.heads, self.dropout_rate,
                                      train, rng)
        pooled = nc.reduce_mean(tape, h, axis=1)
        pred = nc.reshape(tape, _dense(tape, params, "out", pooled), (B,))
        return pred, {"attention": weights.copy()}


# ------------------------------------------------------------ feed-forward

class DnnModel(ForecastModel):
    """Dense net on the flattened 30-value context."""

    model_class = "dnn"

    def __init__(self, variant_id: str, hidden: tuple[int, ...],
                 activation: str = "relu", dropout_rate: float = 0.2):
        self.hidden = hidden
        self.activation = activation
        self.dropout_rate = dropout_rate
        super().__init__(variant_id)

    def _build_specs(self) -> list[ParamSpec]:
        specs: list[ParamSpec] = []
        d_in = CONTEXT_LEN * N_FEATURES
        for i, width in enumerate(self.hidden):
            specs.extend(_dense_specs(f"dense{i}", d_in, width))
            d_in = width
        specs.extend(_dense_specs("out", d_in, 1))
        return specs

    def forward(self, params, x, tape=None, train=False, rng=None):
        self._check_input(x)
        B = x.data.shape[0]
        act = nc.relu if self.activation == "relu" else nc.elu
        h = nc.reshape(tape, x, (B, CONTEXT_LEN * N_FEATURES))
        for i in range(len(self.hidden)):
            h = act(tape, _dense(tape, params, f"dense{i}", h))
            h = nc.dropout(tape, h, self.dropout_rate, train, rng)
        pred = nc.reshape(tape, _dense(tape, params, "out", h), (B,))
        return pred, {}


class LinearModel(ForecastModel):
    """Affine map on the flattened context. penalties = (l1, l2) strengths
    consumed by the fitting routine; the forward pass is the same for all
    four variants."""

    model_class = "linear"

    def __init__(self, variant_id: str, penalties: tuple[float, float] = (0.0, 0.0)):
        self.penalties = penalties
        super().__init__(variant_id)

    def _build_specs(self) -> list[ParamSpec]:
        d_in = CONTEXT_LEN * N_FEATURES
        return [ParamSpec("weights", (d_in, 1), "glorot"),
                ParamSpec("bias", (1,), "zeros")]

    def forward(self, params, x, tape=None, train=False, rng=None):
        self._check_input(x)
        B = x.data.shape[0]
        flat = nc.reshape(tape, x, (B, CONTEXT_LEN * N_FEATURES))
        out = nc.add(tape, nc.matmul(tape, flat, params["weights"]), params["bias"])
        return nc.reshape(tape, out, (B,)), {}


# ----------------------------------------------------------------- registry

def _registry() -> dict[str, ForecastModel]:
    models = [
        RecurrentModel("lstm_basic", "lstm", (32,)),
        RecurrentModel("lstm_wide", "lstm", (100,)),
        RecurrentModel("lstm_deep", "lstm", (32, 32, 32), dropout_rate=0.2),
        RecurrentModel("gru_basic", "gru", (32,)),
        RecurrentModel("gru_wide", "gru", (64,)),
        RecurrentModel("gru_deep", "gru", (32, 32, 32), dropout_rate=0.20),
        TransformerModel("tr_basic", heads=2, ff_dim=64, dropout_rate=0.10),
        TransformerModel("tr_4heads", heads=4, ff_dim=64, dropout_rate=0.10),
        TransformerModel("tr_largeff", heads=2, ff_dim=128, dropout_rate=0.10),
        TransformerModel("tr_lowdrop", heads=2, ff_dim=64, dropout_rate=0.05),
        DnnModel("dnn_basic", (64, 32), "relu", 0.2),
        DnnModel("dnn_deep", (128, 64, 32), "relu", 0.2),
        DnnModel("dnn_elu", (64, 32), "elu", 0.2),
        DnnModel("dnn_highdrop", (64, 32), "relu", 0.4),
        LinearModel("lin_basic", (0.0, 0.0)),
        LinearModel("lin_l1", (0.01, 0.0)),
        LinearModel("lin_l2", (0.0, 0.01)),
        LinearModel("lin_elasticnet", (0.005, 0.005)),
    ]
    return {m.variant_id: m for m in models}


_MODELS = _registry()
ALL_VARIANTS: tuple[str, ...] = tuple(_MODELS)
NEURAL_VARIANTS: tuple[str, ...] = tuple(v for v in ALL_VARIANTS
                                         if _MODELS[v].model_class != "linear")
LINEAR_VARIANTS: tuple[str, ...] = tuple(v for v in ALL_VARIANTS
                                         if _MODELS[v].model_class == "linear")


def build_variant(variant_id: str) -> ForecastModel:
    if variant_id not in _MODELS:
        raise UnknownVariant(
            f"unknown variant {variant_id!r}; known: {', '.join(ALL_VARIANTS)}")
    return _MODELS[variant_id]


def last_value_baseline(batch: np.ndarray) -> np.ndarray:
    """Predict the last context window's (scaled) QoE unchanged."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[2] != N_FEATURES:
        raise ShapeMismatch(f"expected (batch, context, {N_FEATURES}), got {batch.shape}")
    return batch[:, -1, QOE_FEATURE].copy()


# ------------------------------------------------------------------ bundles

@dataclass
class ModelBundle:
    """Portable trained model: weights at 32-bit plus the scaler its inputs
    need. The window length, context length, feature order and format
    version are the protocol's constants, which serialize writes and
    load_bundle checks."""

    variant_id: str
    scaler: ScalerStats
    params: dict[str, np.ndarray]  # float32, model spec order
    meta: dict


def params_checksum(params: Mapping[str, np.ndarray]) -> int:
    """CRC-32 over the canonical little-endian float32 bytes of the params
    section, names and shapes included, in listed order."""
    crc = 0
    for name, arr in params.items():
        a32 = np.ascontiguousarray(arr, dtype="<f4")
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(b"\x00", crc)
        crc = zlib.crc32("x".join(str(d) for d in a32.shape).encode("ascii"), crc)
        crc = zlib.crc32(b"\x00", crc)
        crc = zlib.crc32(a32.tobytes(), crc)
    return crc


def serialize(bundle: ModelBundle) -> str:
    """Render a bundle as a UTF-8 JSON document. Parameters are stored at
    float32 precision; load_bundle restores them bit-exactly."""
    params32 = {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in bundle.params.items()}
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "variant_id": bundle.variant_id,
        **{key: GEOMETRY[key] for key in BUNDLE_GEOMETRY},
        "scaler": bundle.scaler.to_dict(),
        "params": [
            {
                "name": name,
                "shape": list(arr.shape),
                "values": [float(v) for v in arr.reshape(-1)],
            }
            for name, arr in params32.items()
        ],
        "meta": bundle.meta,
        "checksum": params_checksum(params32),
    }
    return json.dumps(doc, indent=1)


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(serialize(bundle) + "\n", encoding="utf-8")


def load_bundle(path) -> ModelBundle:
    """Read and validate a bundle file.

    Checks the format version, the geometry against the fixed protocol, the
    CRC-32 of the params section, declared shapes against value counts, and
    both against the architecture's own parameter spec. A window_s,
    context_len or feature_order other than the protocol's raises
    ShapeMismatch naming the field, as load_dataset does; so does a JSON
    syntax error, a missing key, a value of the wrong JSON type or a bad
    scaler. Every error names the file.
    """
    doc = load_json(Path(path).read_text(encoding="utf-8"), path)
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"{path}: not a JSON object")
    version = doc.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format {version!r} unsupported (expected {BUNDLE_FORMAT_VERSION})")
    try:
        check_geometry(doc, path, BUNDLE_GEOMETRY)
        variant_id = doc["variant_id"]
        model = build_variant(variant_id)  # raises UnknownVariant

        params: dict[str, np.ndarray] = {}
        for entry in doc["params"]:
            shape = tuple(int(d) for d in entry["shape"])
            values = np.asarray(entry["values"], dtype=np.float32)
            if values.size != int(np.prod(shape)):
                raise ShapeMismatch(
                    f"{path}: param {entry['name']!r}: {values.size} values "
                    f"for shape {shape}")
            params[entry["name"]] = values.reshape(shape)

        _check_params(model, params, path)
        stored = doc.get("checksum")
        actual = params_checksum(params)
        if stored != actual:
            raise ChecksumMismatch(f"{path}: params checksum {actual} != stored {stored}")

        return ModelBundle(
            variant_id=variant_id,
            scaler=ScalerStats.from_dict(doc["scaler"], path),
            params=params,
            meta=doc.get("meta", {}),
        )
    except (KeyError, TypeError) as exc:
        raise malformed(path, exc) from None


def _check_params(model: ForecastModel, params: Mapping[str, np.ndarray], source) -> None:
    """Raise ShapeMismatch naming `source` unless params have the spec's names and shapes."""
    expected = {s.name: s.shape for s in model.param_specs}
    if list(params) != list(expected):
        raise ShapeMismatch(f"{source}: params {list(params)} do not match "
                            f"{model.variant_id} spec {list(expected)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ShapeMismatch(
                f"{source}: param {name!r} has shape {params[name].shape}, spec {shape}")


class BundleRunner:
    """The one inference path for a bundle: builds its variant and widens
    the stored float32 weights to float64 once, then runs forward passes.

    The widened weights are plain ndarrays, which nncore treats as
    constants: a backward pass forms no weight gradient and leaves no state
    in the runner. Their shapes are checked here, once, for all passes."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.model = build_variant(bundle.variant_id)
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in bundle.params.items()}
        _check_params(self.model, self.params, f"bundle {bundle.variant_id}")

    def predict(self, batch: np.ndarray) -> tuple[np.ndarray, dict]:
        pred, aux = self.model.forward(self.params, Tensor(batch), tape=None, train=False)
        return pred.data.copy(), aux

    def begin(self, batch: np.ndarray):
        """The model's work on all but the last window of each row (see
        ForecastModel.begin); the last window is read but does not count."""
        return self.model.begin(self.params, Tensor(batch))

    def finish(self, begun, batch: np.ndarray) -> tuple[np.ndarray, dict]:
        """predict(batch), bit for bit, given begun = begin(batch') for a
        batch' that equals batch except in each row's last window."""
        pred, aux = self.model.finish(self.params, begun, Tensor(batch))
        return pred.data.copy(), aux

    def input_gradients(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's prediction and its gradient with respect to that row's
        input, shaped like the batch, from one taped forward pass."""
        tape = Tape()
        x = Tensor(batch)
        pred, _ = self.model.forward(self.params, x, tape, train=False)
        nc.backward(tape, nc.reduce_sum(tape, pred))
        return pred.data, x.grad
