"""Op-by-op references for the fused nncore kernels and the scaler.

The elementwise product, the axis permutation, tanh, softmax and the layer
norm are tape primitives kept here only to spell out the fused ops one
operation at a time, the way the models ran them before they were fused.
Tests compare nncore.encoder_block against encoder_block_reference, and
nncore.additive_attention against additive_attention_reference, the nine
primitive ops the recurrent models ran before the head was fused.
scale_features_reference and inverse_target_reference are the scaler's
formulas with nothing derived ahead, all in float64 arrays; the pipeline's
functions must give their bits.
"""

import numpy as np

from qoecast import nncore as nc
from qoecast.errors import ShapeMismatch
from qoecast.nncore import Tape, Tensor
from qoecast.pipeline import QOE_FEATURE
from qoecast.zoo import _dense


def mul(tape: Tape | None, a: Tensor, b) -> Tensor:
    """Elementwise a * b with numpy broadcasting; b may be a constant."""
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    try:
        out = Tensor(a.data * bd)
    except ValueError:
        raise ShapeMismatch(f"mul: cannot broadcast {a.data.shape} with {bd.shape}") from None
    if tape is not None:
        ad = a.data
        def _back():
            nc._accum(a, nc._reduce_to(out.grad * bd, a.data.shape))
            if isinstance(b, Tensor):
                nc._accum(b, nc._reduce_to(out.grad * ad, b.data.shape))
        tape.record(_back)
    return out


def transpose(tape: Tape | None, x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    if tape is not None:
        inverse = tuple(np.argsort(axes))
        def _back():
            nc._accum(x, np.transpose(out.grad, inverse))
        tape.record(_back)
    return out


def tanh(tape: Tape | None, x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    if tape is not None:
        def _back():
            nc._accum(x, out.grad * (1.0 - y * y))
        tape.record(_back)
    return out


def softmax(tape: Tape | None, x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y)
    if tape is not None:
        def _back():
            g = out.grad
            inner = np.sum(g * y, axis=axis, keepdims=True)
            nc._accum(x, y * (g - inner))
        tape.record(_back)
    return out


def layer_norm(tape: Tape | None, x: Tensor, eps: float = nc.LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.var(x.data, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = Tensor(y)
    if tape is not None:
        def _back():
            g = out.grad
            gm = np.mean(g, axis=-1, keepdims=True)
            gy = np.mean(g * y, axis=-1, keepdims=True)
            nc._accum(x, inv * (g - gm - y * gy))
        tape.record(_back)
    return out


def encoder_block_reference(tape, x, params, heads, dropout_rate, train=False, rng=None):
    """The post-norm block of nncore.encoder_block, one tape op at a time."""
    B, T, d = x.data.shape
    hd = d // heads

    def split_heads(t):
        t = nc.reshape(tape, t, (B, T, heads, hd))
        t = transpose(tape, t, (0, 2, 1, 3))
        return nc.reshape(tape, t, (B * heads, T, hd))

    q = split_heads(_dense(tape, params, "wq", x))
    k = split_heads(_dense(tape, params, "wk", x))
    v = split_heads(_dense(tape, params, "wv", x))
    scores = mul(tape, nc.matmul(tape, q, transpose(tape, k, (0, 2, 1))), 1.0 / np.sqrt(hd))
    weights = softmax(tape, scores, axis=2)
    att = nc.matmul(tape, weights, v)
    att = nc.reshape(tape, att, (B, heads, T, hd))
    att = transpose(tape, att, (0, 2, 1, 3))
    att = nc.reshape(tape, att, (B, T, d))
    att = _dense(tape, params, "wo", att)
    att = nc.dropout(tape, att, dropout_rate, train, rng)

    h = nc.add(tape, x, att)
    h = nc.add(tape, mul(tape, layer_norm(tape, h), params["ln1_gamma"]), params["ln1_beta"])

    ff = _dense(tape, params, "ffn2", nc.relu(tape, _dense(tape, params, "ffn1", h)))
    ff = nc.dropout(tape, ff, dropout_rate, train, rng)
    h = nc.add(tape, h, ff)
    h = nc.add(tape, mul(tape, layer_norm(tape, h), params["ln2_gamma"]), params["ln2_beta"])
    return h, weights.data.reshape(B, heads, T, T)


def additive_attention_reference(tape, seq, W, b, v):
    """nncore.additive_attention as the primitive ops the recurrent models ran."""
    B, T, u = seq.data.shape
    e = tanh(tape, nc.add(tape, nc.matmul(tape, seq, W), b))
    scores = nc.matmul(tape, e, v)
    alpha = softmax(tape, nc.reshape(tape, scores, (B, T)), axis=1)
    ctx = nc.matmul(tape, nc.reshape(tape, alpha, (B, 1, T)), seq)
    return nc.reshape(tape, ctx, (B, u)), alpha.data


def scale_features_reference(stats, raw):
    """pipeline.scale_features with the mask and span formed on each call."""
    raw = np.asarray(raw, dtype=np.float64)
    degenerate = stats.maxs == stats.mins
    span = np.where(degenerate, 1.0, stats.maxs - stats.mins)
    scaled = (raw - stats.mins) / span
    return np.where(degenerate, 0.0, scaled)


def inverse_target_reference(stats, scaled):
    """pipeline.inverse_target with every input, a float too, as an array."""
    lo, hi = stats.mins[QOE_FEATURE], stats.maxs[QOE_FEATURE]
    if hi == lo:
        return np.zeros_like(np.asarray(scaled, dtype=np.float64)) + lo
    return lo + np.asarray(scaled, dtype=np.float64) * (hi - lo)
