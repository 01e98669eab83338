import ctypes
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qoecast import nncore
from qoecast.errors import NonScalarOutput, ShapeMismatch, TapeConsumed
from qoecast.nncore import (
    _sigmoid,
    ENCODER_PARAMS,
    ParamSpec,
    Tape,
    Tensor,
    add,
    additive_attention,
    backward,
    dropout,
    elu,
    encoder_block,
    glorot_uniform,
    gru_layer,
    init_params,
    lstm_layer,
    matmul,
    orthogonal,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
)
# the elementwise product, axis permutation, tanh, softmax and layer norm are
# the op-by-op reference's primitives; their gradient tests below certify
# that reference
from op_reference import (
    additive_attention_reference,
    encoder_block_reference,
    layer_norm,
    mul,
    softmax,
    tanh,
    transpose,
)
from oracles import gradient_check

EPS = 1e-5
TOL = 1e-6


def _fd_check(fn, *arrays):
    """Backprop through fn and compare every input gradient against a full
    central finite difference. fn(tape, *tensors) must return a scalar."""
    tensors = [Tensor(a) for a in arrays]
    tape = Tape()
    backward(tape, fn(tape, *tensors))
    for t, a in zip(tensors, arrays):
        flat = a.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPS
            f_plus = float(fn(None, *[Tensor(x) for x in arrays]).data)
            flat[i] = orig - EPS
            f_minus = float(fn(None, *[Tensor(x) for x in arrays]).data)
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2 * EPS)
        analytic = (t.grad if t.grad is not None else np.zeros_like(a)).reshape(-1)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert err.max() < TOL, f"max rel err {err.max():.3e}"


def _weighted_sum(tape, t, w):
    return reduce_sum(tape, mul(tape, t, w))


class TestPrimitiveGradients:
    def test_add_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        w = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x, y: _weighted_sum(tp, add(tp, x, y), w), a, b)

    def test_add_keepdims_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((1, 4))
        w = rng.standard_normal((3, 4))
        tape = Tape()
        ta, tb = Tensor(a), Tensor(b)
        backward(tape, _weighted_sum(tape, add(tape, ta, tb), w))
        assert tb.grad.shape == (1, 4)  # broadcast axes summed, kept dims kept
        _fd_check(lambda tp, x, y: _weighted_sum(tp, add(tp, x, y), w), a, b)

    def test_mul_broadcast(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3,))
        w = rng.standard_normal((2, 3))
        _fd_check(lambda tp, x, y: _weighted_sum(tp, mul(tp, x, y), w), a, b)

    def test_matmul(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        w = rng.standard_normal((3, 2))
        _fd_check(lambda tp, x, y: _weighted_sum(tp, matmul(tp, x, y), w), a, b)

    def test_matmul_batched_shared_operand(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))  # shared across the batch
        w = rng.standard_normal((2, 3, 5))
        _fd_check(lambda tp, x, y: _weighted_sum(tp, matmul(tp, x, y), w), a, b)

    @pytest.mark.parametrize("lead", [(7,), (32, 5), (2, 3, 4)])
    def test_matmul_folded_equals_per_sample_reduction(self, lead, rng):
        # an N-D x 2-D product runs as one 2-D product; forward and both
        # gradients equal the stacked np.matmul form with the weight
        # gradient summed from per-sample products
        a = rng.standard_normal(lead + (6,))
        b = rng.standard_normal((6, 9))
        g = rng.standard_normal(lead + (9,))
        ta, tb = Tensor(a), Tensor(b)
        tape = Tape()
        out = matmul(tape, ta, tb)
        out.grad = g
        tape._ops[0]()
        per_sample = np.matmul(np.swapaxes(a, -1, -2), g)
        while per_sample.ndim > 2:
            per_sample = per_sample.sum(axis=0)
        assert np.max(np.abs(out.data - np.matmul(a, b))) <= 1e-12
        assert np.max(np.abs(ta.grad - np.matmul(g, b.T))) <= 1e-12
        assert np.max(np.abs(tb.grad - per_sample)) <= 1e-12

    def test_reshape(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((2, 6))
        _fd_check(lambda tp, x: _weighted_sum(tp, reshape(tp, x, (2, 6)), w), a)

    def test_transpose(self, rng):
        a = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((3, 4, 2))
        _fd_check(lambda tp, x: _weighted_sum(tp, transpose(tp, x, (1, 2, 0)), w), a)

    def test_reduce_mean_axis(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((4,))
        _fd_check(lambda tp, x: _weighted_sum(tp, reduce_mean(tp, x, axis=0), w), a)

    def test_reduce_mean_all(self, rng):
        a = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x: reduce_mean(tp, x), a)

    def test_reduce_sum_keepdims(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 1))
        _fd_check(lambda tp, x: _weighted_sum(tp, reduce_sum(tp, x, axis=1, keepdims=True), w), a)

    def test_tanh(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x: _weighted_sum(tp, tanh(tp, x), w), a)

    def test_relu_away_from_kink(self, rng):
        a = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        w = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x: _weighted_sum(tp, relu(tp, x), w), a)

    def test_elu(self, rng):
        a = rng.uniform(0.2, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        w = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x: _weighted_sum(tp, elu(tp, x), w), a)

    def test_softmax(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        _fd_check(lambda tp, x: _weighted_sum(tp, softmax(tp, x), w), a)

    def test_layer_norm(self, rng):
        a = rng.standard_normal((3, 6)) * 3 + 1
        w = rng.standard_normal((3, 6))
        _fd_check(lambda tp, x: _weighted_sum(tp, layer_norm(tp, x), w), a)

    def test_tensor_reused_twice_accumulates(self, rng):
        a = rng.standard_normal((3, 3))
        _fd_check(lambda tp, x: reduce_sum(tp, mul(tp, x, x)), a)

    def test_first_contribution_is_copied(self, rng):
        # the first gradient is stored as a copy, so a later += cannot
        # write through into an upstream array
        g = rng.standard_normal(3)
        g0 = g.copy()
        t = Tensor(np.zeros(3))
        nncore._accum(t, g)
        nncore._accum(t, g)
        assert t.grad is not g
        assert np.array_equal(t.grad, 2.0 * g0) and np.array_equal(g, g0)


class TestTapeDiscipline:
    def test_tape_single_use(self):
        x = Tensor([1.0, 2.0])
        tape = Tape()
        out = reduce_sum(tape, x)
        backward(tape, out)
        with pytest.raises(TapeConsumed):
            backward(tape, out)

    def test_non_scalar_output_rejected(self):
        x = Tensor([[1.0, 2.0]])
        tape = Tape()
        out = mul(tape, x, 2.0)
        with pytest.raises(NonScalarOutput):
            backward(tape, out)

    def test_tape_none_records_nothing(self):
        tape = Tape()
        mul(None, Tensor([1.0]), 2.0)
        assert len(tape) == 0
        mul(tape, Tensor([1.0]), 2.0)
        assert len(tape) == 1


class TestShapeErrors:
    def test_matmul_inner_dim(self):
        with pytest.raises(ShapeMismatch):
            matmul(None, Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_matmul_needs_2d(self):
        with pytest.raises(ShapeMismatch):
            matmul(None, Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_add_incompatible(self):
        with pytest.raises(ShapeMismatch):
            add(None, Tensor(np.ones((2, 3))), np.ones((4,)))

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeMismatch):
            reshape(None, Tensor(np.ones((2, 3))), (4, 2))


class TestNonlinearityValues:
    def test_sigmoid_no_overflow(self):
        y = _sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert y == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        y = softmax(None, x).data
        assert np.sum(y, axis=-1) == pytest.approx(np.ones(5), abs=1e-12)
        assert np.all(y > 0)

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal((3, 4))
        a = softmax(None, Tensor(x)).data
        b = softmax(None, Tensor(x + 100.0)).data
        assert a == pytest.approx(b, abs=1e-12)

    def test_layer_norm_standardizes(self, rng):
        x = Tensor(rng.standard_normal((4, 8)) * 5 + 3)
        y = layer_norm(None, x).data
        assert np.mean(y, axis=-1) == pytest.approx(np.zeros(4), abs=1e-9)
        assert np.var(y, axis=-1) == pytest.approx(np.ones(4), abs=1e-4)

    def test_elu_continuous_at_zero(self):
        y = elu(None, Tensor([-1e-9, 0.0, 1e-9])).data
        assert abs(y[0] - y[2]) < 1e-8


class TestDropout:
    def test_eval_mode_is_identity_object(self):
        x = Tensor([1.0, 2.0])
        assert dropout(None, x, 0.5, train=False) is x
        assert dropout(None, x, 0.0, train=True) is x

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(10000))
        y = dropout(None, x, 0.25, train=True, rng=rng).data
        kept = y != 0.0
        assert np.mean(kept) == pytest.approx(0.75, abs=0.02)
        assert np.unique(y[kept]) == pytest.approx([1.0 / 0.75])

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError):
            dropout(None, Tensor([1.0]), 0.5, train=True)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            dropout(None, Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))

    def test_backward_matches_mask(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(64))
        tape = Tape()
        y = dropout(tape, x, 0.5, train=True, rng=rng)
        mask = (y.data != 0.0).astype(float)
        backward(tape, reduce_sum(tape, y))
        assert x.grad == pytest.approx(mask * 2.0)


class TestInit:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        arr = glorot_uniform(rng, (30, 20))
        limit = np.sqrt(6.0 / 50)
        assert np.all(np.abs(arr) <= limit)
        assert np.abs(arr).max() > 0.8 * limit  # actually fills the range

    def test_orthogonal_is_orthogonal(self):
        for seed in range(5):
            q = orthogonal(np.random.default_rng(seed), 16)
            assert q.T @ q == pytest.approx(np.eye(16), abs=1e-10)

    def test_orthogonal_blocks(self):
        params = init_params([ParamSpec("r", (8, 24), "orthogonal_blocks")], seed=3)
        r = params["r"]
        for k in range(3):
            blk = r[:, 8 * k : 8 * (k + 1)]
            assert blk.T @ blk == pytest.approx(np.eye(8), abs=1e-10)

    def test_orthogonal_blocks_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            init_params([ParamSpec("r", (8, 20), "orthogonal_blocks")], seed=0)

    def test_lstm_bias_opens_forget_gate(self):
        params = init_params([ParamSpec("b", (16,), "lstm_bias")], seed=0)
        b = params["b"]
        assert np.all(b[4:8] == 1.0)
        assert np.all(b[:4] == 0.0) and np.all(b[8:] == 0.0)

    def test_zeros_and_ones(self):
        params = init_params([ParamSpec("z", (3,), "zeros"), ParamSpec("o", (3,), "ones")], seed=0)
        assert np.all(params["z"] == 0.0) and np.all(params["o"] == 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            init_params([ParamSpec("x", (2, 2), "gaussian")], seed=0)

    def test_deterministic_per_seed(self):
        specs = [ParamSpec("w", (6, 8), "glorot"), ParamSpec("r", (8, 16), "orthogonal_blocks")]
        a = init_params(specs, seed=11)
        b = init_params(specs, seed=11)
        c = init_params(specs, seed=12)
        for k in a:
            assert np.array_equal(a[k], b[k])
        assert not np.array_equal(a["w"], c["w"])


def _assert_few_excluded(rep):
    """At most 1 % of the probed coordinates excluded as non-smooth, the
    share criterion 1 allows in aggregate."""
    assert rep.nonsmooth_entries <= 0.01 * rep.probed_entries, \
        (rep.nonsmooth_entries, rep.probed_entries)


class TestGradientCheck:
    @staticmethod
    def _linear(params, x, tape):
        h = matmul(tape, x, params["w"])
        h = add(tape, h, params["b"])
        return reduce_mean(tape, tanh(tape, h))

    def test_correct_model_passes(self, rng):
        params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
        rep = gradient_check(self._linear, params, rng.standard_normal((5, 4)))
        assert rep.passed
        _assert_few_excluded(rep)
        assert rep.max_rel_err < 1e-7
        assert set(rep.per_tensor) == {"w", "b", "__inputs__"}

    def test_broken_gradient_caught(self, rng):
        # forward value is doubled after recording, so the taped gradient
        # disagrees with finite differences by a factor of two
        def bad(params, x, tape):
            y = mul(tape, params["w"], 3.0)
            y.data = y.data * 2.0
            return reduce_sum(tape, y)

        rep = gradient_check(bad, {"w": rng.standard_normal(4)}, np.zeros(1))
        assert not rep.passed
        _assert_few_excluded(rep)
        assert rep.max_rel_err > 0.4

    def test_subset_counts(self, rng):
        params = {"w": rng.standard_normal((10, 10))}
        rep = gradient_check(
            lambda p, x, tape: reduce_mean(tape, matmul(tape, x, p["w"])),
            params, rng.standard_normal((2, 10)), max_entries=7)
        assert rep.checked_entries == 7 + 7  # both tensors subsampled
        _assert_few_excluded(rep)


# ---------------------------------------------------------- recurrent layers

def _logistic(v):
    return 1.0 / (1.0 + np.exp(-v))


def _gru_reference(x, W, U, b):
    """Step-by-step GRU, gates z|r|h, written out one gate at a time."""
    B, T, _ = x.shape
    u = U.shape[0]
    h = np.zeros((B, u))
    out = np.empty((B, T, u))
    for t in range(T):
        gx = x[:, t] @ W + b
        z = _logistic(gx[:, :u] + h @ U[:, :u])
        r = _logistic(gx[:, u : 2 * u] + h @ U[:, u : 2 * u])
        cand = np.tanh(gx[:, 2 * u :] + (r * h) @ U[:, 2 * u :])
        h = (1.0 - z) * h + z * cand
        out[:, t] = h
    return out


def _lstm_reference(x, W, U, b):
    """Step-by-step LSTM, gates i|f|g|o, written out one gate at a time."""
    B, T, _ = x.shape
    u = U.shape[0]
    h = np.zeros((B, u))
    c = np.zeros((B, u))
    out = np.empty((B, T, u))
    for t in range(T):
        pre = x[:, t] @ W + h @ U + b
        i = _logistic(pre[:, :u])
        f = _logistic(pre[:, u : 2 * u])
        g = np.tanh(pre[:, 2 * u : 3 * u])
        o = _logistic(pre[:, 3 * u :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


LAYERS = {"gru": (gru_layer, _gru_reference, 3), "lstm": (lstm_layer, _lstm_reference, 4)}


def _layer_params(rng, gates, d, units, n_layers=1):
    params = {}
    for li in range(n_layers):
        params[f"W{li}"] = rng.standard_normal((d, gates * units)) * 0.5
        params[f"U{li}"] = rng.standard_normal((units, gates * units)) * 0.5
        params[f"b{li}"] = rng.standard_normal(gates * units) * 0.1
        d = units
    return params


class TestRecurrentLayers:
    @pytest.mark.parametrize("cell", sorted(LAYERS))
    def test_forward_matches_stepwise_reference(self, cell, rng):
        layer, reference, gates = LAYERS[cell]
        p = _layer_params(rng, gates, d=6, units=8)
        x = rng.standard_normal((7, 5, 6))
        got = layer(None, Tensor(x), Tensor(p["W0"]), Tensor(p["U0"]), Tensor(p["b0"])).data
        want = reference(x, p["W0"], p["U0"], p["b0"])
        assert got.shape == (7, 5, 8)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("cell", sorted(LAYERS))
    @pytest.mark.parametrize("batch", [2, 32])
    def test_gradient_check_two_stacked_layers(self, cell, batch, rng):
        layer = LAYERS[cell][0]
        params = _layer_params(rng, LAYERS[cell][2], d=3, units=4, n_layers=2)
        head = rng.standard_normal((batch, 5, 4))

        def forward(p, x, tape):
            h = layer(tape, x, p["W0"], p["U0"], p["b0"])
            h = layer(tape, h, p["W1"], p["U1"], p["b1"])
            return reduce_sum(tape, mul(tape, h, head))

        rep = gradient_check(forward, params, rng.standard_normal((batch, 5, 3)))
        assert rep.passed, rep.per_tensor
        _assert_few_excluded(rep)
        assert set(rep.per_tensor) == set(params) | {"__inputs__"}
        assert rep.checked_entries >= 0.9 * (sum(a.size for a in params.values())
                                             + min(batch * 15, 256))

    @pytest.mark.parametrize("cell", sorted(LAYERS))
    def test_records_one_op_and_nothing_without_tape(self, cell, rng):
        layer, _, gates = LAYERS[cell]
        p = {k: Tensor(v) for k, v in _layer_params(rng, gates, d=3, units=4).items()}
        x = Tensor(rng.standard_normal((2, 5, 3)))
        tape = Tape()
        inference = layer(None, x, p["W0"], p["U0"], p["b0"])
        assert len(tape) == 0
        recorded = layer(tape, x, p["W0"], p["U0"], p["b0"])
        assert len(tape) == 1
        assert np.array_equal(inference.data, recorded.data)

    @pytest.mark.parametrize("cell", sorted(LAYERS))
    def test_shapes_checked(self, cell, rng):
        layer, _, gates = LAYERS[cell]
        p = {k: Tensor(v) for k, v in _layer_params(rng, gates, d=3, units=4).items()}
        with pytest.raises(ShapeMismatch):
            layer(None, Tensor(np.ones((2, 5, 4))), p["W0"], p["U0"], p["b0"])
        with pytest.raises(ShapeMismatch):
            layer(None, Tensor(np.ones((2, 3))), p["W0"], p["U0"], p["b0"])
        with pytest.raises(ShapeMismatch):
            layer(None, Tensor(np.ones((2, 0, 3))), p["W0"], p["U0"], p["b0"])
        with pytest.raises(ShapeMismatch):
            layer(None, Tensor(np.ones((2, 5, 3))), p["W0"], p["U0"], Tensor(np.ones(3)))


# -------------------------------------------------------- additive attention

ATTENTION_PARAMS = ("W", "b", "v")


def _attention_params(rng, units=8, width=16):
    return {"W": rng.standard_normal((units, width)) * 0.5,
            "b": rng.standard_normal(width) * 0.1,
            "v": rng.standard_normal((width, 1)) * 0.5}


def _run_attention(op, params, seq, head_w):
    """Forward, then backward of sum(ctx * head_w); returns ctx, alpha and
    the gradients of the sequence and of every weight."""
    pt = {k: Tensor(v.copy()) for k, v in params.items()}
    st = Tensor(seq.copy())
    tape = Tape()
    ctx, alpha = op(tape, st, pt["W"], pt["b"], pt["v"])
    backward(tape, reduce_sum(tape, mul(tape, ctx, head_w)))
    grads = {k: t.grad for k, t in pt.items()}
    grads["__inputs__"] = st.grad
    return ctx.data, alpha, grads


class TestAdditiveAttention:
    @pytest.mark.parametrize("batch", [1, 32])
    def test_gradient_check(self, batch, rng):
        params = _attention_params(rng)
        head_w = rng.standard_normal((batch, 8))

        def forward(p, x, tape):
            ctx, _ = additive_attention(tape, x, p["W"], p["b"], p["v"])
            return reduce_sum(tape, mul(tape, ctx, head_w))

        rep = gradient_check(forward, params, rng.standard_normal((batch, 5, 8)),
                             max_entries=None)
        assert rep.passed, rep.per_tensor
        assert set(rep.per_tensor) == set(ATTENTION_PARAMS) | {"__inputs__"}
        _assert_few_excluded(rep)

    @pytest.mark.parametrize("batch", [1, 2, 66])
    def test_matches_primitive_ops_bitwise(self, batch, rng):
        # the recurrent models' head at its real size: 32 units, width 128
        params = _attention_params(rng, units=32, width=128)
        seq = rng.standard_normal((batch, 5, 32))
        head_w = rng.standard_normal((batch, 32))
        got = _run_attention(additive_attention, params, seq, head_w)
        want = _run_attention(additive_attention_reference, params, seq, head_w)
        assert np.array_equal(got[0], want[0])
        assert got[1].shape == (batch, 5)
        assert np.array_equal(got[1], want[1])
        assert set(got[2]) == set(want[2]) == set(ATTENTION_PARAMS) | {"__inputs__"}
        for name, g in want[2].items():
            assert np.array_equal(got[2][name], g), name

    def test_records_one_op_and_nothing_without_tape(self, rng):
        p = {k: Tensor(v) for k, v in _attention_params(rng).items()}
        seq = Tensor(rng.standard_normal((3, 5, 8)))
        tape = Tape()
        inference, alpha = additive_attention(None, seq, p["W"], p["b"], p["v"])
        assert len(tape) == 0
        recorded, alpha_taped = additive_attention(tape, seq, p["W"], p["b"], p["v"])
        assert len(tape) == 1
        assert np.array_equal(inference.data, recorded.data)
        assert np.array_equal(alpha, alpha_taped)
        assert np.sum(alpha, axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    def test_shapes_checked(self, rng):
        p = _attention_params(rng)
        seq = Tensor(np.ones((2, 5, 8)))
        for bad in (dict(p, W=np.ones((7, 16))), dict(p, b=np.ones(15)),
                    dict(p, v=np.ones((16, 2))), dict(p, v=np.ones(16))):
            with pytest.raises(ShapeMismatch):
                additive_attention(None, seq, bad["W"], bad["b"], bad["v"])
        with pytest.raises(ShapeMismatch):
            additive_attention(None, Tensor(np.ones((2, 8))), p["W"], p["b"], p["v"])


# ------------------------------------------------------ constant weights
#
# An ndarray weight is a constant: the op forms and stores no gradient for
# it, and the input gradient is the same bits as with a Tensor weight.

def _input_grad(op, x, weights, as_tensors):
    """Input gradient of sum(op(x, *weights) * head), head fixed by seed."""
    ws = [Tensor(w.copy()) if as_tensors else w.copy() for w in weights]
    xt = Tensor(x.copy())
    tape = Tape()
    out = op(tape, xt, *ws)
    head = np.random.default_rng(7).standard_normal(out.data.shape)
    backward(tape, reduce_sum(tape, mul(tape, out, head)))
    return xt.grad, ws


def _encoder(tape, x, *weights):
    out, _ = encoder_block(tape, x, dict(zip(ENCODER_PARAMS, weights)), 2, 0.1)
    return out


def _attention(tape, x, W, b, v):
    return additive_attention(tape, x, W, b, v)[0]


def _constant_weight_cases(rng):
    rec = _layer_params(rng, 3, d=6, units=8)
    lstm = _layer_params(rng, 4, d=6, units=8)
    enc = _encoder_params(rng)
    att = _attention_params(rng)
    return {
        "matmul": (matmul, rng.standard_normal((4, 5, 6)), [rng.standard_normal((6, 3))]),
        "matmul_batched": (matmul, rng.standard_normal((4, 2, 6)),
                           [rng.standard_normal((4, 6, 3))]),
        "add": (add, rng.standard_normal((4, 5, 6)), [rng.standard_normal(6)]),
        "gru_layer": (gru_layer, rng.standard_normal((4, 5, 6)),
                      [rec["W0"], rec["U0"], rec["b0"]]),
        "lstm_layer": (lstm_layer, rng.standard_normal((4, 5, 6)),
                       [lstm["W0"], lstm["U0"], lstm["b0"]]),
        "additive_attention": (_attention, rng.standard_normal((4, 5, 8)),
                               [att[k] for k in ATTENTION_PARAMS]),
        "encoder_block": (_encoder, rng.standard_normal((4, 5, 32)),
                          [enc[k] for k in ENCODER_PARAMS]),
    }


CONSTANT_WEIGHT_OPS = ("matmul", "matmul_batched", "add", "gru_layer", "lstm_layer",
                       "additive_attention", "encoder_block")


@pytest.mark.parametrize("name", CONSTANT_WEIGHT_OPS)
def test_ndarray_weights_are_constants(name, rng):
    op, x, weights = _constant_weight_cases(rng)[name]
    learned, tensors = _input_grad(op, x, weights, as_tensors=True)
    fixed, arrays = _input_grad(op, x, weights, as_tensors=False)
    assert np.array_equal(fixed, learned)
    assert all(t.grad is not None for t in tensors)
    # the constants come back untouched and still plain arrays
    assert all(type(a) is np.ndarray and np.array_equal(a, w)
               for a, w in zip(arrays, weights))


# ------------------------------------------------------------- encoder block

def _encoder_params(rng, d=32, ff=64):
    params = {}
    for name in ENCODER_PARAMS:
        if name == "ffn1_kernel":
            shape = (d, ff)
        elif name == "ffn2_kernel":
            shape = (ff, d)
        elif name == "ffn1_bias":
            shape = (ff,)
        else:
            shape = (d, d) if name.endswith("_kernel") else (d,)
        base = 1.0 if name.endswith("_gamma") else 0.0
        params[name] = base + rng.standard_normal(shape) * (0.3 if len(shape) == 2 else 0.1)
    return params


def _run_block(block, params, x, heads, head_w, rate=0.1, train=True, seed=5):
    """Forward in train mode, then backward of sum(out * head_w)."""
    pt = {k: Tensor(v.copy()) for k, v in params.items()}
    xt = Tensor(x.copy())
    tape = Tape()
    out, att = block(tape, xt, pt, heads, rate, train, np.random.default_rng(seed))
    backward(tape, reduce_sum(tape, mul(tape, out, head_w)))
    grads = {k: t.grad for k, t in pt.items()}
    grads["__inputs__"] = xt.grad
    return out.data, att, grads


class TestEncoderBlock:
    @pytest.mark.parametrize("batch", [1, 2, 32])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("ff", [64, 128])
    def test_gradient_check(self, batch, heads, ff, rng):
        params = _encoder_params(rng, ff=ff)
        head_w = rng.standard_normal((batch, 5, 32))

        def forward(p, x, tape):
            # a fresh rng per call: every evaluation draws the same masks
            out, _ = encoder_block(tape, x, p, heads, 0.1, True, np.random.default_rng(3))
            return reduce_sum(tape, mul(tape, out, head_w))

        # at eps=1e-4 the widest case's curvature fails the smoothness test
        # on a sixth of its coordinates; 1e-5 resolves it
        rep = gradient_check(forward, params, rng.standard_normal((batch, 5, 32)),
                             eps=1e-5, max_entries=48, seed=batch)
        assert rep.passed, rep.per_tensor
        assert set(rep.per_tensor) == set(ENCODER_PARAMS) | {"__inputs__"}
        _assert_few_excluded(rep)

    @pytest.mark.parametrize("heads,ff,rate,train", [
        (2, 64, 0.1, True), (4, 64, 0.1, True), (2, 128, 0.05, True), (4, 128, 0.1, False)])
    def test_matches_op_by_op_reference(self, heads, ff, rate, train, rng):
        params = _encoder_params(rng, ff=ff)
        x = rng.standard_normal((32, 5, 32))
        head_w = rng.standard_normal((32, 5, 32))
        got = _run_block(encoder_block, params, x, heads, head_w, rate, train)
        want = _run_block(encoder_block_reference, params, x, heads, head_w, rate, train)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-12
        assert got[1].shape == (32, heads, 5, 5)
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12
        assert set(got[2]) == set(want[2])
        for name, g in want[2].items():
            assert np.max(np.abs(got[2][name] - g)) <= 1e-12 * max(1.0, np.abs(g).max()), name

    def test_eval_mode_draws_no_masks(self, rng):
        pt = {k: Tensor(v) for k, v in _encoder_params(rng).items()}
        r = np.random.default_rng(9)
        encoder_block(None, Tensor(rng.standard_normal((4, 5, 32))), pt, 2, 0.3, False, r)
        assert r.random() == np.random.default_rng(9).random()

    def test_records_one_op_and_nothing_without_tape(self, rng):
        pt = {k: Tensor(v) for k, v in _encoder_params(rng).items()}
        x = Tensor(rng.standard_normal((2, 5, 32)))
        tape = Tape()
        inference, att = encoder_block(None, x, pt, 4, 0.1)
        assert len(tape) == 0
        recorded, att_taped = encoder_block(tape, x, pt, 4, 0.1)
        assert len(tape) == 1
        assert np.array_equal(inference.data, recorded.data)
        assert np.array_equal(att, att_taped)
        assert np.sum(att, axis=-1) == pytest.approx(np.ones((2, 4, 5)), abs=1e-12)

    def test_shapes_checked(self, rng):
        params = _encoder_params(rng)
        pt = {k: Tensor(v) for k, v in params.items()}
        with pytest.raises(ShapeMismatch):
            encoder_block(None, Tensor(np.ones((2, 32))), pt, 2, 0.1)
        with pytest.raises(ShapeMismatch):
            encoder_block(None, Tensor(np.ones((2, 5, 16))), pt, 2, 0.1)
        with pytest.raises(ShapeMismatch):
            encoder_block(None, Tensor(np.ones((2, 5, 32))), pt, 3, 0.1)
        for name in ("wk_kernel", "ffn2_kernel", "ffn1_bias", "ln2_beta"):
            bad = dict(pt, **{name: Tensor(np.ones(params[name].shape[:-1] + (7,)))})
            with pytest.raises(ShapeMismatch):
                encoder_block(None, Tensor(np.ones((2, 5, 32))), bad, 2, 0.1)


# --------------------------------------------------------------- heap policy

# Each round allocates and frees eight ~1 MiB arrays, which would sit below
# a threshold that glibc raised after freeing the first mapped one; their
# sum then exceeds the dynamic trim threshold, so under glibc's default
# policy every round hands the pages back and faults them in again (about
# 2,000 faults a round). Under the fixed policy only the first round faults.
_HEAP_LOOP = textwrap.dedent("""
    import resource, sys
    import numpy as np
    import qoecast.nncore
    def rounds(n):
        for _ in range(n):
            arrays = [np.ones(130_000 + 64 * i) for i in range(8)]
            del arrays
    rounds(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds(40)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
    def test_freed_temporaries_do_not_fault_again(self):
        src = str(Path(nncore.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _HEAP_LOOP], capture_output=True,
                              text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        faults = int(proc.stdout.strip())
        # one round under the default policy faults about 2,000 pages
        assert faults < 1000, faults

    def test_policy_is_a_noop_without_a_loader(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no shared-library loader")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert nncore._set_heap_policy() is False
