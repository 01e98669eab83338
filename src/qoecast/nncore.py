"""Dense float64 tensors with tape-based reverse-mode differentiation.

Primitives compute their forward value eagerly with numpy and, when a Tape
is passed, push a backward closure onto it. backward() replays the closures
in exact reverse recording order; because operations are recorded in
execution order, that reversal is a valid topological order of the graph.
Passing tape=None runs the same math with zero recording overhead, which is
what inference and finite differencing use.

All internal math is 64-bit. Gradients accumulate into Tensor.grad, so a
tensor used several times receives the sum of its downstream contributions.

Every weight argument (of matmul, add, the fused GRU, LSTM, additive
attention and encoder ops) takes a Tensor or a plain ndarray. An ndarray
weight is a constant: its op forms no gradient product for it and
accumulates nothing into it, while the input gradient is the same bits as
with a Tensor weight. Training passes Tensors; a zoo.BundleRunner passes
its widened weights as ndarrays, so explanations pay only for the input
gradients they read.

Importing this module fixes the process heap policy on glibc (see
_set_heap_policy).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NonScalarOutput, ShapeMismatch, TapeConsumed

LAYER_NORM_EPS = 1e-5
ELU_ALPHA = 1.0

# glibc mallopt parameters (malloc.h) and the values set once at import
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def _set_heap_policy() -> bool:
    """Keep freed numpy temporaries in the heap; True when the policy is set.

    A training step allocates and frees arrays of 0.1-3 MiB dozens of times.
    Under glibc's default policy each one above the mmap threshold (128 KiB,
    raised only after a mapped block is freed) is mapped and unmapped, and
    a heap top above the trim threshold is handed back to the kernel, so
    every step faults its pages in again. Measured on the 18 fits of
    `train --all` on the seed-1 desk corpus (one BLAS thread, 2 vCPUs):
    499k minor faults, 1.0 s of system time and 9.6-10.3 s in all under the
    default policy; 4k faults, 0.02 s and 8.5-9.1 s with these thresholds.
    Fixed thresholds also switch off glibc's dynamic adjustment, so the
    policy does not depend on which block happened to be freed first.
    Elsewhere (no glibc, or no ctypes loader) this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # noqa: B018 - present on glibc only
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD))


_set_heap_policy()


class Tensor:
    """A float64 ndarray plus a gradient buffer of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of backward closures for one forward pass.

    A tape is single-use: after backward() it refuses further traversal
    until a fresh forward pass records a new one.
    """

    __slots__ = ("_ops", "_consumed")

    def __init__(self):
        self._ops: list[Callable[[], None]] = []
        self._consumed = False

    def record(self, op: Callable[[], None]) -> None:
        self._ops.append(op)

    def __len__(self):
        return len(self._ops)


def backward(tape: Tape, output: Tensor) -> None:
    """Populate .grad for every tensor that fed the scalar output."""
    if tape._consumed:
        raise TapeConsumed("this tape was already traversed; re-record the forward pass")
    if output.data.size != 1:
        raise NonScalarOutput(f"backward needs a scalar output, got shape {output.data.shape}")
    tape._consumed = True
    output.grad = np.ones_like(output.data)
    for op in reversed(tape._ops):
        op()


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be shared or a view
    else:
        t.grad += g


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


Weight = Tensor | np.ndarray  # an ndarray weight is a constant


def _accum_weight(w: Weight, grad: Callable[[], np.ndarray]) -> None:
    """Accumulate grad() into a Tensor weight; a constant's is never formed."""
    if isinstance(w, Tensor):
        _accum(w, grad())


# ------------------------------------------------------------- arithmetic

def add(tape: Tape | None, a: Tensor, b) -> Tensor:
    """Elementwise a + b with numpy broadcasting; b may be a constant."""
    bd = _as_array(b)
    try:
        out = Tensor(a.data + bd)
    except ValueError:
        raise ShapeMismatch(f"add: cannot broadcast {a.data.shape} with {bd.shape}") from None
    if tape is not None:
        def _back():
            _accum(a, _reduce_to(out.grad, a.data.shape))
            _accum_weight(b, lambda: _reduce_to(out.grad, bd.shape))
        tape.record(_back)
    return out


def matmul(tape: Tape | None, a: Tensor, b: Weight) -> Tensor:
    """Matrix product; supports stacked (batched) operands like np.matmul.

    An N-D operand times a 2-D one is one 2-D product over the folded
    leading axes, forward and backward: the weight gradient is a single
    a'g product rather than per-sample products summed over the batch.
    """
    bd = _as_array(b)
    if a.data.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatch("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(
            f"matmul: inner dimensions differ, {a.data.shape} @ {bd.shape}")
    if bd.ndim == 2:
        k, n = bd.shape
        a2 = a.data.reshape(-1, k)
        out = Tensor((a2 @ bd).reshape(a.data.shape[:-1] + (n,)))
        if tape is not None:
            def _back():
                g2 = out.grad.reshape(-1, n)
                _accum(a, (g2 @ bd.T).reshape(a.data.shape))
                _accum_weight(b, lambda: a2.T @ g2)
            tape.record(_back)
        return out
    out = Tensor(np.matmul(a.data, bd))
    if tape is not None:
        def _back():
            g = out.grad
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
            _accum(a, _reduce_to(ga, a.data.shape))
            _accum_weight(b, lambda: _reduce_to(
                np.matmul(np.swapaxes(a.data, -1, -2), g), bd.shape))
        tape.record(_back)
    return out


# ----------------------------------------------------- structural operations

def reshape(tape: Tape | None, x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError:
        raise ShapeMismatch(f"reshape: {x.data.shape} -> {shape}") from None
    if tape is not None:
        def _back():
            _accum(x, out.grad.reshape(x.data.shape))
        tape.record(_back)
    return out



# --------------------------------------------------------------- reductions

def reduce_mean(tape: Tape | None, x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.mean(x.data, axis=axis, keepdims=keepdims))
    if tape is not None:
        count = x.data.size if axis is None else x.data.shape[axis]
        def _back():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.data.shape) / count)
        tape.record(_back)
    return out


def reduce_sum(tape: Tape | None, x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))
    if tape is not None:
        def _back():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.data.shape))
        tape.record(_back)
    return out


# ------------------------------------------------------------- nonlinearities

def _sigmoid(v: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 * v)), in that operation order, written into v."""
    # the tanh form cannot overflow for any |v| and needs no masks
    v *= 0.5
    np.tanh(v, out=v)
    v += 1.0
    v *= 0.5
    return v


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))
    if tape is not None:
        def _back():
            _accum(x, out.grad * mask)
        tape.record(_back)
    return out


def elu(tape: Tape | None, x: Tensor) -> Tensor:
    pos = x.data > 0
    expm = ELU_ALPHA * np.expm1(np.minimum(x.data, 0.0))
    y = np.where(pos, x.data, expm)
    out = Tensor(y)
    if tape is not None:
        def _back():
            _accum(x, out.grad * np.where(pos, 1.0, expm + ELU_ALPHA))
        tape.record(_back)
    return out


def _dropout_keep(shape: tuple[int, ...], rate: float, train: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """The keep mask of inverted dropout, or None when dropout is off."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    return rng.random(shape) >= rate


def dropout(tape: Tape | None, x: Tensor, rate: float, train: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout. Identity (the very same tensor) when train is off."""
    keep = _dropout_keep(x.data.shape, rate, train, rng)
    if keep is None:
        return x
    scale = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * scale)
    if tape is not None:
        def _back():
            _accum(x, out.grad * keep * scale)
        tape.record(_back)
    return out


# --------------------------------------------------------- recurrent layers
#
# A layer runs a whole (batch, time, d) sequence from a zero state and
# returns its (batch, time, units) states. The input projection is one
# product for all steps; each step does the recurrent product and the gate
# math on contiguous slabs. With a tape, the layer records one closure that
# backpropagates through time: it fills the pre-activation gradient of
# every step into one array, then forms the input-side gradients with one
# product each (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946).
#
# _gru_steps and _lstm_steps, each cell's one step loop, also run a stretch
# of a layer's steps without a tape, from _project's output on weights the
# caller has checked: zoo's recurrent models run the steps that read only
# earlier inputs ahead of the last one. Each stretch projects the whole
# input: for a fixed operand shape a row of a product depends only on its
# own input row, so a stretch's states do not depend on the input rows
# after its last step, and the two stretches give the bits of one run.

def _check_recurrent(name: str, x: np.ndarray, W: np.ndarray, U: np.ndarray,
                     b: np.ndarray, gates: int) -> tuple[int, int, int]:
    if x.ndim != 3 or x.shape[1] == 0 or U.ndim != 2:
        raise ShapeMismatch(f"{name}: needs a (batch, time >= 1, d) input and a 2-D "
                            f"recurrent kernel, got {x.shape} and {U.shape}")
    units = U.shape[0]
    width = gates * units
    if W.shape != (x.shape[2], width) or U.shape != (units, width) or b.shape != (width,):
        raise ShapeMismatch(
            f"{name}: input {x.shape}, kernel {W.shape}, recurrent "
            f"{U.shape} and bias {b.shape} do not fit {gates} gates")
    return x.shape[0], x.shape[1], units


def _project(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every step's input projection x @ W + b, (batch, time, gates * units)."""
    gx = np.matmul(x, W)
    gx += b
    return gx


def stack_states(hs: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, u) states of consecutive steps as one (B, steps, u) array."""
    B, u = hs[0].shape
    return np.concatenate(hs, axis=1).reshape(B, len(hs), u)


def _accum_inputs(x: Tensor, W: Weight, b: Weight, dgx: np.ndarray) -> None:
    """Gradients of the projection x @ W + b from all steps' gate gradients."""
    Wd = _as_array(W)
    d, width = Wd.shape
    _accum_weight(W, lambda: x.data.reshape(-1, d).T @ dgx.reshape(-1, width))
    _accum_weight(b, lambda: dgx.sum(axis=(0, 1)))
    _accum(x, dgx @ Wd.T)


def _gru_steps(gx: np.ndarray, U: np.ndarray, h: np.ndarray, hs: list[np.ndarray],
               stop: int, saved: list | None = None) -> np.ndarray:
    """GRU steps len(hs) .. stop - 1 over the projections gx, from the state
    h before the first of them. Appends each step's state to hs and, when
    saved is a list, its (z|r, candidate) for backpropagation; returns the
    last state as a 1-tuple, the form of _lstm_steps's (h, c)."""
    u = U.shape[0]
    U_zr, U_h = U[:, : 2 * u], U[:, 2 * u :]
    for t in range(len(hs), stop):
        a = gx[:, t]
        zr = h @ U_zr
        zr += a[:, : 2 * u]
        _sigmoid(zr)
        c = (zr[:, u:] * h) @ U_h
        c += a[:, 2 * u :]
        np.tanh(c, out=c)
        hn = c - h
        hn *= zr[:, :u]
        hn += h
        h = hn
        hs.append(h)
        if saved is not None:
            saved.append((zr, c))
    return (h,)


def gru_layer(tape: Tape | None, x: Tensor, W: Weight, U: Weight, b: Weight) -> Tensor:
    """GRU layer, gate layout z|r|h: W (d, 3u), U (u, 3u), b (3u,).

    Per step, with the reset gate applied before the candidate's
    recurrent product:
        z|r = sigmoid(x_t W_zr + h U_zr + b_zr)
        c   = tanh(x_t W_h + (r * h) U_h + b_h)
        h  <- h + z * (c - h)
    The step loops write into fresh buffers in place, with the operation
    order of the expressions above.
    """
    Wd, Ud, bd = _as_array(W), _as_array(U), _as_array(b)
    B, T, u = _check_recurrent("gru_layer", x.data, Wd, Ud, bd, 3)
    gx = _project(x.data, Wd, bd)
    h0 = np.zeros((B, u))
    hs: list[np.ndarray] = []
    saved: list | None = [] if tape is not None else None
    _gru_steps(gx, Ud, h0, hs, T, saved)
    out = Tensor(stack_states(hs))
    if tape is not None:
        U_zr, U_h = Ud[:, : 2 * u], Ud[:, 2 * u :]

        def _back():
            dhs = out.grad
            dgx = np.empty_like(gx)
            learn_U = isinstance(U, Tensor)
            dU = np.zeros_like(Ud) if learn_U else None
            dh = np.zeros((B, u))  # owned: h0 is the first step's h_prev
            for t in range(T - 1, -1, -1):
                h_prev = hs[t - 1] if t else h0
                zr, c = saved[t]
                z, r = zr[:, :u], zr[:, u:]
                dh += dhs[:, t]
                g = dgx[:, t]
                np.subtract(c, h_prev, out=g[:, :u])
                g[:, :u] *= dh
                c *= c  # the step's last read of c: it becomes 1 - c^2
                np.subtract(1.0, c, out=c)
                dc = dh * z
                dc *= c
                dq = dc @ U_h.T  # q = r * h_prev feeds the candidate
                g[:, 2 * u :] = dc
                np.multiply(dq, h_prev, out=g[:, u : 2 * u])
                dzr = 1.0 - zr
                dh *= dzr[:, :u]
                dzr *= zr
                g_zr = g[:, : 2 * u]
                g_zr *= dzr
                if learn_U:
                    dU[:, : 2 * u] += h_prev.T @ g_zr
                    dU[:, 2 * u :] += (r * h_prev).T @ dc
                if t:  # the first step's h_prev is the constant h0
                    dq *= r
                    dh += dq
                    dh += g_zr @ U_zr.T
            if learn_U:
                _accum(U, dU)
            _accum_inputs(x, W, b, dgx)
        tape.record(_back)
    return out


def _lstm_scales(u: int) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(v) = tanh(v / 2) / 2 + 1/2, so one tanh covers all four gates:
    act = tanh(pre * s) * s + shift, with s = 1/2 on i|f|o and 1 on g."""
    s = np.full(4 * u, 0.5)
    s[2 * u : 3 * u] = 1.0
    shift = np.full(4 * u, 0.5)
    shift[2 * u : 3 * u] = 0.0
    return s, shift


def _lstm_steps(gx: np.ndarray, U: np.ndarray, h: np.ndarray, c: np.ndarray,
                hs: list[np.ndarray], stop: int,
                saved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """LSTM steps len(hs) .. stop - 1 over the projections gx, from the
    state (h, c) before the first of them. Appends each step's h to hs and,
    when saved is a list, its (tanh, activations, c, tanh(c)) for
    backpropagation; returns the last (h, c)."""
    u = U.shape[0]
    s, shift = _lstm_scales(u)
    for t in range(len(hs), stop):
        th = np.tanh((gx[:, t] + h @ U) * s)
        act = th * s + shift
        c = act[:, u : 2 * u] * c + act[:, :u] * act[:, 2 * u : 3 * u]
        tc = np.tanh(c)
        h = act[:, 3 * u :] * tc
        hs.append(h)
        if saved is not None:
            saved.append((th, act, c, tc))
    return h, c


def lstm_layer(tape: Tape | None, x: Tensor, W: Weight, U: Weight, b: Weight) -> Tensor:
    """LSTM layer, gate layout i|f|g|o: W (d, 4u), U (u, 4u), b (4u,).

    Per step:
        i|f|o = sigmoid(x_t W + h U + b), g = tanh(x_t W_g + h U_g + b_g)
        c    <- f * c + i * g
        h     = o * tanh(c)
    """
    Wd, Ud, bd = _as_array(W), _as_array(U), _as_array(b)
    B, T, u = _check_recurrent("lstm_layer", x.data, Wd, Ud, bd, 4)
    gx = _project(x.data, Wd, bd)
    h0 = np.zeros((B, u))
    hs: list[np.ndarray] = []
    saved: list | None = [] if tape is not None else None
    _lstm_steps(gx, Ud, h0, h0, hs, T, saved)
    out = Tensor(stack_states(hs))
    if tape is not None:
        def _back():
            dhs = out.grad
            dgx = np.empty_like(gx)
            learn_U = isinstance(U, Tensor)
            dU = np.zeros_like(Ud) if learn_U else None
            s, _ = _lstm_scales(u)
            slope = s * s  # d act / d pre = (1 - th^2) * s^2
            dh = dc = h0
            for t in range(T - 1, -1, -1):
                h_prev = hs[t - 1] if t else h0
                c_prev = saved[t - 1][2] if t else h0
                th, act, _, tc = saved[t]
                dh = dh + dhs[:, t]
                dc = dc + dh * act[:, 3 * u :] * (1.0 - tc * tc)
                g = dgx[:, t]
                g[:, :u] = dc * act[:, 2 * u : 3 * u]
                g[:, u : 2 * u] = dc * c_prev
                g[:, 2 * u : 3 * u] = dc * act[:, :u]
                g[:, 3 * u :] = dh * tc
                g *= (1.0 - th * th) * slope
                if learn_U:
                    dU += h_prev.T @ g
                if t:  # the first step's h_prev and c_prev are the constant h0
                    dh = g @ Ud.T
                    dc = dc * act[:, u : 2 * u]
            if learn_U:
                _accum(U, dU)
            _accum_inputs(x, W, b, dgx)
        tape.record(_back)
    return out


# ------------------------------------------------------- additive attention
#
# The recurrent models' attention head (Bahdanau, Cho & Bengio 2015) as one
# fused op. Its forward and backward passes are the nine primitive ops it
# replaces (matmul, add, tanh, matmul, reshape, softmax, reshape, batched
# matmul, reshape) with their IEEE operation order, written into fresh
# buffers in place, and with a tape it records one closure.

def _attention(seq: np.ndarray, W: np.ndarray, b: np.ndarray, v: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """additive_attention's unchecked forward pass on arrays: (ctx, alpha, e)."""
    B, T, u = seq.shape
    e = seq.reshape(-1, u) @ W
    e += b
    np.tanh(e, out=e)
    alpha = (e @ v).reshape(B, T)
    alpha -= np.maximum.reduce(alpha, axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduce(alpha, axis=1, keepdims=True)
    return np.matmul(alpha.reshape(B, 1, T), seq).reshape(B, u), alpha, e


def additive_attention(tape: Tape | None, seq: Tensor, W: Weight, b: Weight,
                       v: Weight) -> tuple[Tensor, np.ndarray]:
    """Attention-pooled context of a (B, T, u) sequence; returns (ctx, alpha).

        e     = tanh(seq W + b)        (B, T, A)
        alpha = softmax over t of e v  (B, T)
        ctx   = sum_t alpha_t seq_t    (B, u)
    with W (u, A), b (A,) and v (A, 1). alpha comes back as an array.
    """
    Wd, bd, vd = _as_array(W), _as_array(b), _as_array(v)
    if (seq.data.ndim != 3 or Wd.ndim != 2 or Wd.shape[0] != seq.data.shape[2]
            or bd.shape != Wd.shape[1:] or vd.shape != (Wd.shape[1], 1)):
        raise ShapeMismatch(
            f"additive_attention: sequence {seq.data.shape}, kernel {Wd.shape}, bias "
            f"{bd.shape} and score {vd.shape} do not fit (batch, time, units) @ "
            f"(units, A), (A,), (A, 1)")
    B, T, u = seq.data.shape
    ctx_data, alpha, e = _attention(seq.data, Wd, bd, vd)
    ctx = Tensor(ctx_data)
    if tape is not None:
        s2 = seq.data.reshape(-1, u)
        alpha3 = alpha.reshape(B, 1, T)
        def _back():
            g3 = ctx.grad.reshape(B, 1, u)
            dalpha = np.matmul(g3, np.swapaxes(seq.data, -1, -2)).reshape(B, T)
            dseq = np.matmul(np.swapaxes(alpha3, -1, -2), g3)
            # softmax: alpha * (g - sum(g * alpha))
            inner = np.sum(dalpha * alpha, axis=1, keepdims=True)
            dalpha -= inner
            dalpha *= alpha
            g2 = dalpha.reshape(-1, 1)
            de = g2 @ vd.T
            _accum_weight(v, lambda: e.T @ g2)
            np.multiply(e, e, out=e)  # the last read of e: it becomes 1 - e^2
            np.subtract(1.0, e, out=e)
            de *= e
            # over batch, then time: the order of add's _reduce_to
            _accum_weight(b, lambda: de.reshape(B, T, -1).sum(axis=0).sum(axis=0))
            _accum_weight(W, lambda: s2.T @ de)
            dseq += (de @ Wd.T).reshape(B, T, u)
            _accum(seq, dseq)
        tape.record(_back)
    return ctx, alpha


# ------------------------------------------------------------ encoder block
#
# The post-norm Transformer encoder block runs as one fused op, like the
# recurrent layers: Q|K|V is one (B*T, d) @ (d, 3d) product, the heads are
# batched over (batch, heads), and with a tape the block records a single
# closure that backpropagates through attention, both residual + norm
# sublayers and the FFN.

ENCODER_PARAMS = (
    "wq_kernel", "wq_bias", "wk_kernel", "wk_bias", "wv_kernel", "wv_bias",
    "wo_kernel", "wo_bias", "ln1_gamma", "ln1_beta",
    "ffn1_kernel", "ffn1_bias", "ffn2_kernel", "ffn2_bias", "ln2_gamma", "ln2_beta",
)
_QKV_PARAMS = ENCODER_PARAMS[:6]


def _check_encoder(x: Tensor, p: Mapping[str, np.ndarray], heads: int) -> None:
    if x.data.ndim != 3 or heads < 1 or x.data.shape[2] % heads != 0:
        raise ShapeMismatch(f"encoder_block: needs a (batch, time, d) input with d "
                            f"divisible by {heads} heads, got {x.data.shape}")
    d = x.data.shape[2]
    ff = p["ffn1_kernel"].shape[-1]
    want = {name: (d, d) if name.endswith("_kernel") else (d,) for name in ENCODER_PARAMS}
    want.update(ffn1_kernel=(d, ff), ffn1_bias=(ff,), ffn2_kernel=(ff, d))
    for name, shape in want.items():
        if p[name].shape != shape:
            raise ShapeMismatch(f"encoder_block: {name} is {p[name].shape}, "
                                f"expected {shape} for d={d}")


def _norm(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean / unit variance over the last axis, and 1/std.

    np.mean and np.var reduce the same way (np.add.reduce over the count),
    so the values are theirs, without their wrappers' overhead.
    """
    n = h.shape[-1]
    centred = h - np.add.reduce(h, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return centred * inv, inv


def _norm_back(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    n = g.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gy = np.add.reduce(g * y, axis=-1, keepdims=True) / n
    return inv * (g - gm - y * gy)


def encoder_block(tape: Tape | None, x: Tensor, params: Mapping[str, Weight], heads: int,
                  dropout_rate: float, train: bool = False,
                  rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
    """Post-norm encoder block over (B, T, d); returns (output, attention).

    params holds the ENCODER_PARAMS weights (other keys are ignored):
        a  = dropout(concat_heads(softmax(q k' / sqrt(d/heads)) v) Wo + bo)
        h1 = norm(x + a) * ln1_gamma + ln1_beta
        f  = dropout(relu(h1 W1 + b1) W2 + b2)
        y  = norm(h1 + f) * ln2_gamma + ln2_beta
    with q|k|v = x Wq|Wk|Wv + bq|bk|bv split into heads and norm() the
    layer norm with LAYER_NORM_EPS. In training mode the attention output's
    dropout mask is drawn from rng first, then the FFN's. The attention
    weights come back as a (B, heads, T, T) array.
    """
    p = {name: _as_array(params[name]) for name in ENCODER_PARAMS}
    _check_encoder(x, p, heads)
    B, T, d = x.data.shape
    hd = d // heads
    X = x.data.reshape(B * T, d)
    W_qkv = np.concatenate([p["wq_kernel"], p["wk_kernel"], p["wv_kernel"]], axis=1)
    b_qkv = np.concatenate([p["wq_bias"], p["wk_bias"], p["wv_bias"]])
    # (3, B, heads, T, hd) views of one product
    q, k, v = (X @ W_qkv + b_qkv).reshape(B, T, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(hd)
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    weights = e / np.sum(e, axis=-1, keepdims=True)
    ctx = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(B * T, d)
    a = ctx @ p["wo_kernel"] + p["wo_bias"]
    keep1 = _dropout_keep(a.shape, dropout_rate, train, rng)
    drop = 1.0 / (1.0 - dropout_rate)
    if keep1 is not None:
        a = a * keep1 * drop
    n1, inv1 = _norm(X + a)
    h1 = n1 * p["ln1_gamma"] + p["ln1_beta"]
    pre = h1 @ p["ffn1_kernel"] + p["ffn1_bias"]
    active = pre > 0
    f1 = np.where(active, pre, 0.0)
    f = f1 @ p["ffn2_kernel"] + p["ffn2_bias"]
    keep2 = _dropout_keep(f.shape, dropout_rate, train, rng)
    if keep2 is not None:
        f = f * keep2 * drop
    n2, inv2 = _norm(h1 + f)
    out = Tensor((n2 * p["ln2_gamma"] + p["ln2_beta"]).reshape(B, T, d))
    if tape is not None:
        def _back():
            g = out.grad.reshape(B * T, d)
            dh2 = _norm_back(g * p["ln2_gamma"], n2, inv2)
            df = dh2 if keep2 is None else dh2 * keep2 * drop
            dpre = (df @ p["ffn2_kernel"].T) * active
            dh1 = dh2 + dpre @ p["ffn1_kernel"].T
            # the gradient at x + a: x's residual share and the attention's
            dx = _norm_back(dh1 * p["ln1_gamma"], n1, inv1)
            da = dx if keep1 is None else dx * keep1 * drop
            dctx = (da @ p["wo_kernel"].T).reshape(B, T, heads, hd).transpose(0, 2, 1, 3)
            dw = np.matmul(dctx, np.swapaxes(v, -1, -2))
            dv = np.matmul(np.swapaxes(weights, -1, -2), dctx)
            ds = weights * (dw - np.sum(dw * weights, axis=-1, keepdims=True)) * scale
            dq = np.matmul(ds, k)
            dk = np.matmul(np.swapaxes(ds, -1, -2), q)
            dqkv = np.stack([dq, dk, dv]).transpose(1, 3, 0, 2, 4).reshape(B * T, 3 * d)
            _accum(x, (dx + dqkv @ W_qkv.T).reshape(B, T, d))
            grads = {
                "ln2_gamma": lambda: np.sum(g * n2, axis=0),
                "ln2_beta": lambda: np.sum(g, axis=0),
                "ffn2_kernel": lambda: f1.T @ df,
                "ffn2_bias": lambda: np.sum(df, axis=0),
                "ffn1_kernel": lambda: h1.T @ dpre,
                "ffn1_bias": lambda: np.sum(dpre, axis=0),
                "ln1_gamma": lambda: np.sum(dh1 * n1, axis=0),
                "ln1_beta": lambda: np.sum(dh1, axis=0),
                "wo_kernel": lambda: ctx.T @ da,
                "wo_bias": lambda: np.sum(da, axis=0),
            }
            for name, grad in grads.items():
                _accum_weight(params[name], grad)
            if any(isinstance(params[name], Tensor) for name in _QKV_PARAMS):
                # one product for the three kernels, split by columns
                dW = X.T @ dqkv
                db = np.sum(dqkv, axis=0)
                for i, name in enumerate(_QKV_PARAMS):
                    if isinstance(params[name], Tensor):
                        cols = slice(i // 2 * d, (i // 2 + 1) * d)
                        _accum(params[name], dW[:, cols] if name.endswith("_kernel")
                               else db[cols])
        tape.record(_back)
    return out, weights


# ------------------------------------------------------------ initialization

@dataclass(frozen=True)
class ParamSpec:
    """Declares one trainable tensor: name, shape, and init family.

    init is one of: glorot (uniform, fan in/out from a 2-D shape),
    orthogonal_blocks (each square block of a (units, gates*units) matrix is
    orthogonal), zeros, ones, lstm_bias (zeros with the forget-gate quarter
    set to one).
    """

    name: str
    shape: tuple[int, ...]
    init: str


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_params(specs: Sequence[ParamSpec], seed: int) -> dict[str, np.ndarray]:
    """Materialize parameters in declared order; fully determined by seed."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.init == "glorot":
            arr = glorot_uniform(rng, spec.shape)
        elif spec.init == "orthogonal_blocks":
            units, total = spec.shape
            if total % units != 0:
                raise ShapeMismatch(f"{spec.name}: {spec.shape} not block-square")
            blocks = [orthogonal(rng, units) for _ in range(total // units)]
            arr = np.concatenate(blocks, axis=1)
        elif spec.init == "zeros":
            arr = np.zeros(spec.shape)
        elif spec.init == "ones":
            arr = np.ones(spec.shape)
        elif spec.init == "lstm_bias":
            arr = np.zeros(spec.shape)
            units = spec.shape[0] // 4
            arr[units : 2 * units] = 1.0  # forget gate opens the cell early on
        else:
            raise ValueError(f"unknown init family: {spec.init}")
        out[spec.name] = np.asarray(arr, dtype=np.float64)
    return out
