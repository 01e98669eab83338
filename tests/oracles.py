"""Test oracles: checks that judge the program from outside it.

The finite-difference gradient checker, the subgradient optimality residual
of the linear solvers and a model's parameter count live here rather than
in qoecast, so that a fault in the program cannot hide in its own check.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qoecast.nncore import Tape, Tensor, backward


# ------------------------------------------------------------ gradient check

@dataclass
class GradientCheckReport:
    max_rel_err: float
    per_tensor: dict[str, float]
    checked_entries: int
    passed: bool
    nonsmooth_entries: int = 0

    @property
    def probed_entries(self) -> int:
        """Coordinates probed: the checked ones plus the excluded ones."""
        return self.checked_entries + self.nonsmooth_entries


def gradient_check(
    forward_fn: Callable[[dict[str, Tensor], Tensor, Tape | None], Tensor],
    params: dict[str, np.ndarray],
    inputs: np.ndarray,
    eps: float = 1e-4,
    tol_rel: float = 1e-5,
    max_entries: int | None = 256,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    forward_fn must map (params-as-tensors, input tensor, tape) to a scalar
    Tensor and be deterministic. Tensors larger than max_entries get a
    seeded random subset of coordinates; every checked coordinate is a
    genuine central difference with the given eps. Relative error is
    |a - n| / max(1, |a|, |n|).

    Coordinates where the eps and eps/2 difference quotients disagree beyond
    tol_rel/2 are counted in nonsmooth_entries and excluded: either a kink
    (a relu pre-activation within eps of zero) sits inside the probed
    interval, so the quotient blends one-sided derivatives, or curvature
    exceeds what this eps resolves; in both cases the quotient cannot
    certify the gradient to tol_rel. Smooth coordinates agree to O(eps^2)
    and stay far inside the gate. `passed` speaks only for the checked
    coordinates; probed_entries (checked + nonsmooth) lets a caller bound
    the excluded share.
    """
    p_tensors = {k: Tensor(v) for k, v in params.items()}
    x_tensor = Tensor(inputs)
    tape = Tape()
    out = forward_fn(p_tensors, x_tensor, tape)
    backward(tape, out)
    analytic = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for k, t in p_tensors.items()}
    analytic["__inputs__"] = (x_tensor.grad if x_tensor.grad is not None
                              else np.zeros_like(x_tensor.data))

    work_params = {k: v.copy() for k, v in params.items()}
    work_inputs = np.array(inputs, dtype=np.float64, copy=True)

    def evaluate() -> float:
        pt = {k: Tensor(v) for k, v in work_params.items()}
        return float(forward_fn(pt, Tensor(work_inputs), None).data)

    rng = np.random.default_rng(seed)
    per_tensor: dict[str, float] = {}
    checked = 0
    nonsmooth = 0
    tensors = dict(work_params)
    tensors["__inputs__"] = work_inputs
    for name, arr in tensors.items():
        flat = arr.reshape(-1)
        n = flat.size
        if max_entries is None or n <= max_entries:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = evaluate()
            flat[i] = orig - eps
            f_minus = evaluate()
            flat[i] = orig + 0.5 * eps
            f_plus_half = evaluate()
            flat[i] = orig - 0.5 * eps
            f_minus_half = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            numeric_half = (f_plus_half - f_minus_half) / eps
            # for a straddled kink the quotient disagreement equals the
            # quotient's own error, so gating at tol/2 leaves nothing
            # larger than tol in the comparison set
            gate = 0.5 * tol_rel * max(1.0, abs(numeric), abs(numeric_half))
            if abs(numeric - numeric_half) > gate:
                nonsmooth += 1
                continue
            a = a_flat[i]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
            checked += 1
        per_tensor[name] = worst
    max_rel = max(per_tensor.values()) if per_tensor else 0.0
    return GradientCheckReport(
        max_rel_err=max_rel,
        per_tensor=per_tensor,
        checked_entries=checked,
        passed=max_rel <= tol_rel,
        nonsmooth_entries=nonsmooth,
    )


# ------------------------------------------------------------ linear solvers

def kkt_residual(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                 l1: float, l2: float = 0.0) -> float:
    """Largest violation of the subgradient optimality conditions.

    For each coordinate: |grad_j + l1*sign(w_j)| when w_j != 0, else the
    excess of |grad_j| over l1. The bias condition is a zero mean residual.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = len(y)
    r = y - b - X @ w
    grad = -(2.0 / n) * (X.T @ r) + 2.0 * l2 * w
    at_zero = np.maximum(np.abs(grad) - l1, 0.0)
    off_zero = np.abs(grad + l1 * np.sign(w))
    worst = np.max(np.where(w != 0.0, off_zero, at_zero), initial=0.0)
    return max(abs(2.0 * float(r.mean())), float(worst))


# --------------------------------------------------------------------- zoo

def param_count(model) -> int:
    """Trainable scalars a zoo model declares in its param specs."""
    return int(sum(int(np.prod(s.shape)) for s in model.param_specs))
