"""Prediction explanations: integrated gradients, attention maps, and a
local linear surrogate.

All methods work on one scaled (5, 6) context and run on the caller's
zoo.BundleRunner, so a caller that explains many inputs builds it once.
Attributions are reported per (window, feature) cell in prediction units;
for integrated gradients the cells sum to the prediction difference against
the baseline up to a reported completeness gap.

Integrated gradients on a neural variant run one taped forward and backward
pass over a single batch of steps + 2 rows (66 at the default IG_STEPS):
the interpolation points, then x and the baseline, whose rows give the
prediction and the baseline prediction. The runner's weights are ndarrays,
which nncore treats as constants, so the backward pass forms only the input
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAttentionComponent, ShapeMismatch
from .pipeline import CONTEXT_LEN, FEATURE_NAMES, N_FEATURES
from .zoo import BundleRunner

IG_STEPS = 64
LIME_SAMPLES = 500
LIME_SIGMA = 0.1
LIME_KERNEL_WIDTH = 0.75
LIME_RIDGE = 1e-3


def _check_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    expected = (CONTEXT_LEN, N_FEATURES)
    if x.shape != expected:
        raise ShapeMismatch(f"expected input shape {expected}, got {x.shape}")
    return x


@dataclass
class Attribution:
    """Per-cell attribution of one prediction against a baseline input."""

    variant_id: str
    method: str
    values: np.ndarray  # (5, 6)
    prediction: float
    baseline_prediction: float
    completeness_gap: float
    steps: int

    def top_k(self, k: int = 3) -> list[tuple[int, str, float]]:
        """Largest |attribution| cells as (window, feature_name, value)."""
        flat = np.argsort(-np.abs(self.values), axis=None)[:k]
        out = []
        for idx in flat:
            w, f = divmod(int(idx), self.values.shape[1])
            out.append((w, FEATURE_NAMES[f], float(self.values[w, f])))
        return out


def check_steps(steps: int) -> None:
    """Integrated gradients need at least one interpolation step."""
    if steps < 1:
        raise ValueError("steps must be positive")


def integrated_gradients(runner: BundleRunner, x: np.ndarray,
                         baseline: np.ndarray | None = None,
                         steps: int = IG_STEPS) -> Attribution:
    """Path-integrated input gradients from a baseline to x.

    The integral is evaluated with the midpoint rule at (k - 0.5)/steps,
    k = 1..steps; attributions are the averaged gradients times (x - x').
    Linear variants short-circuit to the exact closed form w * (x - x'),
    whose completeness gap is zero by construction. The default baseline is
    the all-zero scaled input (the training-window minima).
    """
    check_steps(steps)
    x = _check_input(x)
    baseline = np.zeros_like(x) if baseline is None else _check_input(baseline)
    diff = x - baseline
    ends = np.stack([x, baseline])

    if runner.model.model_class == "linear":
        preds, _ = runner.predict(ends)
        values = runner.params["weights"].reshape(x.shape) * diff
        method, steps = "integrated_gradients_exact", 1
    else:
        alphas = (np.arange(1, steps + 1) - 0.5) / steps
        points = baseline[None, :, :] + alphas[:, None, None] * diff[None, :, :]
        # x and the baseline ride as two extra rows: one taped pass gives all
        preds, grads = runner.input_gradients(np.concatenate([points, ends]))
        preds = preds[steps:]
        values = grads[:steps].mean(axis=0) * diff
        method = "integrated_gradients"
    pred, base_pred = float(preds[0]), float(preds[1])
    gap = abs(float(values.sum()) - (pred - base_pred))
    return Attribution(runner.bundle.variant_id, method, values, pred, base_pred, gap, steps)


@dataclass
class AttentionMap:
    """Attention side-output of one forward pass.

    Recurrent models give one weight per context window (5,); the
    transformer gives per-head position-to-position maps (heads, 5, 5).
    Rows sum to one; requesting the map never changes the prediction.
    """

    variant_id: str
    weights: np.ndarray
    prediction: float


def attention_map(runner: BundleRunner, x: np.ndarray) -> AttentionMap:
    x = _check_input(x)
    variant_id = runner.bundle.variant_id
    if not runner.model.has_attention:
        raise NoAttentionComponent(
            f"{variant_id} ({runner.model.model_class}) has no attention weights")
    pred, aux = runner.predict(x[None])
    return AttentionMap(variant_id, aux["attention"][0], float(pred[0]))


@dataclass
class LocalSurrogate:
    """Weighted ridge fit around one input: a LIME-style local explanation."""

    variant_id: str
    coefficients: np.ndarray  # (30,) flattened (window, feature) order
    intercept: float
    r_squared: float

    def cell_coefficients(self) -> np.ndarray:
        return self.coefficients.reshape(-1, len(FEATURE_NAMES))


def lime_local(runner: BundleRunner, x: np.ndarray, seed: int = 0) -> LocalSurrogate:
    """Fit a distance-weighted linear surrogate to the model around x.

    LIME_SAMPLES perturbations add Gaussian noise of scale LIME_SIGMA to
    every flattened scalar; sample weights decay as exp(-d^2 / w^2) in the
    distance d from x, with w = LIME_KERNEL_WIDTH. The surrogate is ridge
    regularized (LIME_RIDGE) and scored by weighted R^2.
    """
    x = _check_input(x)
    rng = np.random.default_rng(seed)

    flat = x.reshape(-1)
    d = flat.size
    Z = flat[None, :] + rng.normal(0.0, LIME_SIGMA, size=(LIME_SAMPLES, d))
    y, _ = runner.predict(Z.reshape(LIME_SAMPLES, *x.shape))

    dist2 = np.sum((Z - flat[None, :]) ** 2, axis=1)
    weights = np.exp(-dist2 / (LIME_KERNEL_WIDTH ** 2))

    # weighted ridge with unpenalized intercept, solved on centered data
    wsum = weights.sum()
    zm = (weights @ Z) / wsum
    ym = float(weights @ y) / wsum
    Zc = Z - zm
    yc = y - ym
    A = (Zc * weights[:, None]).T @ Zc + LIME_RIDGE * np.eye(d)
    coef = np.linalg.solve(A, (Zc * weights[:, None]).T @ yc)
    intercept = ym - float(zm @ coef)

    fitted = Z @ coef + intercept
    ss_res = float(weights @ ((y - fitted) ** 2))
    ss_tot = float(weights @ ((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LocalSurrogate(
        variant_id=runner.bundle.variant_id,
        coefficients=coef,
        intercept=intercept,
        r_squared=r2,
    )
