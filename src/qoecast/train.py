"""Model fitting: minibatch Adam for the neural zoo, closed-form and
active-set (feature-sign) solvers for the linear variants.

Neural training minimizes log-cosh on scaled targets in minibatches of 32
with seeded shuffling, early stopping on validation loss with best-weight
restore, and multiplicative learning-rate decay on plateaus. Given the same seed, data
and config, two runs produce bit-identical bundles.
"""

from __future__ import annotations

import csv
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nncore as nc
from .errors import (
    DivergedLoss,
    EmptySplit,
    LengthMismatch,
    NoConvergence,
    SingularSystem,
)
from .nncore import Tape, Tensor
from .pipeline import PreparedDataset
from .seeding import derive_seed
from .zoo import (
    ForecastModel,
    ModelBundle,
    build_variant,
    ALL_VARIANTS,
    save_bundle,
)

_LOG2 = math.log(2.0)
BATCH_SIZE = 32  # training rows per Adam step


# ------------------------------------------------------------------- losses

def logcosh_value(residuals: np.ndarray) -> float:
    """Mean log(cosh(r)) in the overflow-free form |r| + log1p(e^-2|r|) - log 2."""
    a = np.abs(np.asarray(residuals, dtype=np.float64))
    return float(np.mean(a + np.log1p(np.exp(-2.0 * a)) - _LOG2))


def mse_value(residuals: np.ndarray) -> float:
    r = np.asarray(residuals, dtype=np.float64)
    return float(np.mean(r * r))


def logcosh_loss(tape: Tape | None, pred: Tensor, target: np.ndarray) -> Tensor:
    """Differentiable mean log-cosh node; d/dpred = tanh(r) / n."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise LengthMismatch(f"pred {pred.data.shape} vs target {target.shape}")
    r = pred.data - target
    out = Tensor(logcosh_value(r))
    if tape is not None:
        n = r.size
        def _back():
            nc._accum(pred, out.grad * np.tanh(r) / n)
        tape.record(_back)
    return out


# ------------------------------------------------------------ configuration

# The training schedule is part of the protocol every variant is fitted
# under, so its values are constants.
ADAM_LR = 1e-3  # initial learning rate
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7

EARLY_STOP_PATIENCE = 10  # epochs without improvement before stopping
EARLY_STOP_MIN_DELTA = 1e-7  # absolute val-loss improvement that counts

PLATEAU_FACTOR = 0.5  # lr multiplier after a plateau
PLATEAU_PATIENCE = 5  # epochs without improvement that make a plateau
PLATEAU_MIN_LR = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    max_epochs: int = 200

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
            for r in self.records:
                w.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss),
                            repr(r.lr), f"{r.seconds:.4f}"])


# ---------------------------------------------------------------- optimizer

class Adam:
    """Adam with bias correction over one flat parameter buffer.

    The parameters' data become views into one float64 buffer, and the
    moments and two scratch vectors are flat beside it, so a step gathers
    the gradients once and then runs a fixed handful of in-place vector
    operations, whatever the number of tensors. The parameters keep their
    Tensor objects; assigning a new array to p.data detaches it from the
    optimizer. An absent gradient counts as zero: the moments still decay,
    so the parameter stays put only while its first moment is zero and
    moves once it is not. lr is mutable so a schedule can decay it.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.lr = ADAM_LR
        self.t = 0
        size = sum(p.data.size for p in params.values())
        self._flat = np.empty(size)
        self._grad = np.empty(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._s = np.empty(size)
        self._u = np.empty(size)
        self._slots: list[tuple[Tensor, np.ndarray]] = []
        offset = 0
        for p in params.values():
            end = offset + p.data.size
            view = self._flat[offset:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._slots.append((p, self._grad[offset:end].reshape(view.shape)))
            offset = end

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g in self._slots:
            if p.grad is None:
                g.fill(0.0)
            else:
                g[...] = p.grad
        g, m, v, s, u = self._grad, self._m, self._v, self._s, self._u
        # the per-tensor update, in place and in the same operation order:
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        np.divide(m, bc1, out=s)
        s *= self.lr
        np.divide(v, bc2, out=u)
        np.sqrt(u, out=u)
        u += ADAM_EPS
        s /= u
        self._flat -= s

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


# ------------------------------------------------------------ neural training

def train_neural(model: ForecastModel, dataset: PreparedDataset,
                 config: TrainConfig) -> tuple[ModelBundle, TrainHistory]:
    """Fit one neural variant on the dataset's train split, monitoring val.

    Early stopping: stop after EARLY_STOP_PATIENCE epochs without the val
    loss improving by more than EARLY_STOP_MIN_DELTA, then restore the best
    epoch's weights. Plateau schedule: scale the lr by PLATEAU_FACTOR (down
    to PLATEAU_MIN_LR) after PLATEAU_PATIENCE non-improving epochs. All
    randomness (init, shuffling, dropout) is derived from config.seed and
    the variant id.
    """
    X_train, y_train = dataset.train.X, dataset.train.y
    X_val, y_val = dataset.val.X, dataset.val.y
    if len(X_train) == 0 or len(X_val) == 0:
        raise EmptySplit(
            f"train/val must be non-empty, got {len(X_train)}/{len(X_val)}")

    params_np = model.init_params(derive_seed(config.seed, f"init:{model.variant_id}"))
    params = {k: Tensor(v) for k, v in params_np.items()}
    opt = Adam(params)
    shuffle_rng = np.random.default_rng(
        derive_seed(config.seed, f"shuffle:{model.variant_id}"))

    history = TrainHistory()
    best_val = np.inf
    best_weights = {k: p.data.copy() for k, p in params.items()}
    best_train = np.inf
    es_wait = 0
    plateau_wait = 0
    n = len(X_train)

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for bi, start in enumerate(range(0, n, BATCH_SIZE)):
            idx = order[start : start + BATCH_SIZE]
            xb, yb = X_train[idx], y_train[idx]
            drop_rng = np.random.default_rng(
                derive_seed(config.seed, f"dropout:{model.variant_id}:{epoch}:{bi}"))
            tape = Tape()
            opt.zero_grads()
            pred, _ = model.forward(params, Tensor(xb), tape, train=True, rng=drop_rng)
            loss = logcosh_loss(tape, pred, yb)
            if not np.isfinite(loss.data):
                raise DivergedLoss(
                    f"{model.variant_id}: non-finite train loss at epoch {epoch}")
            nc.backward(tape, loss)
            opt.step()
            epoch_loss += float(loss.data) * len(idx)
        train_loss = epoch_loss / n

        val_pred, _ = model.forward(params, Tensor(X_val), tape=None, train=False)
        val_loss = logcosh_value(val_pred.data - y_val)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"{model.variant_id}: non-finite val loss at epoch {epoch}")
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, val_loss=val_loss,
            lr=opt.lr, seconds=time.perf_counter() - t0))

        if best_val - val_loss > EARLY_STOP_MIN_DELTA:
            best_val = val_loss
            best_train = train_loss
            best_weights = {k: p.data.copy() for k, p in params.items()}
            history.best_epoch = epoch
            es_wait = 0
            plateau_wait = 0
        else:
            es_wait += 1
            plateau_wait += 1
            if plateau_wait >= PLATEAU_PATIENCE and opt.lr > PLATEAU_MIN_LR:
                opt.lr = max(opt.lr * PLATEAU_FACTOR, PLATEAU_MIN_LR)
                plateau_wait = 0
            if es_wait >= EARLY_STOP_PATIENCE:
                history.stopped_early = True
                break

    for k, p in params.items():
        p.data = best_weights[k]

    bundle = ModelBundle(
        variant_id=model.variant_id,
        scaler=dataset.scaler,
        params={k: p.data.astype(np.float32) for k, p in params.items()},
        meta={
            "seed": config.seed,
            "epochs": len(history.records),
            "train_loss": float(best_train),
            "val_loss": float(best_val),
        },
    )
    return bundle, history


# ------------------------------------------------------------ linear solvers

def solve_ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares fit; the minimum-norm solution on rank deficiency."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y):
        raise LengthMismatch(f"{len(X)} rows vs {len(y)} targets")
    A = np.hstack([X, np.ones((len(X), 1))])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return beta[:-1], float(beta[-1])


def solve_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Minimize mean squared error + lam * ||w||^2 with an unpenalized bias.

    The optimal bias is ybar - xbar.w for any w, so the weights come from
    the centered normal equations (Xc'Xc + lam*n*I) w = Xc'yc.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y):
        raise LengthMismatch(f"{len(X)} rows vs {len(y)} targets")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    n, d = X.shape
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    yc = y - ym
    A = Xc.T @ Xc + lam * n * np.eye(d)
    try:
        w = np.linalg.solve(A, Xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"ridge normal equations singular: {exc}") from None
    return w, float(ym - xm @ w)


def solve_lasso(
    X: np.ndarray,
    y: np.ndarray,
    l1: float,
    l2: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> tuple[np.ndarray, float, int]:
    """Exact minimizer of mean squared error + l1*sum|w| + l2*sum w^2.

    Feature-sign search (Lee, Battle, Raina & Ng 2007, "Efficient sparse
    coding algorithms"), an active-set method. The bias is unpenalized, so
    it is ybar - xbar.w and the weights solve the centered problem
        min 0.5 w'Aw - q'w + l1*|w|_1,  A = 2/n Xc'Xc + 2*l2*I,  q = 2/n Xc'yc.
    An iteration either activates the zero coordinate that violates
    optimality most (|(Aw - q)_j| > l1 + tol) with the sign that descends,
    or, with the active set and signs fixed, solves the quadratic exactly
    and moves towards that solution as far as the lowest objective along
    the segment, where coefficients that cross zero leave the active set.
    The objective falls strictly, so no active set and sign pattern
    repeats and the search ends in a bounded number of iterations; at the
    end the active coordinates satisfy optimality to rounding and the zero
    ones to tol. Returns (weights, bias, iterations); NoConvergence when
    max_iter iterations do not get there.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y):
        raise LengthMismatch(f"{len(X)} rows vs {len(y)} targets")
    if l1 < 0 or l2 < 0:
        raise ValueError("penalties must be non-negative")
    n, d = X.shape
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    A = (2.0 / n) * (Xc.T @ Xc) + 2.0 * l2 * np.eye(d)
    q = (2.0 / n) * (Xc.T @ (y - ym))

    def objective(w: np.ndarray) -> float:
        return float(0.5 * w @ A @ w - q @ w + l1 * np.abs(w).sum())

    w = np.zeros(d)
    settled = True  # w minimizes the objective over its active set and signs
    for it in range(1, max_iter + 1):
        theta = np.sign(w)
        if settled:
            grad = A @ w - q
            excess = np.where(w == 0.0, np.abs(grad) - l1, -np.inf)
            if np.max(excess, initial=-np.inf) <= tol:
                return w, float(ym - xm @ w), it
            j = int(np.argmax(excess))
            theta[j] = -np.sign(grad[j])
        active = np.flatnonzero(theta)
        rhs = q[active] - l1 * theta[active]
        try:
            target = np.linalg.solve(A[np.ix_(active, active)], rhs)
        except np.linalg.LinAlgError:  # collinear active columns, l2 = 0
            target = np.linalg.lstsq(A[np.ix_(active, active)], rhs, rcond=None)[0]
        # discrete line search: the solution and every zero crossing on the way
        start = w[active]
        best = np.zeros(d)
        best[active] = target
        best_f = objective(best)
        settled = bool(np.all(np.sign(target) == theta[active]))
        for i in np.flatnonzero((start != 0.0) & (np.sign(target) != np.sign(start))):
            cand = np.zeros(d)
            cand[active] = start + start[i] / (start[i] - target[i]) * (target - start)
            cand[active[i]] = 0.0
            f = objective(cand)
            if f < best_f:
                best, best_f, settled = cand, f, False
        w = best
    raise NoConvergence(f"feature-sign search did not reach optimality tolerance {tol} "
                        f"in {max_iter} iterations")


def fit_linear(variant_id: str, dataset: PreparedDataset,
               config: TrainConfig) -> tuple[ModelBundle, TrainHistory]:
    """Fit one linear variant on the (flattened) train split."""
    model = build_variant(variant_id)
    if model.model_class != "linear":
        raise ValueError(f"{variant_id} is not a linear variant")
    X, y = dataset.train.X, dataset.train.y
    X_val, y_val = dataset.val.X, dataset.val.y
    if len(X) == 0:
        raise EmptySplit("train split is empty")
    Xf = X.reshape(len(X), -1)
    l1, l2 = model.penalties
    iterations = 1
    if l1 == 0.0 and l2 == 0.0:
        w, b = solve_ols(Xf, y)
    elif l1 == 0.0:
        w, b = solve_ridge(Xf, y, l2)
    else:
        w, b, iterations = solve_lasso(Xf, y, l1, l2)
    train_loss = mse_value(Xf @ w + b - y)
    val_loss = (mse_value(X_val.reshape(len(X_val), -1) @ w + b - y_val)
                if len(X_val) else float("nan"))

    bundle = ModelBundle(
        variant_id=variant_id,
        scaler=dataset.scaler,
        params={"weights": w.reshape(-1, 1).astype(np.float32),
                "bias": np.array([b], dtype=np.float32)},
        meta={"seed": config.seed, "epochs": iterations,
              "train_loss": train_loss, "val_loss": val_loss},
    )
    history = TrainHistory(records=[EpochRecord(1, train_loss, val_loss,
                                                0.0, 0.0)], best_epoch=1)
    return bundle, history


# ------------------------------------------------------------------ run-all

@dataclass
class VariantOutcome:
    variant_id: str
    status: str  # "ok" or "failed: <reason>"
    bundle: ModelBundle | None
    history: TrainHistory | None
    fit_s: float = 0.0  # wall seconds of the fit, timed where it ran


def train_variant(variant_id: str, dataset: PreparedDataset,
                  config: TrainConfig) -> tuple[ModelBundle, TrainHistory]:
    model = build_variant(variant_id)
    if model.model_class == "linear":
        return fit_linear(variant_id, dataset, config)
    return train_neural(model, dataset, config)


def train_and_save(variant_id: str, dataset: PreparedDataset, config: TrainConfig,
                   out_dir: str | Path) -> VariantOutcome:
    """Fit one variant under the seed derived from config.seed for it, then
    write <id>.bundle.json and <id>.history.csv to out_dir. Errors propagate."""
    cfg = replace(config, seed=derive_seed(config.seed, f"variant:{variant_id}"))
    t0 = time.perf_counter()
    bundle, history = train_variant(variant_id, dataset, cfg)
    fit_s = time.perf_counter() - t0
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, out / f"{variant_id}.bundle.json")
    history.write_csv(out / f"{variant_id}.history.csv")
    return VariantOutcome(variant_id, "ok", bundle, history, fit_s)


def _variant_job(variant_id: str, dataset: PreparedDataset, config: TrainConfig,
                 out_dir: Path) -> VariantOutcome:
    """One pool job: train_and_save with any exception turned into a failed
    outcome, so that an exception that does not pickle cannot break the pool."""
    t0 = time.perf_counter()
    try:
        return train_and_save(variant_id, dataset, config, out_dir)
    except Exception as exc:  # noqa: BLE001 - summary must list the failure
        return VariantOutcome(variant_id, f"failed: {exc}", None, None,
                              time.perf_counter() - t0)


def pool_workers() -> int:
    """Worker processes of run_all_variants: one per CPU this process may
    run on, and no more than there are variants."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 0
    return min(cpus or os.cpu_count() or 1, len(ALL_VARIANTS))


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_for_children():
    """Set the BLAS thread variables to 1 in os.environ, which the processes
    started inside inherit, and restore them on exit. This process's BLAS
    read them when numpy was imported and keeps its own thread count."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_all_variants(dataset: PreparedDataset, config: TrainConfig,
                     out_dir: str | Path) -> list[VariantOutcome]:
    """Train every registered variant; write bundles, histories, summary.csv.

    The fits share no state, so each runs as one job in a pool of
    pool_workers() processes started with `spawn` (no fork of a process
    whose BLAS threads may be running); every fit's randomness hangs off its
    own derived seed. Each worker runs one BLAS thread, whatever the
    caller's settings, so the workers do not oversubscribe the CPUs and the
    results are those of one process with one BLAS thread on any CPU count.
    One failing variant is recorded and does not abort the rest; a worker
    that dies fails the variants it had not returned. summary.csv holds only
    run-independent values, in registry order, so identical seeds give
    identical bytes.

    `spawn` workers import the caller's main module, so a script that calls
    this must do so under `if __name__ == "__main__":`; without the guard
    every worker dies at start-up and all variants come back failed.
    """
    # imported here: the pool machinery adds about 15 ms to every command's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcomes: list[VariantOutcome] = []
    with _one_blas_thread_for_children():
        pool = ProcessPoolExecutor(pool_workers(),
                                   mp_context=multiprocessing.get_context("spawn"))
        try:
            jobs = [pool.submit(_variant_job, vid, dataset, config, out)
                    for vid in ALL_VARIANTS]
            for vid, job in zip(ALL_VARIANTS, jobs):
                try:
                    outcomes.append(job.result())
                except Exception as exc:  # noqa: BLE001 - a dead worker or unpicklable input
                    outcomes.append(VariantOutcome(vid, f"failed: {exc}", None, None))
        finally:
            # on an interrupt, drop the fits not yet started instead of running them
            pool.shutdown(cancel_futures=True)

    with (out / "summary.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["variant_id", "status", "epochs", "best_epoch",
                    "train_loss", "val_loss"])
        for o in outcomes:
            if o.bundle is None:
                w.writerow([o.variant_id, o.status, "", "", "", ""])
            else:
                w.writerow([
                    o.variant_id, o.status, o.bundle.meta["epochs"],
                    o.history.best_epoch,
                    repr(float(o.bundle.meta["train_loss"])),
                    repr(float(o.bundle.meta["val_loss"])),
                ])
    return outcomes
