import contextlib
import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from qoecast import train
from qoecast.cli import main
from qoecast.errors import (
    DivergedLoss,
    EmptySplit,
    LengthMismatch,
    NoConvergence,
    SingularSystem,
)
from qoecast.nncore import Tape, Tensor, backward
from qoecast.pipeline import load_dataset, save_dataset
from qoecast.seeding import derive_seed
from qoecast.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    TrainConfig,
    fit_linear,
    logcosh_loss,
    logcosh_value,
    mse_value,
    pool_workers,
    run_all_variants,
    solve_lasso,
    solve_ols,
    solve_ridge,
    train_neural,
    train_variant,
)
from qoecast.zoo import ALL_VARIANTS, LINEAR_VARIANTS, build_variant, serialize
from oracles import kkt_residual


class TestLosses:
    def test_logcosh_spot_values(self):
        assert logcosh_value(np.array([1.0])) == pytest.approx(0.4337808304830272, abs=1e-12)
        assert logcosh_value(np.array([0.0])) == 0.0
        # large residuals must not overflow: log cosh r -> |r| - log 2
        assert logcosh_value(np.array([20.0])) == pytest.approx(19.306852819440056, abs=1e-12)
        assert math.isfinite(logcosh_value(np.array([1e6])))

    def test_logcosh_matches_naive_form(self, rng):
        r = rng.standard_normal(50) * 3
        naive = float(np.mean(np.log(np.cosh(r))))
        assert logcosh_value(r) == pytest.approx(naive, abs=1e-12)

    def test_mse_value(self):
        assert mse_value(np.array([1.0, -3.0])) == pytest.approx(5.0)

    def test_loss_gradient_matches_fd(self, rng):
        pred_data = rng.standard_normal(12)
        target = rng.standard_normal(12)
        pred = Tensor(pred_data.copy())
        tape = Tape()
        backward(tape, logcosh_loss(tape, pred, target))
        eps = 1e-6
        for i in range(12):
            bumped = pred_data.copy()
            bumped[i] += eps
            f_plus = logcosh_value(bumped - target)
            bumped[i] -= 2 * eps
            f_minus = logcosh_value(bumped - target)
            numeric = (f_plus - f_minus) / (2 * eps)
            assert pred.grad[i] == pytest.approx(numeric, abs=1e-8)

    def test_loss_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            logcosh_loss(None, Tensor(np.zeros(3)), np.zeros(4))

    def test_config_validates_max_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)


class TestAdam:
    def test_first_step_hand_check(self):
        p = Tensor(np.array([1.0, -2.0]))
        opt = Adam({"p": p})
        g = np.array([0.5, -0.25])
        p.grad = g.copy()
        opt.step()
        # bias correction makes step one equal lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 1e-3 * g / (np.abs(g) + 1e-7)
        assert p.data == pytest.approx(expected, abs=1e-15)
        assert opt.t == 1

    def test_none_gradient_is_noop(self):
        p = Tensor(np.array([3.0]))
        opt = Adam({"p": p})
        opt.step()
        assert p.data == pytest.approx([3.0], abs=0)

    def test_zero_grads_clears(self):
        p = Tensor(np.array([3.0]))
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        opt.zero_grads()
        assert p.grad is None

    def test_lr_mutable_mid_run(self):
        p = Tensor(np.array([0.0]))
        opt = Adam({"p": p})
        opt.lr = 0.5
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.5, rel=1e-6)

    def test_descends_quadratic(self):
        # minimize (w - 3)^2 by explicit gradients
        w = Tensor(np.array([0.0]))
        opt = Adam({"w": w})
        opt.lr = 0.1
        for _ in range(500):
            opt.zero_grads()
            w.grad = 2.0 * (w.data - 3.0)
            opt.step()
        assert w.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_flat_buffer_bit_identical_to_per_tensor_update(self, rng):
        shapes = {"k": (6, 4), "b": (4,), "s": (1,), "r": (3, 2, 5)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: Tensor(v.copy()) for k, v in init.items()}
        opt = Adam(params)
        opt.lr = 0.01
        ref = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 8):
            if t == 5:
                opt.lr = 0.003
            opt.zero_grads()
            for k, p in params.items():
                p.grad = rng.standard_normal(shapes[k]) * 10.0 ** rng.integers(-6, 2)
            # the per-tensor formula
            bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            for k, p in params.items():
                g = p.grad
                m[k] = m[k] * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
                v[k] = v[k] * ADAM_BETA2 + (1.0 - ADAM_BETA2) * (g * g)
                ref[k] = ref[k] - opt.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS)
            opt.step()
            for k, p in params.items():
                assert p.data.shape == shapes[k]
                assert np.array_equal(p.data, ref[k]), (t, k)

    def test_absent_gradient_moves_once_moment_is_nonzero(self):
        p = Tensor(np.array([1.0, 2.0]))
        opt = Adam({"p": p})
        p.grad = np.array([0.5, 0.0])
        opt.step()
        after_first = p.data.copy()
        assert after_first[1] == 2.0  # zero moments: no move
        opt.zero_grads()
        opt.step()  # absent gradient counts as zero and the moments decay
        assert p.data[0] < after_first[0]
        assert p.data[1] == 2.0


def _fresh_copy(dataset, tmp_path, name):
    out = tmp_path / name
    save_dataset(dataset, out)
    return load_dataset(out)


class TestNeuralTraining:
    def test_early_stop_restores_best_epoch(self, small_dataset, monkeypatch):
        # min_delta so large no epoch after the first ever counts as an
        # improvement: stop at epoch 11, keep epoch 1 weights
        monkeypatch.setattr(train, "EARLY_STOP_MIN_DELTA", 1e9)
        cfg = TrainConfig(seed=9, max_epochs=40)
        bundle, history = train_variant("dnn_basic", small_dataset, cfg)
        assert history.stopped_early
        assert len(history.records) == 11
        assert history.best_epoch == 1
        assert bundle.meta["epochs"] == 11
        one_epoch, _ = train_variant("dnn_basic", small_dataset,
                                     TrainConfig(seed=9, max_epochs=1))
        for k in bundle.params:
            assert np.array_equal(bundle.params[k], one_epoch.params[k])

    def test_plateau_halves_lr(self, small_dataset, monkeypatch):
        monkeypatch.setattr(train, "EARLY_STOP_MIN_DELTA", 1e9)
        cfg = TrainConfig(seed=9, max_epochs=40)
        _, history = train_variant("dnn_basic", small_dataset, cfg)
        lrs = [r.lr for r in history.records]
        assert lrs == sorted(lrs, reverse=True)
        assert lrs[:6] == [1e-3] * 6  # halving lands after epoch 6's record
        assert lrs[6:] == [5e-4] * 5

    def test_plateau_respects_min_lr(self, small_dataset, monkeypatch):
        monkeypatch.setattr(train, "EARLY_STOP_PATIENCE", 50)
        monkeypatch.setattr(train, "EARLY_STOP_MIN_DELTA", 1e9)
        monkeypatch.setattr(train, "PLATEAU_PATIENCE", 1)
        cfg = TrainConfig(seed=9, max_epochs=14)
        _, history = train_variant("dnn_basic", small_dataset, cfg)
        lrs = [r.lr for r in history.records]
        assert lrs == sorted(lrs, reverse=True)
        assert min(lrs) == 1e-5
        assert lrs[-1] == 1e-5

    def test_rerun_bit_identical(self, small_dataset):
        cfg = TrainConfig(seed=12, max_epochs=3)
        a, _ = train_variant("dnn_basic", small_dataset, cfg)
        b, _ = train_variant("dnn_basic", small_dataset, cfg)
        assert serialize(a) == serialize(b)

    def test_seed_changes_weights(self, small_dataset):
        a, _ = train_variant("dnn_basic", small_dataset, TrainConfig(seed=12, max_epochs=1))
        b, _ = train_variant("dnn_basic", small_dataset, TrainConfig(seed=13, max_epochs=1))
        assert serialize(a) != serialize(b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_loss_raises(self, small_dataset, tmp_path):
        # poisoned inputs turn into NaN activations (relu would mask them,
        # elu propagates) and the loss guard must trip on the first batch
        ds = _fresh_copy(small_dataset, tmp_path, "doctored")
        ds.train.X[:] = np.inf
        with pytest.raises(DivergedLoss):
            train_variant("dnn_elu", ds, TrainConfig(seed=0, max_epochs=2))

    def test_empty_val_split_rejected(self, small_dataset, tmp_path):
        ds = _fresh_copy(small_dataset, tmp_path, "noval")
        ds.val = ds.val[:0]
        with pytest.raises(EmptySplit):
            train_neural(build_variant("dnn_basic"), ds, TrainConfig(seed=0, max_epochs=1))

    def test_history_csv_round_trips(self, small_dataset, tmp_path):
        _, history = train_variant("dnn_basic", small_dataset,
                                   TrainConfig(seed=12, max_epochs=2))
        path = tmp_path / "history.csv"
        history.write_csv(path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row, rec in zip(rows, history.records):
            assert float(row["train_loss"]) == rec.train_loss
            assert float(row["val_loss"]) == rec.val_loss
            assert float(row["lr"]) == rec.lr


class TestSolvers:
    def test_ols_exact_line(self, rng):
        x = rng.uniform(-5, 5, size=(40, 1))
        y = 2.0 * x[:, 0] + 3.0
        w, b = solve_ols(x, y)
        assert w == pytest.approx([2.0], abs=1e-10)
        assert b == pytest.approx(3.0, abs=1e-10)

    def test_ols_matches_normal_equations(self, rng):
        for _ in range(5):
            X = rng.standard_normal((60, 8))
            y = rng.standard_normal(60)
            w, b = solve_ols(X, y)
            A = np.hstack([X, np.ones((60, 1))])
            beta = np.linalg.solve(A.T @ A, A.T @ y)
            assert w == pytest.approx(beta[:-1], abs=1e-8)
            assert b == pytest.approx(beta[-1], abs=1e-8)

    def test_ols_rank_deficient_minimum_norm(self, rng):
        X = rng.standard_normal((30, 3))
        X = np.hstack([X, X[:, :1]])  # duplicated column
        y = rng.standard_normal(30)
        w, b = solve_ols(X, y)  # must not raise
        assert np.all(np.isfinite(w)) and math.isfinite(b)

    def test_ridge_matches_augmented_least_squares(self, rng):
        for lam in (0.01, 0.5, 5.0):
            X = rng.standard_normal((50, 6)) + 1.0
            y = rng.standard_normal(50) + 2.0
            w, b = solve_ridge(X, y, lam)
            n = len(y)
            Xc = X - X.mean(axis=0)
            yc = y - y.mean()
            aug = np.vstack([Xc, math.sqrt(lam * n) * np.eye(6)])
            target = np.concatenate([yc, np.zeros(6)])
            w_ref, *_ = np.linalg.lstsq(aug, target, rcond=None)
            assert w == pytest.approx(w_ref, abs=1e-8)
            assert b == pytest.approx(y.mean() - X.mean(axis=0) @ w, abs=1e-10)

    def test_ridge_zero_penalty_equals_ols(self, rng):
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        w_r, b_r = solve_ridge(X, y, 0.0)
        w_o, b_o = solve_ols(X, y)
        assert w_r == pytest.approx(w_o, abs=1e-8)
        assert b_r == pytest.approx(b_o, abs=1e-8)

    def test_ridge_singular_without_penalty(self, rng):
        X = np.ones((20, 2))  # constant columns center to zero
        y = rng.standard_normal(20)
        with pytest.raises(SingularSystem):
            solve_ridge(X, y, 0.0)

    def test_ridge_negative_penalty_rejected(self, rng):
        with pytest.raises(ValueError):
            solve_ridge(rng.standard_normal((10, 2)), rng.standard_normal(10), -1.0)

    def test_lasso_satisfies_kkt(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            X = r.standard_normal((80, 10))
            y = X @ r.standard_normal(10) + 0.1 * r.standard_normal(80)
            for l1, l2 in ((0.05, 0.0), (0.05, 0.02), (0.5, 0.0)):
                w, b, iterations = solve_lasso(X, y, l1, l2)
                assert iterations >= 1
                assert kkt_residual(X, y, w, b, l1, l2) <= 1e-6

    def test_lasso_exact_on_nearly_collinear_columns(self, rng):
        # two columns correlated at about 0.99996, as two scaled link
        # features are: the active-set solve ends in a few iterations with
        # the optimality residual at rounding level
        X = rng.standard_normal((200, 6))
        X[:, 1] = X[:, 0] + 0.009 * rng.standard_normal(200)
        y = X @ np.array([1.0, 0.5, 0.0, -0.3, 0.0, 0.2]) + 0.1 * rng.standard_normal(200)
        for l1, l2 in ((0.01, 0.0), (0.005, 0.005)):
            w, b, iterations = solve_lasso(X, y, l1, l2)
            assert iterations <= 20
            assert kkt_residual(X, y, w, b, l1, l2) <= 1e-12

    def test_lasso_large_l1_zeroes_coefficients(self, rng):
        X = rng.standard_normal((60, 8))
        y = X[:, 0] * 2.0 + 0.05 * rng.standard_normal(60)
        w, _, _ = solve_lasso(X, y, l1=1.0)
        assert np.sum(w == 0.0) >= 6  # only the informative coordinate survives

    def test_lasso_without_l1_matches_ridge(self, rng):
        X = rng.standard_normal((70, 5))
        y = rng.standard_normal(70)
        lam = 0.3
        w_cd, b_cd, _ = solve_lasso(X, y, l1=0.0, l2=lam, tol=1e-12)
        # the objective mse + l2*sum w^2 matches ridge's mse + lam*||w||^2
        w_r, b_r = solve_ridge(X, y, lam)
        assert w_cd == pytest.approx(w_r, abs=1e-6)
        assert b_cd == pytest.approx(b_r, abs=1e-6)

    def test_lasso_no_convergence(self, rng):
        X = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        with pytest.raises(NoConvergence):
            solve_lasso(X, y, l1=0.01, max_iter=1)

    def test_ols_kkt_residual_zero(self, rng):
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        w, b = solve_ols(X, y)
        assert kkt_residual(X, y, w, b, l1=0.0) <= 1e-9

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            solve_ols(rng.standard_normal((5, 2)), rng.standard_normal(6))
        with pytest.raises(LengthMismatch):
            solve_ridge(rng.standard_normal((5, 2)), rng.standard_normal(6), 0.1)
        with pytest.raises(LengthMismatch):
            solve_lasso(rng.standard_normal((5, 2)), rng.standard_normal(6), 0.1)


class TestFitLinear:
    def test_lin_basic_is_ols(self, small_dataset):
        bundle, history = fit_linear("lin_basic", small_dataset, TrainConfig(seed=0))
        X, y = small_dataset.train.X, small_dataset.train.y
        w, b = solve_ols(X.reshape(len(X), -1), y)
        assert bundle.params["weights"][:, 0] == pytest.approx(w, abs=1e-6)
        assert bundle.params["bias"][0] == pytest.approx(b, abs=1e-6)
        assert bundle.meta["epochs"] == 1
        assert history.best_epoch == 1

    def test_l1_variant_reports_sweeps(self, small_dataset):
        bundle, _ = fit_linear("lin_l1", small_dataset, TrainConfig(seed=0))
        assert bundle.meta["epochs"] > 1  # feature-sign search iteration count

    def test_non_linear_variant_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            fit_linear("gru_basic", small_dataset, TrainConfig(seed=0))

    def test_empty_train_rejected(self, small_dataset, tmp_path):
        ds = _fresh_copy(small_dataset, tmp_path, "notrain")
        ds.train = ds.train[:0]
        with pytest.raises(EmptySplit):
            fit_linear("lin_basic", ds, TrainConfig(seed=0))


class TestRunAll:
    def test_writes_bundles_histories_summary(self, small_dataset, tmp_path):
        out = tmp_path / "models"
        outcomes = run_all_variants(small_dataset, TrainConfig(seed=5, max_epochs=1), out)
        assert [o.variant_id for o in outcomes] == list(ALL_VARIANTS)
        assert all(o.status == "ok" for o in outcomes)
        for vid in ALL_VARIANTS:
            assert (out / f"{vid}.bundle.json").exists()
            assert (out / f"{vid}.history.csv").exists()
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant_id"] for r in rows] == list(ALL_VARIANTS)
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["val_loss"]) >= 0.0 or True for r in rows)  # parses

    def test_per_variant_seed_derivation(self, small_dataset, tmp_path):
        out = tmp_path / "models"
        outcomes = run_all_variants(small_dataset, TrainConfig(seed=5, max_epochs=1), out)
        by_id = {o.variant_id: o for o in outcomes}
        assert by_id["lin_basic"].bundle.meta["seed"] == derive_seed(5, "variant:lin_basic")
        assert by_id["dnn_basic"].bundle.meta["seed"] == derive_seed(5, "variant:dnn_basic")

    def test_failures_recorded_not_fatal(self, small_dataset, tmp_path):
        ds = _fresh_copy(small_dataset, tmp_path, "noval")
        ds.val = ds.val[:0]
        out = tmp_path / "models"
        outcomes = run_all_variants(ds, TrainConfig(seed=5, max_epochs=1), out)
        by_id = {o.variant_id: o for o in outcomes}
        for vid in LINEAR_VARIANTS:
            assert by_id[vid].status == "ok"  # linear fit needs no val split
        neural = [o for o in outcomes if o.variant_id not in LINEAR_VARIANTS]
        assert all(o.status.startswith("failed: ") for o in neural)
        assert all(o.bundle is None for o in neural)
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            rows = {r["variant_id"]: r for r in csv.DictReader(fh)}
        assert rows["gru_basic"]["status"].startswith("failed: ")
        assert rows["gru_basic"]["epochs"] == ""
        assert not (out / "gru_basic.bundle.json").exists()

    def test_pool_matches_one_process_fits(self, small_dataset, tmp_path, monkeypatch):
        # every worker's bundle is byte for byte the fit of one process with
        # one BLAS thread, and its history differs at most in the wall-clock
        # column; the caller's BLAS variables come back as they were
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        config = TrainConfig(seed=5, max_epochs=2)
        out = tmp_path / "models"
        run_all_variants(small_dataset, config, out)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ

        (tmp_path / "ds.pkl").write_bytes(pickle.dumps(small_dataset))
        script = (
            "import pickle, sys\n"
            "from dataclasses import replace\n"
            "from pathlib import Path\n"
            "from qoecast.seeding import derive_seed\n"
            "from qoecast.train import TrainConfig, train_variant\n"
            "from qoecast.zoo import ALL_VARIANTS, save_bundle\n"
            "ds = pickle.loads(Path(sys.argv[1]).read_bytes())\n"
            "ref = Path(sys.argv[2])\n"
            "ref.mkdir()\n"
            "config = TrainConfig(seed=5, max_epochs=2)\n"
            "for vid in ALL_VARIANTS:\n"
            "    cfg = replace(config, seed=derive_seed(config.seed, f'variant:{vid}'))\n"
            "    bundle, history = train_variant(vid, ds, cfg)\n"
            "    save_bundle(bundle, ref / f'{vid}.bundle.json')\n"
            "    history.write_csv(ref / f'{vid}.history.csv')\n"
        )
        ref = tmp_path / "one_process"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "ds.pkl"), str(ref)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        for vid in ALL_VARIANTS:
            name = f"{vid}.bundle.json"
            assert (out / name).read_bytes() == (ref / name).read_bytes(), vid
            name = f"{vid}.history.csv"
            assert _sans_seconds(out / name) == _sans_seconds(ref / name), vid

    @pytest.fixture(scope="class")
    def cli_runs(self, small_dataset, tmp_path_factory):
        """`train --all` and `train --variant dnn_basic`, one epoch each."""
        root = tmp_path_factory.mktemp("train_cli")
        save_dataset(small_dataset, root / "ds")
        for name, mode in (("all", ["--all"]), ("one", ["--variant", "dnn_basic"])):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["train", "--data", str(root / "ds"), *mode,
                             "--max-epochs", "1", "--out", str(root / name)]) == 0
        return root

    def test_manifest_records_workers_and_fit_times(self, cli_runs):
        manifests = {}
        for name in ("all", "one"):
            manifest = json.loads((cli_runs / name / "manifest.json").read_text())
            assert manifest["wall_s"] > 0.0
            for rec in manifest["variants"]:
                assert rec["status"] == "ok"
                assert rec["epochs"] >= 1
                assert rec["fit_s"] >= 0.0
            manifests[name] = manifest
        run_all, one = manifests["all"], manifests["one"]
        assert run_all["workers"] == pool_workers() >= 1
        assert [r["variant_id"] for r in run_all["variants"]] == list(ALL_VARIANTS)
        assert [r["variant_id"] for r in one["variants"]] == ["dnn_basic"]
        assert "workers" not in one
        # wall-clock values stay out of summary.csv
        with (cli_runs / "all" / "summary.csv").open(newline="", encoding="utf-8") as fh:
            assert "fit_s" not in next(csv.reader(fh))

    @pytest.mark.parametrize("mode", ["all", "one"])
    def test_manifest_lists_every_file_written(self, cli_runs, mode):
        # `--all` used to leave out the 18 history.csv files
        out = cli_runs / mode
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["artifacts"] == written
        assert len(written) == (37 if mode == "all" else 2)

    def test_dead_worker_fails_its_variants_without_hanging(self, tmp_path):
        # the dataset's unpickling ends the worker process before any fit
        # starts: every variant comes back failed and the summary is written
        script = (
            "import json, os, sys\n"
            "from qoecast.train import TrainConfig, run_all_variants\n"
            "class Fatal:\n"
            "    def __reduce__(self):\n"
            "        return (os._exit, (1,))\n"
            "outcomes = run_all_variants(Fatal(), TrainConfig(seed=5, max_epochs=1), "
            "sys.argv[1])\n"
            "print(json.dumps([[o.variant_id, o.status] for o in outcomes]))\n"
        )
        out = tmp_path / "models"
        proc = subprocess.run([sys.executable, "-c", script, str(out)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        outcomes = json.loads(proc.stdout.splitlines()[-1])
        assert [vid for vid, _ in outcomes] == list(ALL_VARIANTS)
        assert all(status.startswith("failed: ") for _, status in outcomes)
        with (out / "summary.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant_id"] for r in rows] == list(ALL_VARIANTS)
        assert all(r["status"].startswith("failed: ") for r in rows)
        assert not list(out.glob("*.bundle.json"))


def _sans_seconds(path):
    return [row[:4] for row in csv.reader(path.read_text().splitlines())]
