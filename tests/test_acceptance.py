"""Acceptance gate: ten numbered release criteria, one test each.

Every test prints a single "ACCEPTANCE n: PASS/FAIL" line (visible with
pytest -s) and asserts the same condition, with tolerances stated inline.
Criteria 3 and 4 train real models, so this module takes a few minutes;
wall-clock bounds are part of the criteria and are asserted too.
"""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qoecast.cli import main
from qoecast.evaluation import LatencyBudget, benchmark_latency, evaluate, evaluate_baseline
from qoecast.explain import integrated_gradients
from qoecast.nncore import Tape, reduce_sum
from qoecast.pipeline import (
    build_dataset,
    inverse_target,
    scale_features,
    window_trace,
)
from qoecast.seeding import derive_seed
from qoecast.serve import FeedbackPolicy, StreamState, run_stream
from qoecast.synthgen import GeneratorConfig, generate_trace, qoe_oracle
from qoecast.telemetry import TelemetrySample, write_trace
from qoecast.train import (
    TrainConfig,
    logcosh_value,
    run_all_variants,
    solve_lasso,
    solve_ols,
    solve_ridge,
)
from qoecast.zoo import (
    ALL_VARIANTS,
    BundleRunner,
    LINEAR_VARIANTS,
    NEURAL_VARIANTS,
    ModelBundle,
    build_variant,
    load_bundle,
)
from op_reference import mul
from oracles import gradient_check, kkt_residual

DATA_DIR = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _init_bundle(vid: str, scaler, seed: int = 0) -> ModelBundle:
    model = build_variant(vid)
    params = {k: np.asarray(v, dtype=np.float32)
              for k, v in model.init_params(seed).items()}
    return ModelBundle(variant_id=vid,
                       scaler=scaler, params=params, meta={})


def test_criterion_01_gradient_correctness():
    # analytic vs central differences (eps=1e-4), rel err <= 1e-5,
    # every variant x 3 seeds, total under 2 minutes
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    nonsmooth = 0
    for vid in ALL_VARIANTS:
        model = build_variant(vid)
        for seed in (0, 1, 2):
            params = model.init_params(seed)
            rng = np.random.default_rng(1000 + seed)
            x = rng.uniform(0.0, 1.0, size=(2, 5, 6))
            wout = rng.standard_normal(2)

            def fn(pt, xt, tape):
                pred, _ = model.forward(pt, xt, tape=tape)
                return reduce_sum(tape, mul(tape, pred, wout))

            rep = gradient_check(fn, params, x, eps=1e-4, tol_rel=1e-5,
                                 max_entries=64, seed=seed)
            worst = max(worst, rep.max_rel_err)
            checked += rep.checked_entries
            nonsmooth += rep.nonsmooth_entries
            assert rep.passed, f"{vid} seed {seed}: rel err {rep.max_rel_err}"
            assert rep.checked_entries > 0
    elapsed = time.perf_counter() - start
    # relu-kink straddles may be excluded, but only ever a handful
    assert nonsmooth <= checked // 100, (nonsmooth, checked)
    _report(1, worst <= 1e-5 and elapsed <= 120.0,
            f"max rel err {worst:.2e} over {len(ALL_VARIANTS)} variants x 3 "
            f"seeds, {checked} coordinates ({nonsmooth} kink-straddles "
            f"excluded), in {elapsed:.1f} s (tol 1e-5, budget 120 s)")


def test_criterion_02_linear_solver_oracles():
    worst_coef = 0.0
    worst_kkt = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 8))
        w_true = rng.standard_normal(8)
        y = X @ w_true + 0.5 + 0.1 * rng.standard_normal(40)

        w, b = solve_ols(X, y)
        A = np.hstack([X, np.ones((40, 1))])
        beta = np.linalg.solve(A.T @ A, A.T @ y)  # independent normal equations
        worst_coef = max(worst_coef, float(np.max(np.abs(w - beta[:8]))),
                         abs(b - beta[8]))

        lam = 0.1
        w, b = solve_ridge(X, y, lam)
        xm, ym = X.mean(axis=0), y.mean()
        Xc, yc = X - xm, y - ym
        w_ref = np.linalg.solve(Xc.T @ Xc + lam * len(y) * np.eye(8), Xc.T @ yc)
        worst_coef = max(worst_coef, float(np.max(np.abs(w - w_ref))),
                         abs(b - (ym - xm @ w_ref)))

        for l1, l2 in ((0.05, 0.0), (0.05, 0.02)):
            w, b, _ = solve_lasso(X, y, l1=l1, l2=l2)
            worst_kkt = max(worst_kkt, kkt_residual(X, y, w, b, l1, l2))
    _report(2, worst_coef <= 1e-8 and worst_kkt <= 1e-6,
            f"OLS/ridge max coef dev {worst_coef:.2e} (tol 1e-8), "
            f"lasso/elasticnet max KKT residual {worst_kkt:.2e} (tol 1e-6) "
            f"on 5 seeded problems")


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    assert main(["generate", "--seed", "5", "--traces", "2",
                 "--duration", "600", "--out", str(root / "data")]) == 0
    assert main(["prepare", "--data", str(root / "data"),
                 "--out", str(root / "ds")]) == 0
    return root


def test_criterion_03_train_all_determinism(cli_dataset):
    runs = []
    for name in ("run_a", "run_b"):
        out = cli_dataset / name
        assert main(["train", "--data", str(cli_dataset / "ds"), "--all",
                     "--seed", "3", "--max-epochs", "4",
                     "--out", str(out)]) == 0
        runs.append(out)
    a, b = runs
    names = ["summary.csv"] + [f"{vid}.bundle.json" for vid in ALL_VARIANTS]
    diffs = [n for n in names
             if (a / n).read_bytes() != (b / n).read_bytes()]

    def _sans_timing(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:4]) for r in rows]  # drop seconds col

    hist_diffs = [v for v in ALL_VARIANTS
                  if _sans_timing(a / f"{v}.history.csv")
                  != _sans_timing(b / f"{v}.history.csv")]
    _report(3, not diffs and not hist_diffs,
            f"two train --all runs with seed 3: summary.csv and "
            f"{len(ALL_VARIANTS)} bundles bit-identical, histories "
            f"identical up to wall-clock column"
            + (f"; differing: {diffs + hist_diffs}" if diffs or hist_diffs
               else ""))


def test_criterion_04_desk_benchmark(tmp_path):
    start = time.perf_counter()
    traces = [generate_trace(GeneratorConfig(seed=derive_seed(1, f"trace:{i}"),
                                             duration_s=600,
                                             trace_id=f"trace_{i:02d}"))
              for i in range(6)]
    ds = build_dataset(traces)
    n_seq = sum(len(getattr(ds, p)) for p in ("train", "val", "test"))
    assert n_seq == 330

    outcomes = run_all_variants(ds, TrainConfig(seed=1), tmp_path)
    failed = [o.variant_id for o in outcomes if o.bundle is None]
    assert not failed, f"variants failed to train: {failed}"

    mae = {o.variant_id: evaluate(o.bundle, ds).mae for o in outcomes}
    baseline = evaluate_baseline(ds).mae
    elapsed = time.perf_counter() - start

    # reported, not asserted: recurrent pairs on this synthetic workload
    for g, l in (("gru_basic", "lstm_basic"), ("gru_wide", "lstm_wide"),
                 ("gru_deep", "lstm_deep")):
        rel = "<" if mae[g] < mae[l] else ">="
        print(f"  note: {g} MAE {mae[g]:.4f} {rel} {l} MAE {mae[l]:.4f}")

    ok = (mae["gru_basic"] < mae["lin_basic"]
          and mae["gru_basic"] < baseline
          and elapsed <= 900.0)
    _report(4, ok,
            f"seed-1 benchmark ({n_seq} sequences, 18/18 trained, "
            f"{elapsed:.0f} s of 900): gru_basic MAE {mae['gru_basic']:.4f} "
            f"< lin_basic {mae['lin_basic']:.4f} and < last_value "
            f"{baseline:.4f} (VMAF units)")


def test_criterion_05_logcosh_spots():
    v1 = logcosh_value(np.array([1.0]))
    v20 = logcosh_value(np.array([20.0]))
    with np.errstate(over="raise"):  # stable form must not overflow
        big = logcosh_value(np.array([1e6]))
    ok = (abs(v1 - 0.433781) <= 1e-6 and abs(v20 - 19.306853) <= 1e-6
          and np.isfinite(big))
    _report(5, ok,
            f"logcosh(1)={v1:.9f} (0.433781 +/- 1e-6), "
            f"logcosh(20)={v20:.9f} (19.306853 +/- 1e-6), "
            f"logcosh(1e6) finite={np.isfinite(big)}")


def test_criterion_06_oracle_spots():
    s1 = qoe_oracle(50.0, 5.0, 10.0)
    s2 = qoe_oracle(5.0, 0.0, 20.0)
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(1000):
        thr = rng.uniform(0.0, 60.0, size=2)
        loss = rng.uniform(0.0, 10.0, size=2)
        jit = rng.uniform(0.0, 100.0, size=2)
        better = qoe_oracle(max(thr), min(loss), min(jit))
        worse = qoe_oracle(min(thr), max(loss), max(jit))
        if better < worse - 1e-12:
            violations += 1
    ok = (abs(s1 - 17.377) <= 1e-3 and abs(s2 - 20.0) <= 1e-9
          and violations == 0)
    _report(6, ok,
            f"oracle(50,5,10)={s1:.6f} (17.377 +/- 1e-3), "
            f"oracle(5,0,20)={s2:.12f} (20 +/- 1e-9), "
            f"monotonicity violations {violations}/1000")


def test_criterion_07_pipeline_invariants():
    checked = 0
    for i in range(50):
        cfg = GeneratorConfig(seed=derive_seed(7, f"trace:{i}"),
                              duration_s=150 + (i % 10) * 45,
                              trace_id=f"t{i:02d}")
        trace = generate_trace(cfg)
        ds = build_dataset([trace])
        tr, va, te = ds.train, ds.val, ds.test

        # chronological: every train target precedes val precedes test
        assert max(tr.target_ts_ms) < min(va.target_ts_ms)
        assert max(va.target_ts_ms) < min(te.target_ts_ms)

        # scaler stats must equal an independent refit on train windows only
        windows = window_trace(trace).windows
        raw = np.stack([w.features for w in windows])
        used = sorted({w for _, first in tr.origin
                       for w in range(first, first + 6)})
        assert np.array_equal(ds.scaler.mins, raw[used].min(axis=0))
        assert np.array_equal(ds.scaler.maxs, raw[used].max(axis=0))

        # gapless trace: sequence count is windows minus context
        assert len(tr) + len(va) + len(te) == len(windows) - 5

        # scaling round-trips within 1e-9, features and targets alike
        scaled = scale_features(ds.scaler, raw)
        span = ds.scaler.maxs - ds.scaler.mins
        live = ~ds.scaler.degenerate
        back = scaled[:, live] * span[live] + ds.scaler.mins[live]
        assert np.max(np.abs(back - raw[:, live])) <= 1e-9
        for part in (tr, va, te):
            for (_, first), target in zip(part.origin, part.y):
                target_window = first + 5
                assert abs(inverse_target(ds.scaler, target)
                           - raw[target_window, 5]) <= 1e-9
        checked += 1
    _report(7, checked == 50,
            f"split ordering, train-only scaler refit, count formula and "
            f"1e-9 round-trip held on {checked}/50 random traces")


def test_criterion_08_explainability(small_dataset, linear_bundle):
    inputs = list(small_dataset.test.X[:10])

    worst_rel = 0.0
    for vid in NEURAL_VARIANTS:
        bundle = _init_bundle(vid, small_dataset.scaler)
        for x in inputs:
            att = integrated_gradients(BundleRunner(bundle), x, steps=256)
            bound = max(0.01 * abs(att.prediction - att.baseline_prediction),
                        1e-6)
            assert att.completeness_gap <= bound, (vid, att.completeness_gap)
            denom = max(abs(att.prediction - att.baseline_prediction), 1e-6)
            worst_rel = max(worst_rel, att.completeness_gap / denom)

    att = integrated_gradients(BundleRunner(linear_bundle), inputs[0])
    w = np.asarray(linear_bundle.params["weights"],
                   dtype=np.float64).reshape(5, 6)
    exact = np.array_equal(att.values, w * inputs[0])

    batch = np.stack(inputs[:4])
    off = 0.0
    with_attention = [v for v in NEURAL_VARIANTS if not v.startswith("dnn")]
    for vid in with_attention:
        runner = BundleRunner(_init_bundle(vid, small_dataset.scaler))
        _, aux = runner.predict(batch)
        rows = np.sum(np.asarray(aux["attention"]), axis=-1)
        off = max(off, float(np.max(np.abs(rows - 1.0))))

    ok = worst_rel <= 0.01 and exact and off <= 1e-6
    _report(8, ok,
            f"IG completeness gap <= 1% at 256 steps on "
            f"{len(NEURAL_VARIANTS)} neural variants x 10 inputs "
            f"(worst {worst_rel:.2e}); linear IG exact={exact}; "
            f"attention rows sum to 1 within {off:.2e} "
            f"across {len(with_attention)} variants")


def test_criterion_09_latency_protocol(gru_bundle):
    stats = benchmark_latency(gru_bundle, seed=0)
    budget = LatencyBudget(66.0, 18.0, 20.0, 20.0, 7.0)
    ok = (stats.batch_size == 16 and stats.mean_ms <= 10.0
          and budget.total_ms == 131.0)
    _report(9, ok,
            f"gru_basic batch-16 mean {stats.mean_ms:.3f} ms (bound 10 ms, "
            f"{stats.reps} reps); LatencyBudget(66,18,20,20,7) = "
            f"{budget.total_ms} ms (exactly 131)")


def test_criterion_10_streaming_serve(small_dataset):
    bundle = load_bundle(DATA_DIR / "lastvalue.bundle.json")
    lines = (DATA_DIR / "golden_input.ndjson").read_text(encoding="utf-8") \
        .splitlines(keepends=True)
    expected = (DATA_DIR / "golden_expected.ndjson").read_text(encoding="utf-8")
    out = io.StringIO()
    run_stream(bundle, FeedbackPolicy(), lines, out, clock=lambda: 0.0)
    byte_exact = out.getvalue() == expected

    # offline predictions over the same trace must match the stream
    gru = _init_bundle("gru_basic", small_dataset.scaler)
    trace = generate_trace(GeneratorConfig(seed=derive_seed(10, "trace:0"),
                                           duration_s=300, trace_id="eq"))
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "eq.ndjson"
        write_trace(trace, path, inband_qoe=True)
        stream_lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    sout = io.StringIO()
    run_stream(gru, FeedbackPolicy(), stream_lines, sout, clock=lambda: 0.0)
    streamed = [json.loads(l)["qoe_pred"] for l in sout.getvalue().splitlines()
                if "qoe_pred" in l]
    windows = window_trace(trace).windows
    scaled = scale_features(gru.scaler, np.stack([w.features for w in windows]))
    runner = BundleRunner(gru)
    max_dev = 0.0
    for k, got in enumerate(streamed):
        pred, _ = runner.predict(scaled[k : k + 5][None])
        offline = float(inverse_target(gru.scaler, pred[0]))
        max_dev = max(max_dev, abs(got - offline))

    # a decision appears exactly when the 5th window completes
    state = StreamState(bundle, FeedbackPolicy())
    first_at = None
    for i in range(60):
        d = state.ingest(TelemetrySample(ts_ms=i * 1000, throughput_mbps=30.0,
                                         jitter_ms=15.0, loss_rate=0.01,
                                         loss_count=10, speed_kmh=40.0))
        if d is not None:
            first_at = (i, d.ts_ms)
            break

    ok = byte_exact and max_dev <= 1e-9 and first_at == (49, 50000)
    _report(10, ok,
            f"golden replay byte-exact={byte_exact}; streaming vs offline "
            f"max deviation {max_dev:.2e} over {len(streamed)} forecasts "
            f"(tol 1e-9); first decision at tick {first_at[0]} ts "
            f"{first_at[1]} ms (50 s)")


def test_linear_variants_complete_registry():
    assert set(NEURAL_VARIANTS) | set(LINEAR_VARIANTS) == set(ALL_VARIANTS)
    assert len(NEURAL_VARIANTS) == 14 and len(LINEAR_VARIANTS) == 4
