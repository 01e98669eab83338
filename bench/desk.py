"""desk: the paper's accuracy and latency table.

Set-up generates and prepares the seed-1 corpus. The run trains all 18
variants with `train --all` (one pass), runs `benchmark`, then times zoo
rounds -- a batch-1 and a batch-16 forward through every bundle -- until
the run length is spent. The corpus is the same for every seed; the seed
picks the test rows the zoo rounds forecast.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference as ref
from common import Ctx, Outcome, clock, cli_call, desk_dataset, median
from qoecast import zoo
from tracing import VARIANTS

WARMUP_ROUNDS = 5


def setup(ctx: Ctx) -> Path:
    return desk_dataset(ctx.work)


def run(ctx: Ctx, ds: Path) -> Outcome:
    out = Outcome()
    run_dir = ctx.work / "run"
    X_test = ref.read_split(ds, "test")[0]
    pick = ctx.rng(1).choice(len(X_test), 17, replace=False)
    x1, x16 = X_test[pick[:1]], X_test[pick[1:]]

    with ctx.measuring():
        t0 = clock()
        cli_call("train", "--data", ds, "--all", "--seed", 1, "--out", run_dir)
        out.passes.append(clock() - t0)
        cli_call("benchmark", "--data", ds, "--run", run_dir, "--seed", 1)
        runners = [zoo.BundleRunner(zoo.load_bundle(run_dir / f"{v}.bundle.json"))
                   for v in VARIANTS]
    # warm-up stays out of the traced zoo.predict figures
    for _ in range(WARMUP_ROUNDS):
        for r in runners:
            r.predict(x1)
            r.predict(x16)
    b1 = [[] for _ in runners]
    b16 = [[] for _ in runners]
    with ctx.measuring():
        end = clock() + ctx.seconds
        while clock() < end:
            t_round = clock()
            for i, r in enumerate(runners):
                t0 = clock()
                r.predict(x1)
                t1 = clock()
                r.predict(x16)
                t2 = clock()
                b1[i].append(t1 - t0)
                b16[i].append(t2 - t1)
            out.ops_ms.append((clock() - t_round) * 1e3)

    out.named = {
        "train_all_s": (out.passes[0], "s"),
        "zoo_b1_ms": (sum(median(t) for t in b1) * 1e3, "ms"),
        "zoo_b16_ms": (sum(median(t) for t in b16) * 1e3, "ms"),
        "zoo_rounds": (len(out.ops_ms), "count"),
    }
    check(out, ds, run_dir, {v: r for v, r in zip(VARIANTS, runners)})
    return out


def check(out: Outcome, ds: Path, run_dir: Path, runners: dict) -> None:
    """Bundles, solvers and the metrics table against the reference."""
    X_tr, y_tr, _ = ref.read_split(ds, "train")
    X_te, y_te, _ = ref.read_split(ds, "test")
    bundles = {v: ref.read_bundle(run_dir / f"{v}.bundle.json") for v in runners}
    for v, b in bundles.items():
        out.check(b["checksum_ok"], f"{v}: stored checksum differs from the parameters")

    Xf = X_tr.reshape(len(X_tr), -1)
    Xf_te = X_te.reshape(len(X_te), -1)
    if "lin_basic" in runners:
        w, b = ref.ols(Xf, y_tr)
        got = runners["lin_basic"].predict(X_te)[0]
        p = bundles["lin_basic"]["params"]
        tol = 2 * ref.F32_EPS * (np.abs(Xf_te) @ np.abs(p["weights"][:, 0])
                                 + abs(p["bias"][0])) + 1e-9
        out.check(bool(np.all(np.abs(got - (Xf_te @ w + b)) <= tol)),
                  "lin_basic: predictions differ from least squares")
    for v, (l1, l2) in ref.LINEAR_PENALTIES.items():
        if v not in runners:
            continue
        p = bundles[v]["params"]
        worst, allowance = ref.kkt_violation(Xf, y_tr, p["weights"][:, 0],
                                             float(p["bias"][0]), l1, l2)
        out.check(worst <= 1e-7 + 2 * allowance,
                  f"{v}: optimality violated by {worst:.3g} (float32 allows {allowance:.3g})")

    with (run_dir / "metrics.csv").open(newline="") as fh:
        table = {r["variant_id"]: r for r in csv.DictReader(fh)}
    scaler = ref.scaler_of(json.loads((ds / "scaler.json").read_text()))
    truth = ref.unscale_target(scaler, y_te)
    mae = {}
    preds = {v: r.predict(X_te)[0] for v, r in runners.items()}
    preds["last_value"] = X_te[:, -1, 5]
    for v, pred in preds.items():
        err = ref.unscale_target(scaler, pred) - truth
        mae[v] = float(np.abs(err).mean())
        rmse = float(np.sqrt(np.mean(err * err)))
        row = table.get(v)
        ok = (row is not None and rmse >= mae[v]
              and abs(float(row["mae"]) - mae[v]) <= 1e-9 * mae[v]
              and abs(float(row["rmse"]) - rmse) <= 1e-9 * rmse)
        out.check(ok, f"{v}: metrics.csv row {row and (row['mae'], row['rmse'])} "
                      f"!= recomputed mae {mae[v]!r} rmse {rmse!r}")
    if "gru_basic" in mae:
        out.check(mae["gru_basic"] < mae["last_value"],
                  f"gru_basic MAE {mae['gru_basic']:.4f} does not beat "
                  f"last value {mae['last_value']:.4f}")
