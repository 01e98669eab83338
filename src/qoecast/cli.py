"""Command-line entry point.

Six subcommands mirror the workflow: generate traces, prepare a dataset,
train variants, benchmark them (accuracy, latency, rankings and error
densities in one run directory), explain single predictions, serve a
stream. Exit codes: 0 success, 1 usage error, 2 data/domain error,
3 internal error. Each artifact-producing run writes a manifest recording
the exact invocation and the master seed, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MalformedRow, QoecastError
from .evaluation import (
    LatencyBudget,
    benchmark_latency,
    check_scaler,
    evaluate,
    evaluate_baseline,
    export_error_density,
    rank_variants,
    write_metrics_csv,
)
from .explain import IG_STEPS, attention_map, check_steps, integrated_gradients, lime_local
from .pipeline import HORIZON, PARTS, build_dataset, load_dataset, save_dataset
from .seeding import derive_seed
from .serve import FeedbackPolicy, run_stream
from .synthgen import GeneratorConfig, generate_trace
from .telemetry import WINDOW_S, load_trace, write_trace
from .train import (
    TrainConfig,
    VariantOutcome,
    pool_workers,
    run_all_variants,
    train_and_save,
)
from .zoo import ALL_VARIANTS, BundleRunner, load_bundle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _checked(convert, check):
    """An argparse type: convert the text, then run the library's own check
    on the value, so a value the library rejects is a usage error."""
    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except (QoecastError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


def _check_traces(n: int) -> None:
    # no library function takes a trace count, so the check lives here
    if n < 1:
        raise ValueError(f"traces must be at least 1, got {n}")


def _write_manifest(out_dir: Path, command: str, args_ns: argparse.Namespace,
                    seed: int | None, artifacts: list[str], **extra) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "qoecast",
        "version": __version__,
        "command": command,
        "argv": sys.argv[1:],
        "options": {k: v for k, v in vars(args_ns).items() if k != "func"},
        "master_seed": seed,
        "created_unix": time.time(),
        "artifacts": sorted(artifacts),
        **extra,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for i in range(args.traces):
        cfg = GeneratorConfig(
            seed=derive_seed(args.seed, f"trace:{i}"),
            duration_s=args.duration,
            trace_id=f"trace_{i:02d}",
        )
        trace = generate_trace(cfg)
        trace_path = out / f"trace_{i:02d}.{args.format}"  # the suffix names the format
        labels_path = out / f"labels_{i:02d}.csv"
        write_trace(trace, trace_path, labels_path=labels_path,
                    inband_qoe=args.inband_qoe)
        artifacts += [trace_path.name, labels_path.name]
    _write_manifest(out, "generate", args, args.seed, artifacts)
    print(f"wrote {args.traces} trace(s) of {args.duration} s to {out}")
    return 0


def _load_traces(data_dir: Path):
    traces = []
    paths = sorted(list(data_dir.glob("trace_*.csv")) + list(data_dir.glob("trace_*.ndjson")))
    if not paths:
        raise QoecastError(f"no trace_*.csv / trace_*.ndjson files in {data_dir}")
    for p in paths:
        labels = data_dir / p.name.replace("trace_", "labels_").replace(p.suffix, ".csv")
        try:
            traces.append(load_trace(p, labels_path=labels if labels.exists() else None))
        except MalformedRow as exc:  # a labels row already names its file
            exc.source = exc.source or p
            raise
    return traces


def cmd_prepare(args) -> int:
    traces = _load_traces(Path(args.data))
    ds = build_dataset(traces)
    out = Path(args.out)
    save_dataset(ds, out)
    _write_manifest(out, "prepare", args, None,
                    ["train.ndjson", "val.ndjson", "test.ndjson",
                     "scaler.json", "dataset.json"])
    counts = {p: len(getattr(ds, p)) for p in PARTS}
    print(f"prepared dataset at {out}: {counts}")
    return 0


def _variant_record(o: VariantOutcome) -> dict:
    """A variant's line in the train manifest; wall-clock values go here,
    never into summary.csv."""
    return {"variant_id": o.variant_id, "status": o.status,
            "epochs": None if o.bundle is None else o.bundle.meta["epochs"],
            "fit_s": round(o.fit_s, 4)}


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(Path(args.data))
    config = TrainConfig(seed=args.seed, max_epochs=args.max_epochs)
    out = Path(args.out)
    if args.all:
        outcomes = run_all_variants(ds, config, out)
        artifacts = ["summary.csv"] + [
            f"{o.variant_id}.{kind}" for o in outcomes if o.bundle is not None
            for kind in ("bundle.json", "history.csv")]
        _write_manifest(out, "train", args, args.seed, artifacts,
                        workers=pool_workers(),
                        wall_s=round(time.perf_counter() - t0, 4),
                        variants=[_variant_record(o) for o in outcomes])
        failed = [o for o in outcomes if o.bundle is None]
        for o in outcomes:
            line = o.status if o.bundle is None else (
                f"val_loss={o.bundle.meta['val_loss']:.6f} "
                f"epochs={o.bundle.meta['epochs']}")
            print(f"{o.variant_id:16s} {line}")
        return 0 if not failed else 2
    o = train_and_save(args.variant, ds, config, out)
    _write_manifest(out, "train", args, args.seed,
                    [f"{args.variant}.bundle.json", f"{args.variant}.history.csv"],
                    wall_s=round(time.perf_counter() - t0, 4),
                    variants=[_variant_record(o)])
    print(f"{args.variant}: epochs={o.bundle.meta['epochs']} "
          f"val_loss={o.bundle.meta['val_loss']:.6f} -> {out}")
    return 0


def cmd_benchmark(args) -> int:
    ds = load_dataset(Path(args.data))
    run_dir = Path(args.run)
    paths = sorted(run_dir.glob("*.bundle.json"))
    if not paths:
        raise QoecastError(f"no *.bundle.json files in {run_dir}")
    reports = []
    for p in paths:
        bundle = load_bundle(p)
        report = evaluate(bundle, ds)
        report.latency = benchmark_latency(bundle, seed=derive_seed(args.seed, f"lat:{bundle.variant_id}"))
        reports.append(report)
    reports = rank_variants(reports)
    baseline = evaluate_baseline(ds)

    write_metrics_csv(reports + [baseline], run_dir / "metrics.csv")
    with (run_dir / "rankings.csv").open("w", encoding="utf-8") as fh:
        fh.write("rank,variant_id,rmse,mae,latency_ms_batch16\n")
        for i, r in enumerate(reports, start=1):
            fh.write(f"{i},{r.variant_id},{r.rmse!r},{r.mae!r},{r.latency.mean_ms!r}\n")
    export_error_density(reports, run_dir)

    print(f"{'rank':4s} {'variant':16s} {'rmse':>9s} {'mae':>9s} {'ms/b16':>8s}")
    for i, r in enumerate(reports, start=1):
        print(f"{i:<4d} {r.variant_id:16s} {r.rmse:9.4f} {r.mae:9.4f} "
              f"{r.latency.mean_ms:8.3f}")
    print(f"{'':4s} {'last_value':16s} {baseline.rmse:9.4f} {baseline.mae:9.4f}")

    by_id = {r.variant_id: r for r in reports}
    if "gru_basic" in by_id and "lstm_basic" in by_id:
        g, l = by_id["gru_basic"], by_id["lstm_basic"]
        rel = "below" if g.mae < l.mae else "above"
        print(f"finding: gru_basic MAE {g.mae:.4f} is {rel} lstm_basic MAE {l.mae:.4f}")
    if "gru_basic" in by_id:
        budget = LatencyBudget(by_id["gru_basic"].latency.mean_ms)
        horizon_s = HORIZON * WINDOW_S
        print(f"latency budget with gru_basic inference: total "
              f"{budget.total_ms:.1f} ms, margin {budget.margin_ms(horizon_s):.1f} ms "
              f"at the {horizon_s} s horizon")
    return 0


def cmd_explain(args) -> int:
    bundle = load_bundle(Path(args.bundle))
    ds = load_dataset(Path(args.data))
    check_scaler(bundle, ds)
    part = getattr(ds, args.part)
    if not (0 <= args.index < len(part)):
        raise UsageError(f"--index {args.index} outside {args.part} split "
                         f"of {len(part)} sequences")
    x = part.X[args.index]
    runner = BundleRunner(bundle)
    doc: dict = {
        "variant_id": bundle.variant_id,
        "method": args.method,
        "origin": list(part.origin[args.index]),
    }
    if args.method == "ig":
        att = integrated_gradients(runner, x, steps=args.steps)
        doc.update({
            "prediction": att.prediction,
            "baseline_prediction": att.baseline_prediction,
            "completeness_gap": att.completeness_gap,
            "attributions": [[float(v) for v in row] for row in att.values],
            "top_3": [{"window": w, "feature": f, "attribution": v}
                      for w, f, v in att.top_k(3)],
        })
    elif args.method == "attention":
        amap = attention_map(runner, x)
        doc.update({
            "prediction": amap.prediction,
            "weights": np.asarray(amap.weights).tolist(),
        })
    else:  # lime
        sur = lime_local(runner, x, seed=args.seed)
        doc.update({
            "intercept": sur.intercept,
            "r_squared": sur.r_squared,
            "coefficients": [[float(v) for v in row] for row in sur.cell_coefficients()],
        })
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    try:  # the thresholds are options checked together, before any file is read
        policy = FeedbackPolicy(alert_threshold=args.policy_alert,
                                reduce_bitrate_threshold=args.policy_bitrate,
                                hysteresis=args.hysteresis)
    except ValueError as exc:
        raise UsageError(f"qoecast serve: {exc}") from None
    bundle = load_bundle(Path(args.bundle))
    # bytes: each line is decoded on its own, so one invalid byte costs one record
    instream = sys.stdin.buffer if args.input == "-" else Path(args.input).open("rb")
    outstream = sys.stdout if args.out == "-" else Path(args.out).open("w", encoding="utf-8")
    try:
        summary = run_stream(bundle, policy, instream, outstream,
                             explain_on_alert=args.explain_on_alert)
    finally:
        if args.input != "-":
            instream.close()
        if args.out != "-":
            outstream.close()
    print(f"serve done: {summary}", file=sys.stderr)
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    p = _Parser(prog="qoecast",
                description="Forecast video QoE from vehicular link telemetry.")
    p.add_argument("--version", action="version", version=f"qoecast {__version__}")
    sub = p.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser("generate", parents=[], help="synthesize labeled traces")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--traces", type=_checked(int, _check_traces), default=1)
    g.add_argument("--duration", default=GeneratorConfig.duration_s,
                   type=_checked(int, lambda v: GeneratorConfig(duration_s=v).validate()),
                   help="seconds per trace")
    g.add_argument("--format", choices=["csv", "ndjson"], default="csv")
    g.add_argument("--inband-qoe", action="store_true",
                   help="embed window labels as per-tick qoe values")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    pr = sub.add_parser("prepare", help="window, scale and split traces")
    pr.add_argument("--data", required=True, help="directory with trace_*/labels_* files")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_prepare)

    t = sub.add_parser("train", help="fit one variant or all of them")
    t.add_argument("--data", required=True, help="prepared dataset directory")
    which = t.add_mutually_exclusive_group(required=True)
    which.add_argument("--variant", choices=list(ALL_VARIANTS))
    which.add_argument("--all", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--max-epochs", default=TrainConfig.max_epochs, dest="max_epochs",
                   type=_checked(int, lambda v: TrainConfig(max_epochs=v)))
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    b = sub.add_parser("benchmark", help="accuracy + latency + rankings + densities")
    b.add_argument("--data", required=True)
    b.add_argument("--run", required=True, help="directory with *.bundle.json")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_benchmark)

    x = sub.add_parser("explain", help="explain one test prediction")
    x.add_argument("--bundle", required=True)
    x.add_argument("--data", required=True)
    x.add_argument("--part", choices=PARTS, default="test")
    x.add_argument("--index", type=int, default=0)
    x.add_argument("--method", choices=["ig", "attention", "lime"], default="ig")
    x.add_argument("--steps", type=_checked(int, check_steps), default=IG_STEPS)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--out")
    x.set_defaults(func=cmd_explain)

    s = sub.add_parser("serve", help="stream NDJSON telemetry to NDJSON decisions")
    s.add_argument("--bundle", required=True)
    s.add_argument("--input", default="-", help="NDJSON file or - for stdin")
    s.add_argument("--out", default="-", help="NDJSON file or - for stdout")
    s.add_argument("--policy-alert", type=float, default=FeedbackPolicy.alert_threshold,
                   dest="policy_alert")
    s.add_argument("--policy-bitrate", type=float,
                   default=FeedbackPolicy.reduce_bitrate_threshold, dest="policy_bitrate")
    s.add_argument("--hysteresis", type=float, default=FeedbackPolicy.hysteresis)
    s.add_argument("--explain-on-alert", action="store_true", dest="explain_on_alert")
    s.set_defaults(func=cmd_serve)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QoecastError as exc:
        where = f" in {exc.source}" if isinstance(exc, MalformedRow) and exc.source else ""
        print(f"error: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
