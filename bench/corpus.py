"""corpus: fleet-scale trace generation and dataset preparation.

One pass generates 24 one-hour traces, each with its own `generate` call
(12 written as CSV, 12 as NDJSON), then runs `prepare` over all of them.
The unit operation is one `generate` call. Set-up is a small warm-up pass
(two 600 s traces) so that first-call costs stay out of the timed passes.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

import reference as ref
from common import Ctx, Outcome, clock, cli_call
from qoecast import pipeline

TRACES = 24
DURATION_S = 3600
PARTS = ("train", "val", "test")
DATASET_FILES = ("train.ndjson", "val.ndjson", "test.ndjson", "scaler.json", "dataset.json")
# GeneratorConfig envelope: loss 0-5 %, jitter 10-100 ms, throughput
# 5-50 Mbps, speed 0-80 km/h.
BOUNDS = {1: (5.0, 50.0), 2: (10.0, 100.0), 3: (0.0, 0.05), 5: (0.0, 80.0)}


def setup(ctx: Ctx) -> None:
    cli_call("generate", "--seed", ctx.seed, "--traces", 2, "--duration", 600,
             "--out", ctx.work / "warmup")
    cli_call("prepare", "--data", ctx.work / "warmup", "--out", ctx.work / "warmup_ds")


def one_pass(ctx: Ctx, out: Outcome, data: Path, ds: Path) -> float:
    """Generate and prepare the corpus; returns the prepare seconds."""
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    spent = 0.0
    for k in range(TRACES):
        fmt = "csv" if k < TRACES // 2 else "ndjson"
        gen = ctx.work / "gen" / f"{k:02d}"
        with ctx.measuring():
            t0 = clock()
            cli_call("generate", "--seed", ctx.seed * 1000 + k, "--traces", 1,
                     "--duration", DURATION_S, "--format", fmt, "--out", gen)
            dt = clock() - t0
        spent += dt
        out.ops_ms.append(dt * 1e3)
        (gen / f"trace_00.{fmt}").rename(data / f"trace_{k:02d}.{fmt}")
        (gen / "labels_00.csv").rename(data / f"labels_{k:02d}.csv")
    with ctx.measuring():
        t0 = clock()
        cli_call("prepare", "--data", data, "--out", ds)
        prep = clock() - t0
    out.passes.append(spent + prep)
    return prep


def digest(paths) -> str:
    h = hashlib.blake2b()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run(ctx: Ctx, _state) -> Outcome:
    out = Outcome()
    data, ds = ctx.work / "corpus", ctx.work / "corpus_ds"
    prep_s = []
    first = None
    while sum(out.passes) < ctx.seconds:
        prep_s.append(one_pass(ctx, out, data, ds))
        files = sorted(data.iterdir()) + [ds / f for f in DATASET_FILES]
        if first is None:
            first = (digest(files), check(out, data, ds))
        elif digest(files) == first[0]:
            # byte-identical outputs: the first pass's verdicts hold again
            out.attempted += first[1][0]
            out.failed += first[1][1]
        else:
            out.check(False, "a pass wrote other files than the first from the same seed")
    ticks = TRACES * DURATION_S
    gen_s = sum(out.ops_ms) / 1e3
    out.named = {"generate_ticks_per_s": (ticks * len(out.passes) / gen_s, "1/s"),
                 "prepare_ticks_per_s": (ticks * len(prep_s) / sum(prep_s), "1/s")}
    return out


def check(out: Outcome, data: Path, ds: Path) -> tuple[int, int]:
    """Traces, prepared splits and the dataset round trip; returns the
    (attempted, failed) it added."""
    a0, f0 = out.attempted, out.failed
    traces = []
    for path in sorted(data.glob("trace_*")):
        ticks = ref.read_ticks(path)
        ts = np.array([t[0] for t in ticks])
        ok = len(ticks) == DURATION_S and bool(np.all(np.diff(ts) > 0))
        for col, (lo, hi) in BOUNDS.items():
            v = np.array([t[col] for t in ticks])
            ok = ok and bool(np.all((v >= lo) & (v <= hi)))
        out.check(ok, f"{path.name}: ticks outside the generator envelope or out of order")
        traces.append((ticks, ref.read_labels(data / path.name.replace("trace_", "labels_")
                                              .replace(path.suffix, ".csv"))))

    want = ref.prepare_reference(traces)
    got = {}
    for part in PARTS:
        got[part] = ref.read_split(ds, part)
        X, y, ts = want[part]
        out.check(got[part][0].shape == X.shape and np.allclose(got[part][0], X, rtol=0, atol=1e-9)
                  and np.allclose(got[part][1], y, rtol=0, atol=1e-9) and got[part][2] == ts,
                  f"{part}: prepared inputs differ from the recomputation")
    n = sum(len(got[p][2]) for p in PARTS)
    sizes = [len(got[p][2]) for p in PARTS]
    order = got["train"][2] + got["val"][2] + got["test"][2]
    out.check(sizes == [int(n * 0.7), int(n * 0.1), n - int(n * 0.7) - int(n * 0.1)]
              and order == sorted(order),
              f"split sizes {sizes} of {n} or their order are not chronological 70/10/20")

    again = ds.parent / "roundtrip_ds"
    pipeline.save_dataset(pipeline.load_dataset(ds), again)
    out.check(all((ds / f).read_bytes() == (again / f).read_bytes() for f in DATASET_FILES),
              "load_dataset does not round-trip save_dataset")
    return out.attempted - a0, out.failed - f0
