"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload desk|stream|alert|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The run uses one BLAS thread and
the checkout's `src` on the import path; it fails with no result line when
there are no sources. The last line of stdout is the result object.

setup_s is the median over set-up repetitions of (import time + the
workload's set-up). The first repetition uses this process's imports, timed
from its first line; later ones time the same imports in a fresh
interpreter (`run.py --import-only`). Set-up is repeated at least SETUP_REPS
times and until SETUP_MIN_S seconds are spent, so that a sub-second set-up
is timed over seconds of the machine, not one instant.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# OpenBLAS left at its default threading made single fits 60% slower and
# noisier on a 2-core machine; one thread keeps runs comparable. The
# variables must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
if not (ROOT / "src" / "qoecast" / "__init__.py").is_file():
    sys.exit(f"no qoecast sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import qoecast  # noqa: E402,F401
import corpus  # noqa: E402
import desk  # noqa: E402
import serving  # noqa: E402
from common import Ctx, clock, median  # noqa: E402
from tracing import Tracer, layer_metrics, per_layer_names  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPS, SETUP_MIN_S = 3, 4.0
STREAM_HOURS, ALERT_HOURS = 24, 2

WORKLOADS = {
    "desk": (desk.setup, desk.run),
    "stream": (lambda ctx: serving.setup_serving(ctx, STREAM_HOURS, faults=True),
               lambda ctx, st: serving.run_serving(ctx, st, explain=False)),
    "alert": (lambda ctx: serving.setup_serving(ctx, ALERT_HOURS, faults=False),
              lambda ctx, st: serving.run_serving(ctx, st, explain=True)),
    "corpus": (corpus.setup, corpus.run),
}


def fresh_import_s() -> float:
    proc = subprocess.run([sys.executable, __file__, "--import-only"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(proc.stdout)


def main() -> int:
    if sys.argv[1:] == ["--import-only"]:
        print(IMPORT_S)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    report_path = HERE / "_out" / f"{tag}.json"
    report_path.parent.mkdir(exist_ok=True)
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ctx = Ctx(seed=args.seed, seconds=args.seconds, work=work, tracer=tracer)
    setup, run = WORKLOADS[args.workload]
    try:
        imports, setups = [IMPORT_S], []
        while len(setups) < SETUP_REPS or sum(imports) + sum(setups) < SETUP_MIN_S:
            if setups:
                imports.append(fresh_import_s())
            t0 = clock()
            state = setup(ctx)
            setups.append(clock() - t0)
        outcome = run(ctx, state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = np.asarray(outcome.ops_ms)
    e2e = {
        "setup_s": (median(np.add(imports, setups)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_s": (median(outcome.passes), "s"),
        "op_p50_ms": (median(ops), "ms"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__, "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "imports_s": imports, "setup_reps_s": setups, "passes_s": outcome.passes,
        "ops": len(ops), "end_to_end": e2e, "workload_figures": outcome.named,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "known_failures": outcome.known[:50], "problems": outcome.problems[:50],
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, len(outcome.passes), outcome.counts)
        units = dict(per_layer_names())
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        report["spans"] = len(tracer.spans)
        tracer.write(report_path.with_suffix(".spans.ndjson"))
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in {**e2e, **outcome.named}.items():
        print(f"{args.workload:7s} {name:22s} {value:14.6g} {unit}")
    for line in outcome.problems[:20]:
        print(f"{args.workload:7s} PROBLEM {line}")
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
