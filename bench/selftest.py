"""The benchmark's checks must fail on wrong output.

    python3 bench/selftest.py

Each test produces real output of one workload at a small size, shows the
checks pass on it, then plants one corruption at a time and shows the
check that guards it fails.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import desk  # noqa: E402
import serving  # noqa: E402
from common import Ctx, Outcome, cli_call, desk_dataset  # noqa: E402
from qoecast import serve, zoo  # noqa: E402


def _desk_verdict(ds: Path, run_dir: Path, variants) -> Outcome:
    out = Outcome()
    runners = {v: zoo.BundleRunner(zoo.load_bundle(run_dir / f"{v}.bundle.json"))
               for v in variants}
    desk.check(out, ds, run_dir, runners)
    return out


def test_desk(work: Path) -> None:
    ds = desk_dataset(work)
    run_dir = work / "run"
    variants = ("lin_basic", "lin_l1", "lin_elasticnet", "gru_basic")
    for v in variants:
        cli_call("train", "--data", ds, "--variant", v, "--seed", 1, "--out", run_dir)
    cli_call("benchmark", "--data", ds, "--run", run_dir, "--seed", 1)
    clean = _desk_verdict(ds, run_dir, variants)
    assert clean.failed == 0 and clean.attempted == 4 + 1 + 2 + 5 + 1, clean.problems

    path = run_dir / "lin_l1.bundle.json"
    kept = path.read_text()
    bundle = zoo.load_bundle(path)
    w = bundle.params["weights"]
    w[np.argmax(np.abs(w))] += np.float32(1e-3)
    zoo.save_bundle(bundle, path)  # still a valid, checksummed bundle
    bad = _desk_verdict(ds, run_dir, variants)
    assert any(p.startswith("lin_l1: optimality") for p in bad.problems), bad.problems
    path.write_text(kept)

    metrics = run_dir / "metrics.csv"
    rows = list(csv.reader(metrics.open()))
    col = rows[0].index("mae")
    for r in rows[1:]:
        if r[0] == "gru_basic":
            r[col] = repr(float(r[col]) * (1 + 1e-6))
    with metrics.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    bad = _desk_verdict(ds, run_dir, variants)
    assert any(p.startswith("gru_basic: metrics.csv") for p in bad.problems), bad.problems


def _serve_once(work: Path, hours: int, faults: bool, explain: bool):
    ctx = Ctx(seed=5, seconds=0.0, work=work)
    state = serving.setup_serving(ctx, hours, faults)
    counts = serving.expected_decisions(state)
    sink = serving.Sink()
    serve.run_stream(state.bundle, serve.FeedbackPolicy(), serving.feed(state.plan.lines, sink),
                     sink, explain_on_alert=explain)

    def verdict(lines) -> Outcome:
        out = Outcome()
        planted = serving.Sink()
        planted.lines = lines
        serving.check_pass(out, state, planted, explain, counts, np.random.default_rng(0))
        return out
    return sink.lines, verdict


def _edit(lines, index, **changes):
    lines = list(lines)
    rec = json.loads(lines[index])
    rec.update(changes)
    lines[index] = json.dumps(rec) + "\n"
    return lines


def test_stream(work: Path) -> None:
    lines, verdict = _serve_once(work, 2, faults=True, explain=False)
    clean = verdict(lines)
    assert not clean.problems and clean.failed == 6, (clean.problems, clean.known)

    first = next(i for i, t in enumerate(lines) if t.startswith('{"ts_ms"'))
    rec = json.loads(lines[first])
    bad = verdict(_edit(lines, first, qoe_pred=rec["qoe_pred"] + 1e-6))
    assert any("qoe_pred" in p for p in bad.problems), bad.problems

    other = {"none": "alert", "reduce_bitrate": "none", "alert": "none"}[rec["action"]]
    bad = verdict(_edit(lines, first, action=other))
    assert any("action" in p for p in bad.problems), bad.problems

    err = next(i for i, t in enumerate(lines) if t.startswith('{"error"'))
    bad = verdict(lines[:err] + lines[err + 1:])
    assert any(p.startswith("no error record") for p in bad.problems), bad.problems

    bad = verdict(_edit(lines, first, qoe_pred=float("nan")))
    assert any("not strict JSON" in p or "qoe_pred" in p for p in bad.problems), bad.problems


def test_alert(work: Path) -> None:
    lines, verdict = _serve_once(work, 1, faults=False, explain=True)
    clean = verdict(lines)
    assert clean.failed == 0, clean.problems

    planted = list(lines)
    for i, t in enumerate(planted):
        if '"explain"' in t:
            rec = json.loads(t)
            rec["explain"][0]["attribution"] += 1e-3
            planted[i] = json.dumps(rec) + "\n"
    bad = verdict(planted)
    assert any(p.startswith("attributions") for p in bad.problems), bad.problems

    quiet = next(i for i, t in enumerate(lines)
                 if t.startswith('{"ts_ms"') and '"explain"' not in t)
    bad = verdict(_edit(lines, quiet, explain=[]))
    assert any("explanation on a" in p for p in bad.problems), bad.problems


def test_corpus(work: Path) -> None:
    corpus.TRACES, corpus.DURATION_S = 4, 600
    ctx = Ctx(seed=3, seconds=0.0, work=work)
    data, ds = work / "corpus", work / "corpus_ds"
    corpus.one_pass(ctx, Outcome(), data, ds)
    clean = Outcome()
    corpus.check(clean, data, ds)
    assert clean.failed == 0 and clean.attempted == 4 + 3 + 1 + 1, clean.problems

    train, val = (ds / "train.ndjson"), (ds / "val.ndjson")
    t_lines, v_lines = train.read_text().splitlines(), val.read_text().splitlines()
    train.write_text("\n".join(t_lines + v_lines[:1]) + "\n")
    val.write_text("\n".join(v_lines[1:]) + "\n")
    bad = Outcome()
    corpus.check(bad, data, ds)
    assert any(p.startswith("split sizes") for p in bad.problems), bad.problems
    train.write_text("\n".join(t_lines) + "\n")
    val.write_text("\n".join(v_lines) + "\n")

    rec = json.loads(t_lines[0])
    rec["inputs"][2][1] += 1e-6
    train.write_text("\n".join([json.dumps(rec)] + t_lines[1:]) + "\n")
    bad = Outcome()
    corpus.check(bad, data, ds)
    assert any(p.startswith("train: prepared inputs") for p in bad.problems), bad.problems

    trace = data / "trace_00.csv"
    text = trace.read_text().splitlines()
    cells = text[5].split(",")
    cells[3] = "0.5"  # loss_rate of 50 % is outside the 0-5 % envelope
    trace.write_text("\n".join(text[:5] + [",".join(cells)] + text[6:]) + "\n")
    bad = Outcome()
    corpus.check(bad, data, ds)
    assert any(p.startswith("trace_00.csv") for p in bad.problems), bad.problems


def main() -> int:
    failures = 0
    (HERE / "_work").mkdir(exist_ok=True)
    for test in (test_desk, test_stream, test_alert, test_corpus):
        work = Path(tempfile.mkdtemp(prefix=f"{test.__name__}-", dir=HERE / "_work"))
        try:
            test(work)
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
