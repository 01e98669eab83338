"""Spans around the public functions of each qoecast layer.

The benchmark wraps functions from outside the program: a wrapper replaces
every reference to the original function in the loaded qoecast modules (or
the method on its class), records (name, start, end, parent, tag) in
memory, and is removed again when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import median

# (layer.name, module, attribute, tag) -- the tag function maps
# (args, result) to a short label kept with the span.
TARGETS = [
    ("cli.main", "cli", "main", lambda a, r: a[0][0] if a and a[0] else ""),
    ("synthgen.generate_trace", "synthgen", "generate_trace", None),
    ("telemetry.write_trace", "telemetry", "write_trace", None),
    ("telemetry.load_trace", "telemetry", "load_trace",
     lambda a, r: "ndjson" if str(a[0]).endswith(".ndjson") else "csv"),
    ("pipeline.window_trace", "pipeline", "window_trace", None),
    ("pipeline.build_dataset", "pipeline", "build_dataset", None),
    ("pipeline.save_dataset", "pipeline", "save_dataset", None),
    ("pipeline.load_dataset", "pipeline", "load_dataset", None),
    ("nncore.backward", "nncore", "backward", lambda a, r: len(a[0])),
    ("zoo.load_bundle", "zoo", "load_bundle", None),
    ("zoo.predict", "zoo", "BundleRunner.predict",
     lambda a, r: f"{a[0].bundle.variant_id}:{len(a[1])}"),
    ("train.train_variant", "train", "train_variant",
     lambda a, r: f"{a[0]}:{r[0].meta['epochs']}"),
    ("train.adam_step", "train", "Adam.step", None),
    ("evaluation.evaluate", "evaluation", "evaluate", None),
    ("explain.integrated_gradients", "explain", "integrated_gradients", None),
    ("serve.run_stream", "serve", "run_stream", None),
    ("serve.ingest", "serve", "StreamState.ingest",
     lambda a, r: "forecast" if r is not None else ""),
]


class Tracer:
    """In-memory span recorder; install() wraps, remove() restores."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, tag):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, ""]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, mod_name, attr, tag in TARGETS:
            module = sys.modules[f"qoecast.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(name, orig, tag))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, tag)
            for mod in [m for k, m in sys.modules.items()
                        if k == "qoecast" or k.startswith("qoecast.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def under(self, sid: int, name: str) -> bool:
        """Whether span `sid` runs inside a span called `name`."""
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "tag": tag}) + "\n")


VARIANTS = ("lstm_basic", "lstm_wide", "lstm_deep", "gru_basic", "gru_wide",
            "gru_deep", "tr_basic", "tr_4heads", "tr_largeff", "tr_lowdrop",
            "dnn_basic", "dnn_deep", "dnn_elu", "dnn_highdrop",
            "lin_basic", "lin_l1", "lin_l2", "lin_elasticnet")
NEURAL = VARIANTS[:14]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    names = [(f"train.fit_s.{v}", "s") for v in VARIANTS]
    names += [(f"train.epochs.{v}", "count") for v in VARIANTS]
    names += [("train.adam_step_s", "s")]
    names += [(f"nncore.tape_ops.{v}", "count") for v in NEURAL]
    names += [("nncore.backward_s", "s")]
    names += [(f"zoo.predict_b1_ms.{v}", "ms") for v in VARIANTS]
    names += [(f"zoo.predict_b16_ms.{v}", "ms") for v in VARIANTS]
    names += [("zoo.load_bundle_ms", "ms"),
              ("explain.ig_ms", "ms"), ("explain.ig_calls", "count"),
              ("serve.ingest_us", "us"), ("serve.forecast_ms", "ms"),
              ("serve.line_overhead_us", "us"), ("serve.forecasts", "count"),
              ("serve.dropped_windows", "count"), ("serve.error_records", "count"),
              ("synthgen.generate_trace_s", "s"), ("telemetry.write_trace_s", "s"),
              ("telemetry.load_csv_s", "s"), ("telemetry.load_ndjson_s", "s"),
              ("pipeline.window_trace_s", "s"), ("pipeline.build_dataset_s", "s"),
              ("pipeline.save_dataset_s", "s"), ("pipeline.load_dataset_s", "s"),
              ("evaluation.evaluate_s", "s"),
              ("cli.generate_s", "s"), ("cli.prepare_s", "s"),
              ("cli.train_s", "s"), ("cli.benchmark_s", "s")]
    return names


def layer_metrics(tracer: Tracer, passes: int, counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced run.

    Seconds are self time per pass, except cli.*, which is the whole
    command. ms/us figures are per call (predict: the median of the
    benchmark's own calls, not those inside a CLI command). Counts are
    per pass; `counts` supplies the ones the run itself returned.
    """
    out = {name: 0.0 for name, _ in per_layer_names()}
    own = tracer.self_times()
    total = defaultdict(float)
    calls = defaultdict(int)
    predict = defaultdict(list)
    ingest = {"": [], "forecast": []}
    for i, (name, t0, t1, parent, tag) in enumerate(tracer.spans):
        if name == "cli.main":
            total[f"cli.{tag}_s"] += t1 - t0
            continue
        total[name] += own[i]
        calls[name] += 1
        if name == "zoo.predict":
            # the `benchmark` command times its own predict calls on other inputs
            if not tracer.under(i, "cli.main"):
                predict[tag].append(t1 - t0)
        elif name == "serve.ingest":
            ingest[tag].append(t1 - t0)
        elif name == "train.train_variant":
            variant, epochs = tag.split(":")
            out[f"train.fit_s.{variant}"] = t1 - t0
            out[f"train.epochs.{variant}"] = int(epochs)
        elif name == "telemetry.load_trace":
            total[f"telemetry.load_{tag}_s"] += own[i]
        elif name == "nncore.backward" and parent >= 0:
            up = tracer.spans[parent]
            key = f"nncore.tape_ops.{up[4].split(':')[0]}" if up[0] == "train.train_variant" else ""
            if key in out and out[key] == 0.0:
                out[key] = tag
    p = max(passes, 1)
    for key, layer in (("train.adam_step_s", "train.adam_step"),
                       ("nncore.backward_s", "nncore.backward"),
                       ("synthgen.generate_trace_s", "synthgen.generate_trace"),
                       ("telemetry.write_trace_s", "telemetry.write_trace"),
                       ("pipeline.window_trace_s", "pipeline.window_trace"),
                       ("pipeline.build_dataset_s", "pipeline.build_dataset"),
                       ("pipeline.save_dataset_s", "pipeline.save_dataset"),
                       ("pipeline.load_dataset_s", "pipeline.load_dataset"),
                       ("evaluation.evaluate_s", "evaluation.evaluate"),
                       ("telemetry.load_csv_s", "telemetry.load_csv_s"),
                       ("telemetry.load_ndjson_s", "telemetry.load_ndjson_s")):
        out[key] = total[layer] / p
    for cmd in ("generate", "prepare", "train", "benchmark"):
        out[f"cli.{cmd}_s"] = total[f"cli.{cmd}_s"] / p
    for tag, times in predict.items():
        variant, batch = tag.split(":")
        key = f"zoo.predict_b{batch}_ms.{variant}"
        if key in out:
            out[key] = median(times) * 1e3
    if calls["zoo.load_bundle"]:
        out["zoo.load_bundle_ms"] = total["zoo.load_bundle"] / calls["zoo.load_bundle"] * 1e3
    ig = calls["explain.integrated_gradients"]
    if ig:
        out["explain.ig_ms"] = total["explain.integrated_gradients"] / ig * 1e3
        out["explain.ig_calls"] = ig / p
    if ingest[""]:
        out["serve.ingest_us"] = sum(ingest[""]) / len(ingest[""]) * 1e6
    if ingest["forecast"]:
        out["serve.forecast_ms"] = sum(ingest["forecast"]) / len(ingest["forecast"]) * 1e3
    lines = counts.get("serve.lines", 0)
    if lines:
        out["serve.line_overhead_us"] = total["serve.run_stream"] / (lines * p) * 1e6
    for key in ("serve.forecasts", "serve.dropped_windows", "serve.error_records"):
        if key in counts:
            out[key] = counts[key]
    return out
