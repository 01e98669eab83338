import argparse
import csv
import importlib
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qoecast import __version__
from qoecast.cli import build_parser, main
from qoecast.explain import IG_STEPS
from qoecast.pipeline import load_dataset
from qoecast.seeding import derive_seed
from qoecast.serve import FeedbackPolicy
from qoecast.synthgen import GeneratorConfig, generate_trace
from qoecast.telemetry import load_trace
from qoecast.train import TrainConfig
from qoecast.zoo import load_bundle

LASTVALUE = Path(__file__).parent / "data" / "lastvalue.bundle.json"


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """One generate -> prepare -> train pass shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliflow")
    data, ds, run = root / "data", root / "ds", root / "run"
    assert main(["generate", "--seed", "5", "--traces", "2",
                 "--duration", "600", "--out", str(data)]) == 0
    assert main(["prepare", "--data", str(data), "--out", str(ds)]) == 0
    assert main(["train", "--data", str(ds), "--variant", "lin_basic",
                 "--out", str(run)]) == 0
    assert main(["train", "--data", str(ds), "--variant", "gru_basic",
                 "--max-epochs", "2", "--out", str(run)]) == 0
    return root


class TestPipelineFlow:
    def test_generate_artifacts_and_manifest(self, flow):
        data = flow / "data"
        for name in ("trace_00.csv", "trace_01.csv",
                     "labels_00.csv", "labels_01.csv"):
            assert (data / name).exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["tool"] == "qoecast"
        assert manifest["version"] == __version__
        assert manifest["command"] == "generate"
        assert manifest["master_seed"] == 5
        assert sorted(manifest["artifacts"]) == manifest["artifacts"]
        assert len(manifest["artifacts"]) == 4

    def test_generated_trace_matches_library_fanout(self, flow):
        # the CLI derives per-trace seeds from the master seed
        trace = load_trace(flow / "data" / "trace_00.csv",
                           labels_path=flow / "data" / "labels_00.csv")
        ref = generate_trace(GeneratorConfig(seed=derive_seed(5, "trace:0"),
                                             duration_s=600,
                                             trace_id="trace_00"))
        assert len(trace.samples) == 600
        assert trace.samples == ref.samples
        assert trace.labels == ref.labels

    def test_prepare_dataset_counts(self, flow):
        ds = load_dataset(flow / "ds")
        assert (len(ds.train), len(ds.val), len(ds.test)) == (77, 11, 22)
        assert (flow / "ds" / "manifest.json").exists()

    def test_train_outputs(self, flow):
        run = flow / "run"
        bundle = load_bundle(run / "lin_basic.bundle.json")
        assert bundle.variant_id == "lin_basic"
        assert (run / "lin_basic.history.csv").exists()
        gru = load_bundle(run / "gru_basic.bundle.json")
        # per-variant seeds fan out from the CLI master seed (default 0)
        assert gru.meta["seed"] == derive_seed(0, "variant:gru_basic")
        assert gru.meta["epochs"] == 2

    def test_evaluate_writes_ranked_metrics(self, flow, capsys):
        # benchmark is the one command that scores bundles (evaluation.evaluate)
        assert main(["benchmark", "--data", str(flow / "ds"),
                     "--run", str(flow / "run")]) == 0
        out = capsys.readouterr().out
        assert "rmse" in out and "lin_basic" in out and "gru_basic" in out
        run = flow / "run"
        ranked = [l.split(",")[1]
                  for l in (run / "rankings.csv").read_text().splitlines()[1:]]
        with (run / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # the ranked variants, then the baseline without latency
        assert [r["variant_id"] for r in rows] == ranked + ["last_value"]
        assert set(ranked) == {"lin_basic", "gru_basic"}
        rmses = [float(r["rmse"]) for r in rows[:-1]]
        assert rmses == sorted(rmses)
        assert all(float(r["latency_ms_batch16"]) > 0 for r in rows[:-1])
        assert rows[-1]["latency_ms_batch16"] == ""

    def test_benchmark_rankings_and_densities(self, flow, capsys):
        assert main(["benchmark", "--data", str(flow / "ds"),
                     "--run", str(flow / "run")]) == 0
        out = capsys.readouterr().out
        assert "latency budget with gru_basic inference" in out
        run = flow / "run"
        lines = (run / "rankings.csv").read_text().splitlines()
        assert lines[0] == "rank,variant_id,rmse,mae,latency_ms_batch16"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2"]
        assert float(rows[0][2]) <= float(rows[1][2])
        assert all(float(r[4]) > 0 for r in rows)
        for cls in ("gru", "linear_dnn"):
            dens = (run / f"density_{cls}.csv").read_text().splitlines()
            assert dens[0] == "bin_left,bin_right,density"
            assert len(dens) == 41  # default 40 bins + header
        assert not (run / "density_lstm.csv").exists()

    def test_explain_ig_to_file(self, flow, tmp_path):
        out = tmp_path / "ig.json"
        assert main(["explain", "--bundle", str(flow / "run" / "lin_basic.bundle.json"),
                     "--data", str(flow / "ds"), "--index", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["variant_id"] == "lin_basic"
        assert doc["method"] == "ig"
        assert abs(doc["completeness_gap"]) <= 1e-9  # linear route is exact
        assert len(doc["top_3"]) == 3
        assert len(doc["attributions"]) == 5
        assert all(len(row) == 6 for row in doc["attributions"])

    def test_explain_attention_stdout(self, flow, capsys):
        assert main(["explain", "--bundle", str(flow / "run" / "gru_basic.bundle.json"),
                     "--data", str(flow / "ds"), "--method", "attention"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["weights"]) == 5
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_explain_lime_stdout(self, flow, capsys):
        assert main(["explain", "--bundle", str(flow / "run" / "lin_basic.bundle.json"),
                     "--data", str(flow / "ds"), "--method", "lime",
                     "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_squared"] <= 1.0 + 1e-12
        assert len(doc["coefficients"]) == 5
        assert all(len(row) == 6 for row in doc["coefficients"])

    def test_serve_file_to_file(self, flow, tmp_path):
        stream_dir = tmp_path / "stream"
        assert main(["generate", "--seed", "7", "--duration", "120",
                     "--format", "ndjson", "--inband-qoe",
                     "--out", str(stream_dir)]) == 0
        out = tmp_path / "decisions.ndjson"
        assert main(["serve", "--bundle", str(flow / "run" / "gru_basic.bundle.json"),
                     "--input", str(stream_dir / "trace_00.ndjson"),
                     "--out", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert "summary" in records[-1]
        summary = records[-1]["summary"]
        assert summary["ticks"] == 120
        assert summary["forecasts"] == 8
        decisions = [r for r in records if "qoe_pred" in r]
        assert len(decisions) == 8
        assert decisions[0]["ts_ms"] == 50000
        assert all(r["latency_ms"] >= 0.0 for r in decisions)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_serve_survives_invalid_utf8(self, flow, tmp_path, monkeypatch, source):
        # one line with a byte that is not UTF-8 costs that line only
        stream_dir = tmp_path / "stream"
        assert main(["generate", "--seed", "7", "--duration", "120",
                     "--format", "ndjson", "--inband-qoe",
                     "--out", str(stream_dir)]) == 0
        lines = (stream_dir / "trace_00.ndjson").read_bytes().splitlines(keepends=True)
        raw = b"".join(lines[:60] + [b'{"ts_ms": "\xff"}\n'] + lines[60:])
        if source == "file":
            (tmp_path / "bad.ndjson").write_bytes(raw)
            where = str(tmp_path / "bad.ndjson")
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), "utf-8"))
            where = "-"
        out = tmp_path / "decisions.ndjson"
        assert main(["serve", "--bundle", str(flow / "run" / "gru_basic.bundle.json"),
                     "--input", where, "--out", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        errors = [r for r in records if "error" in r]
        assert errors == [{"error": "MalformedRow", "record": 61,
                           "detail": "record 61: bad value for 'record' (invalid utf-8)"}]
        assert len([r for r in records if "qoe_pred" in r]) == 8
        assert records[-1]["summary"]["ticks"] == 120
        assert records[-1]["summary"]["errors"] == 1


class TestExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"qoecast {__version__}"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["generate", "--nope", "--out", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["generate"]) == 1

    def test_train_requires_variant_or_all(self, flow, capsys):
        assert main(["train", "--data", str(flow / "ds"), "--out", "x"]) == 1
        assert "--variant" in capsys.readouterr().err

    def test_train_rejects_variant_with_all(self, flow, tmp_path, capsys):
        # --all used to win silently and fit all 18 variants
        out = tmp_path / "run"
        assert main(["train", "--data", str(flow / "ds"), "--all",
                     "--variant", "lin_basic", "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["generate", "--duration", "5"], "duration_s=5 shorter than one 10 s window"),
        (["generate", "--traces", "0"], "traces must be at least 1, got 0"),
        (["generate", "--traces", "-2", "--duration", "20"], "traces must be at least 1, got -2"),
        (["train", "--data", "{ds}", "--variant", "lin_basic", "--max-epochs", "0"],
         "max_epochs must be positive"),
        (["explain", "--bundle", "{run}/lin_basic.bundle.json", "--data", "{ds}",
          "--steps", "0"], "steps must be positive"),
        (["serve", "--bundle", "{run}/gru_basic.bundle.json", "--policy-alert", "80"],
         "need 0 <= alert <= reduce_bitrate <= 100, got 80.0/70.0"),
        (["serve", "--bundle", "{run}/gru_basic.bundle.json", "--hysteresis", "-1"],
         "hysteresis must be non-negative"),
        (["serve", "--bundle", "{run}/gru_basic.bundle.json", "--hysteresis", "nan"],
         "hysteresis must be non-negative and finite, got nan"),
    ], ids=["duration", "traces_0", "traces_negative", "max_epochs", "steps", "policy_order",
            "hysteresis", "hysteresis_nan"])
    def test_option_value_the_library_rejects_is_usage_error(self, flow, tmp_path, capsys,
                                                             argv, message):
        # these exited 2, as data errors (a trace count below 1 exited 0), and
        # generate made --out first
        out = tmp_path / "out"
        argv = [a.format(ds=flow / "ds", run=flow / "run") for a in argv]
        if argv[0] in ("generate", "train", "explain"):
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: qoecast ") and message in err, err
        assert not out.exists()

    def test_explain_index_out_of_range(self, flow, capsys):
        assert main(["explain",
                     "--bundle", str(flow / "run" / "lin_basic.bundle.json"),
                     "--data", str(flow / "ds"), "--index", "9999"]) == 1

    def test_prepare_without_traces_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["prepare", "--data", str(empty), "--out",
                     str(tmp_path / "ds")]) == 2
        assert "no trace_" in capsys.readouterr().err

    def test_prepare_rejects_a_deeply_nested_line(self, tmp_path, capsys):
        # used to exit 3 with an internal RecursionError
        data = tmp_path / "data"
        data.mkdir()
        good = ('{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0}')
        (data / "trace_00.ndjson").write_text(
            good + "\n" + "[" * 100000 + "]" * 100000 + "\n")
        assert main(["prepare", "--data", str(data), "--out",
                     str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert "MalformedRow: record 2: bad value for 'record'" in err
        assert "json nested too deeply" in err

    @pytest.mark.parametrize("suffix,bad,field", [
        ("ndjson", '{"ts_ms": 1000, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                   '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0, '
                   '"qoe": 1' + "0" * 400 + "}", "qoe"),
        ("csv", "1000,20,15,0.01,1" + "0" * 400 + ",30", "loss_count"),
    ])
    def test_prepare_rejects_an_integer_too_large_for_a_float(self, tmp_path, capsys,
                                                              suffix, bad, field):
        # used to exit 3 with an internal OverflowError
        data = tmp_path / "data"
        data.mkdir()
        good = {"ndjson": '{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                          '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0}',
                "csv": "ts_ms,throughput_mbps,jitter_ms,loss_rate,loss_count,speed_kmh\n"
                       "0,20,15,0.01,10,30"}[suffix]
        (data / f"trace_00.{suffix}").write_text(good + "\n" + bad + "\n")
        assert main(["prepare", "--data", str(data), "--out",
                     str(tmp_path / "ds")]) == 2
        assert f"MalformedRow: record 2: bad value for '{field}'" in capsys.readouterr().err

    def test_prepare_names_the_record_of_an_invalid_byte(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        good = ('{"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, '
                '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0}')
        (data / "trace_00.ndjson").write_bytes(good.encode() + b'\n{"ts_ms": "\xff"}\n')
        assert main(["prepare", "--data", str(data), "--out",
                     str(tmp_path / "ds")]) == 2
        assert ("MalformedRow: record 2: bad value for 'record' (invalid utf-8)"
                in capsys.readouterr().err)

    def test_prepare_names_the_file_of_a_bad_row(self, flow, tmp_path, capsys):
        # over several traces the record number alone did not say where
        data = tmp_path / "data"
        shutil.copytree(flow / "data", data)
        trace = data / "trace_01.csv"
        lines = trace.read_text().splitlines(keepends=True)
        lines[4] = "1.5" + lines[4][lines[4].index(","):]
        trace.write_text("".join(lines))
        assert main(["prepare", "--data", str(data), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: MalformedRow: record 4: bad value for 'ts_ms' "
                       f"(not an integer: 1.5) in {trace}\n")
        shutil.copy(flow / "data" / "trace_01.csv", trace)
        (data / "labels_00.csv").write_text("window_index,qoe\n0,50.0\nabc,50.0\n")
        assert main(["prepare", "--data", str(data), "--out", str(tmp_path / "ds")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedRow: record 2: bad value for 'window_index' (")
        assert err.endswith(f" in {data / 'labels_00.csv'}\n")

    def test_train_rejects_another_context_length(self, flow, tmp_path, capsys):
        # used to fail late in the fit, or to write a bundle nothing could load
        ds = tmp_path / "ds"
        shutil.copytree(flow / "ds", ds)
        meta = json.loads((ds / "dataset.json").read_text())
        meta["context_len"] = 3
        (ds / "dataset.json").write_text(json.dumps(meta))
        assert main(["train", "--data", str(ds), "--variant", "lin_basic",
                     "--out", str(tmp_path / "run")]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_benchmark_without_bundles_is_data_error(self, flow, tmp_path):
        empty = tmp_path / "norun"
        empty.mkdir()
        assert main(["benchmark", "--data", str(flow / "ds"),
                     "--run", str(empty)]) == 2

    def test_evaluate_command_is_gone(self, flow, capsys):
        # benchmark writes metrics.csv; a second writer could contradict it
        assert main(["evaluate", "--data", str(flow / "ds"),
                     "--run", str(flow / "run")]) == 1
        assert "invalid choice: 'evaluate'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "no scaler", "no params", "no variant_id", "no window_s",
        "param without shape", "scaler without maxs", "array"])
    def test_malformed_bundle_is_data_error(self, flow, tmp_path, capsys, case):
        doc = json.loads((flow / "run" / "lin_basic.bundle.json").read_text())
        key = case.split()[-1]
        if case.startswith("no "):
            del doc[key]
        elif case == "param without shape":
            del doc["params"][0]["shape"]
        elif case == "scaler without maxs":
            del doc["scaler"]["maxs"]
        else:
            doc = [doc]
        path = tmp_path / "bad.bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["serve", "--bundle", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"ShapeMismatch: {path}: " in err
        assert "not a JSON object" in err if case == "array" else f"'{key}'" in err

    @pytest.mark.parametrize("case", [
        "dataset.json without train_end_ts_ms", "empty scaler.json",
        "test row without target"])
    def test_malformed_dataset_is_data_error(self, flow, tmp_path, capsys, case):
        ds = tmp_path / "ds"
        shutil.copytree(flow / "ds", ds)
        if case.startswith("dataset.json"):
            meta = json.loads((ds / "dataset.json").read_text())
            del meta["train_end_ts_ms"]
            (ds / "dataset.json").write_text(json.dumps(meta))
            where, key = ds / "dataset.json", "train_end_ts_ms"
        elif case == "empty scaler.json":
            (ds / "scaler.json").write_text("{}")
            where, key = ds / "scaler.json", "mins"
        else:
            rows = (ds / "test.ndjson").read_text().splitlines()
            row = json.loads(rows[2])
            del row["target"]
            rows[2] = json.dumps(row)
            (ds / "test.ndjson").write_text("\n".join(rows) + "\n")
            where, key = f"{ds / 'test.ndjson'} line 3", "target"
        assert main(["benchmark", "--data", str(ds), "--run", str(flow / "run")]) == 2
        assert f"ShapeMismatch: {where}: no '{key}' key" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("target", 10 ** 400), ("target", float("inf")), ("inputs", float("nan"))],
        ids=["int past float range", "inf target", "nan input"])
    def test_non_finite_split_value_is_data_error(self, flow, tmp_path, capsys,
                                                  field, value):
        # such a row used to reach the metrics and end in an internal error
        ds = tmp_path / "ds"
        shutil.copytree(flow / "ds", ds)
        rows = (ds / "test.ndjson").read_text().splitlines()
        row = json.loads(rows[2])
        if field == "inputs":
            row["inputs"][4][0] = value
        else:
            row["target"] = value
        rows[2] = json.dumps(row)
        (ds / "test.ndjson").write_text("\n".join(rows) + "\n")
        assert main(["benchmark", "--data", str(ds), "--run", str(flow / "run")]) == 2
        assert f"ShapeMismatch: {ds / 'test.ndjson'} line 3: " in capsys.readouterr().err

    def test_bundle_scaler_with_three_mins_fails_at_load(self, tmp_path, capsys):
        doc = json.loads(LASTVALUE.read_text())
        doc["scaler"]["mins"] = doc["scaler"]["mins"][:3]
        path = tmp_path / "bad.bundle.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "decisions.ndjson"
        assert main(["serve", "--bundle", str(path), "--out", str(out)]) == 2
        assert f"ShapeMismatch: {path}: mins must be 6 finite numbers" \
            in capsys.readouterr().err
        assert not out.exists()  # rejected before the stream opened

    def test_scaler_json_with_three_mins_is_data_error(self, flow, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(flow / "ds", ds)
        doc = json.loads((ds / "scaler.json").read_text())
        doc["mins"] = doc["mins"][:3]
        (ds / "scaler.json").write_text(json.dumps(doc))
        assert main(["train", "--data", str(ds), "--variant", "lin_basic",
                     "--out", str(tmp_path / "run")]) == 2
        assert f"ShapeMismatch: {ds / 'scaler.json'}: mins must be 6 finite numbers" \
            in capsys.readouterr().err

    def test_truncated_bundle_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "cut.bundle.json"
        path.write_bytes(LASTVALUE.read_bytes()[:200])
        assert main(["serve", "--bundle", str(path)]) == 2
        assert f"ShapeMismatch: {path}: malformed (" in capsys.readouterr().err

    def test_explain_rejects_another_datasets_scaler(self, flow, tmp_path, capsys):
        # the same check benchmark makes: explanations of inputs scaled with
        # other statistics would be silently wrong
        assert main(["explain", "--bundle", str(LASTVALUE), "--data", str(flow / "ds"),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "ScalerMismatch: lin_basic: bundle scaler does not match" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_missing_dataset_directory(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--variant", "lin_basic",
                     "--out", str(tmp_path / "run")]) == 2

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys,
                                                    monkeypatch):
        import qoecast.cli as cli_mod

        def boom(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "generate_trace", boom)
        assert main(["generate", "--out", str(tmp_path / "g")]) == 3
        assert "internal error: RuntimeError" in capsys.readouterr().err


# Every option of every subcommand. A new one needs a caller: a command in
# the README, a test or a benchmark workload that sets it.
CLI_OPTIONS = {
    "generate": ["--seed", "--traces", "--duration", "--format", "--inband-qoe",
                 "--out"],
    "prepare": ["--data", "--out"],
    "train": ["--data", "--variant", "--all", "--seed", "--max-epochs", "--out"],
    "benchmark": ["--data", "--run", "--seed"],
    "explain": ["--bundle", "--data", "--part", "--index", "--method", "--steps",
                "--seed", "--out"],
    "serve": ["--bundle", "--input", "--out", "--policy-alert", "--policy-bitrate",
              "--hysteresis", "--explain-on-alert"],
}


def test_cli_surface_is_pinned():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 32


def test_cli_defaults_are_the_library_defaults():
    # each default is written once, in the library, and read from there
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    defaults = {(name, a.dest): a.default for name, p in sub.choices.items()
                for a in p._actions}
    assert defaults[("generate", "duration")] == GeneratorConfig().duration_s
    assert defaults[("train", "max_epochs")] == TrainConfig().max_epochs
    assert defaults[("explain", "steps")] == IG_STEPS
    policy = FeedbackPolicy()
    assert defaults[("serve", "policy_alert")] == policy.alert_threshold
    assert defaults[("serve", "policy_bitrate")] == policy.reduce_bitrate_threshold
    assert defaults[("serve", "hysteresis")] == policy.hysteresis


def test_readme_quick_start_parses():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert len(commands) == 7 and all(c[0] == "qoecast" for c in commands)
    parser = build_parser()
    for command in commands:
        parser.parse_args(command[1:])  # UsageError on an option the CLI lacks


def test_readme_protocol_constants_resolve():
    # every constant the "Fixed protocols" table names exists: module.NAME,
    # or module.PREFIX_* with at least one NAME under the prefix
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Fixed protocols", 1)[1].split("\n#", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    names = re.findall(r"`(\w+)\.(\w+)(\*?)`", table)
    assert len(names) >= 12
    for module, name, star in names:
        attrs = vars(importlib.import_module(f"qoecast.{module}"))
        if star:
            assert any(a.startswith(name) for a in attrs), f"{module}.{name}*"
        else:
            assert name in attrs, f"{module}.{name}"


def test_console_script_installed():
    proc = subprocess.run(["qoecast", "--version"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"qoecast {__version__}"


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "qoecast", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"qoecast {__version__}"
