"""The benchmark's entry points into the package still resolve.

bench/tracing.py wraps package functions by module and attribute name, and
the desk workload calls BundleRunner(bundle).predict itself. A rename or a
deletion in the package fails here rather than in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from qoecast.zoo import BundleRunner, load_bundle

ROOT = Path(__file__).parents[1]


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _tracing(monkeypatch):
    """bench/tracing.py and the bench module it imports, registered for one
    test only and loaded without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    _load("common", monkeypatch)
    return _load("tracing", monkeypatch)


def test_every_traced_target_resolves(monkeypatch):
    targets = _tracing(monkeypatch).TARGETS
    assert targets
    for name, module, attr, _ in targets:
        owner = importlib.import_module(f"qoecast.{module}")
        if "." in attr:  # a method, wrapped on the class that defines it
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), name
        assert callable(getattr(owner, attr, None)), name


def test_runner_exposes_what_the_bench_reads(monkeypatch):
    targets = _tracing(monkeypatch).TARGETS
    (tag,) = [t[3] for t in targets if t[2] == "BundleRunner.predict"]
    bundle = load_bundle(ROOT / "tests" / "data" / "lastvalue.bundle.json")
    runner = BundleRunner(bundle)
    assert runner.bundle is bundle
    batch = np.random.default_rng(0).random((16, 5, 6))
    result = runner.predict(batch)
    assert result[0].shape == (16,)
    assert tag((runner, batch), result) == f"{bundle.variant_id}:16"
