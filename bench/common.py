"""What every workload shares: run context, outcome record, CLI calls."""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qoecast import cli

clock = time.perf_counter

# The desk corpus: the paper's seed-1 benchmark of six 600 s traces. The
# stream and alert bundles are trained on it too, so all three workloads
# share one model and its numbers are comparable with the desk table.
DESK_SEED = 1
DESK_TRACES = 6
DESK_DURATION_S = 600


@dataclass
class Ctx:
    seed: int
    seconds: float
    work: Path
    tracer: object | None = None

    def rng(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, purpose])

    @contextlib.contextmanager
    def measuring(self):
        """Spans are recorded only inside this block, never during checks."""
        if self.tracer is not None:
            self.tracer.install()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.remove()


@dataclass
class Outcome:
    """What one run measured and what its checks found.

    passes: seconds of each pass of the workload's job; ops_ms: latency of
    each unit operation; attempted/failed: checked operations; problems:
    failures nobody expected (any makes the run incorrect); known: failures
    of the fault the workload keeps on purpose; named: the workload's own
    figures as (value, unit), for the report; counts: per-pass counts for
    the traced run.
    """

    passes: list[float] = field(default_factory=list)
    ops_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    named: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str, known: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.known if known else self.problems).append(what)
        return ok


def cli_call(*argv) -> None:
    """Run one qoecast command in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"qoecast {' '.join(map(str, argv))} exited with {rc}")


def desk_dataset(work: Path) -> Path:
    """Generate and prepare the desk corpus; returns the dataset directory."""
    cli_call("generate", "--seed", DESK_SEED, "--traces", DESK_TRACES,
             "--duration", DESK_DURATION_S, "--out", work / "desk_data")
    cli_call("prepare", "--data", work / "desk_data", "--out", work / "desk_ds")
    return work / "desk_ds"


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))
