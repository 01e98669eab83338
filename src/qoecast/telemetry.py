"""Raw telemetry records and trace file IO.

A trace is an ordered series of per-tick link/vehicle measurements, plus
optional per-window QoE labels kept in a sidecar table. Traces are immutable
once built; every later stage treats them as read-only inputs.

Supported on-disk formats: CSV with a fixed header, and NDJSON with one
object per line using the same keys. Labels always travel as a small CSV
(window_index,qoe). NDJSON trace files and live streams share one line
decoder (decode_json_line) and one record validator (_parse_record).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import EmptyTrace, MalformedRow, NonMonotonicTimestamp

logger = logging.getLogger(__name__)

FIELD_NAMES = ("ts_ms", "throughput_mbps", "jitter_ms", "loss_rate", "loss_count", "speed_kmh")
CSV_HEADER = ",".join(FIELD_NAMES)
LABELS_HEADER = "window_index,qoe"


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips back to the same float."""
    return repr(float(x))


class TelemetrySample(NamedTuple):
    """One measurement tick, an immutable named tuple.

    qoe is an optional in-band measured QoE value; generated traces leave
    it out (their labels live in the sidecar), live streams may carry it.
    """

    ts_ms: int
    throughput_mbps: float
    jitter_ms: float
    loss_rate: float
    loss_count: int
    speed_kmh: float
    qoe: float | None = None


@dataclass(frozen=True)
class Trace:
    """An ordered, strictly-monotonic series of samples with optional labels.

    labels, when present, is a tuple of (window_index, qoe) pairs over
    WINDOW_S windows.
    """

    samples: tuple[TelemetrySample, ...]
    labels: tuple[tuple[int, float], ...] | None = None
    trace_id: str = ""

    def __post_init__(self):
        if not self.samples:
            raise EmptyTrace("trace has no samples")
        isfinite = math.isfinite
        prev = None
        for s in self.samples:
            ts, thr, jitter, loss, count, speed, qoe = s
            if prev is not None and ts <= prev:
                raise NonMonotonicTimestamp(
                    f"ts_ms {ts} follows {prev}; timestamps must strictly increase"
                )
            prev = ts
            # a non-finite value would be written, then fail to load
            if not (isfinite(thr) and isfinite(jitter) and isfinite(loss)
                    and isfinite(count) and isfinite(speed)
                    and (qoe is None or isfinite(qoe))):
                name, value = next((k, v) for k, v in zip(s._fields[1:], s[1:])
                                   if v is not None and not isfinite(v))
                raise ValueError(f"sample at ts_ms {ts}: {name} is {value!r}, not finite")
        if self.labels is not None:
            for idx, q in self.labels:
                if not (0.0 <= q <= 100.0):
                    raise ValueError(f"label for window {idx} outside [0, 100]: {q}")

    @property
    def duration_s(self) -> float:
        """Covered span in seconds, counting the final tick's full period."""
        return (self.samples[-1].ts_ms / 1000.0) + TICK_S

    def label_map(self) -> dict[int, float]:
        return dict(self.labels) if self.labels else {}


# ------------------------------------------------------------------ windows

# The fixed window protocol: 1 Hz ticks, summed into 10 s windows.
TICK_S = 1
WINDOW_S = 10
WINDOW_MS = WINDOW_S * 1000
WINDOW_TICKS = WINDOW_S // TICK_S  # the ticks of a whole window
MIN_WINDOW_COVERAGE = 0.8


@dataclass(slots=True)
class Window:
    """One closed window of ticks.

    link holds the sequential-sum aggregates in feature order: throughput,
    jitter and loss-rate means, the loss-count sum and the speed mean. qoe
    is the mean in-band QoE, None when no tick carried one. skipped counts
    the empty window slots between the previous window and this one.
    dropped names why the window cannot be used, None when it is kept.
    """

    index: int
    ticks: int
    link: tuple[float, float, float, float, float]
    qoe: float | None
    skipped: int
    dropped: str | None


class WindowAggregator:
    """The window rule shared by label generation, dataset preparation and
    live serving.

    Ticks, in timestamp order, fall into window ts_ms // WINDOW_MS and are
    summed one by one. A window closes when it reaches WINDOW_TICKS ticks
    or when the first tick of a later window arrives; ticks that land in a
    window already closed at its count are ignored. A closed window is
    dropped when it holds fewer than 80 % of WINDOW_TICKS, or when any link
    mean is not finite.
    """

    __slots__ = ("_index", "_next", "_skipped", "_ticks", "_thr", "_jitter", "_loss_rate",
                 "_loss_count", "_speed", "_qoe", "_qoe_ticks")

    def __init__(self):
        self._index: int | None = None  # open window
        self._next: int | None = None  # slot after the last closed window

    def add(self, s: TelemetrySample) -> tuple[Window, ...]:
        """Sum one tick; returns the windows it closes, usually none."""
        w = s.ts_ms // WINDOW_MS
        closed = ()
        if w != self._index:
            if self._next is not None and w < self._next:
                return ()
            if self._index is not None:
                closed = (self._close(),)
            self._skipped = 0 if self._next is None else w - self._next
            self._index = w
            self._ticks = 0
            self._thr = self._jitter = self._loss_rate = 0.0
            self._loss_count = self._speed = self._qoe = 0.0
            self._qoe_ticks = 0
        self._ticks += 1
        self._thr += s.throughput_mbps
        self._jitter += s.jitter_ms
        self._loss_rate += s.loss_rate
        self._loss_count += s.loss_count
        self._speed += s.speed_kmh
        if s.qoe is not None:
            self._qoe += s.qoe
            self._qoe_ticks += 1
        if self._ticks == WINDOW_TICKS:
            return closed + (self._close(),)
        return closed

    def flush(self) -> tuple[Window, ...]:
        """Close the open window, if any, at the end of the ticks."""
        return () if self._index is None else (self._close(),)

    def windows(self, samples: Iterable[TelemetrySample]) -> Iterator[Window]:
        """Every window the samples close, the last open one included."""
        for s in samples:
            yield from self.add(s)
        yield from self.flush()

    def _close(self) -> Window:
        n = self._ticks
        link = (self._thr / n, self._jitter / n, self._loss_rate / n,
                self._loss_count, self._speed / n)
        if n < MIN_WINDOW_COVERAGE * WINDOW_TICKS:
            dropped = f"{n}/{WINDOW_TICKS} ticks"
        elif not all(map(math.isfinite, link)):
            dropped = "non-finite"
        else:
            dropped = None
        win = Window(self._index, n, link,
                     self._qoe / self._qoe_ticks if self._qoe_ticks else None,
                     self._skipped, dropped)
        self._next = self._index + 1
        self._index = None
        return win


# ------------------------------------------------------------------ parsing

MAX_SHOWN_CHARS = 64  # an error detail names a longer value by its length


def _shown(detail: str, v) -> str:
    """An error detail that may echo the value v, with a string v longer
    than MAX_SHOWN_CHARS, quoted or not, replaced by its length."""
    if isinstance(v, str) and len(v) > MAX_SHOWN_CHARS:
        length = f"<{len(v)} characters>"
        detail = detail.replace(repr(v), length).replace(v, length)
    return detail


def _integer(v) -> int:
    """A strict integer: 12 and 12.0 pass; true, 1500.7, inf and an integer
    too large for a float do not."""
    if isinstance(v, bool):
        raise ValueError(f"not an integer: {v}")
    if isinstance(v, int):
        float(v)  # raises OverflowError for an int no window sum can hold
        return v
    if isinstance(v, str):
        try:
            parsed = int(v)
        except ValueError:
            pass  # "12.0" and "1e3" still count when integral
        else:
            float(parsed)  # the same bound as for an int
            return parsed
    parsed = float(v)
    if not parsed.is_integer():  # also False for inf and nan
        raise ValueError(f"not an integer: {v}")
    return int(parsed)


def _parse_record(raw: dict, record_no: int) -> TelemetrySample:
    """Validate one raw string/number mapping into a sample, in one pass.

    ts_ms and loss_count must be integers (integral floats pass); every
    value must be finite and in range. Raises MalformedRow naming the
    first offending field: every field is converted, in field order,
    before the range checks run. A value already of its field's type is
    taken as it is.
    """
    get = raw.get
    try:
        name = "ts_ms"
        v = get(name)
        ts_ms = _integer(v)
        name = "throughput_mbps"
        v = get(name)
        thr = v if type(v) is float else float(v)
        name = "jitter_ms"
        v = get(name)
        jitter = v if type(v) is float else float(v)
        name = "loss_rate"
        v = get(name)
        loss_rate = v if type(v) is float else float(v)
        name = "loss_count"
        v = get(name)
        loss_count = _integer(v)
        name = "speed_kmh"
        v = get(name)
        speed = v if type(v) is float else float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        # None and "" never convert, so a missing value lands here too
        detail = "missing" if v is None or v == "" else _shown(str(exc), v)
        raise MalformedRow(record_no, name, detail) from None
    # Every comparison is False for NaN and each upper bound excludes
    # infinity, so these checks also reject every non-finite value.
    if ts_ms < 0:
        raise MalformedRow(record_no, "ts_ms", "negative")
    if not 0.0 <= thr < math.inf:
        raise MalformedRow(record_no, "throughput_mbps", f"out of range: {thr}")
    if not 0.0 <= jitter < math.inf:
        raise MalformedRow(record_no, "jitter_ms", f"out of range: {jitter}")
    if not 0.0 <= loss_rate <= 1.0:
        raise MalformedRow(record_no, "loss_rate", f"out of range: {loss_rate}")
    if loss_count < 0:
        raise MalformedRow(record_no, "loss_count", f"out of range: {loss_count}")
    if not 0.0 <= speed < math.inf:
        raise MalformedRow(record_no, "speed_kmh", f"out of range: {speed}")
    qoe = get("qoe")
    if qoe is None or qoe == "":
        qoe = None
    else:
        if type(qoe) is not float:
            try:
                qoe = float(qoe)
            except (TypeError, ValueError, OverflowError):
                raise MalformedRow(record_no, "qoe", "not a number") from None
        if not 0.0 <= qoe <= 100.0:
            raise MalformedRow(record_no, "qoe", f"out of range: {qoe}")
    return TelemetrySample(ts_ms, thr, jitter, loss_rate, loss_count, speed, qoe)


def _trace_format(path: str | Path) -> str:
    """The trace format a file's suffix names: "ndjson" for .ndjson, .jsonl
    and .json, else "csv"."""
    return "ndjson" if Path(path).suffix in (".ndjson", ".jsonl", ".json") else "csv"


def decode_json_line(line: str | bytes, record_no: int) -> dict:
    """Decode one NDJSON line, text or raw bytes, into its record object,
    for trace files and live streams alike.

    Raises MalformedRow on field "record" for bytes that are not valid
    UTF-8, for invalid JSON, for nesting too deep to decode, for an integer
    literal longer than the interpreter converts (4,300 digits by default),
    and for a value that is not an object.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRow(record_no, "record", f"invalid json: {exc.msg}") from None
    except UnicodeDecodeError:
        raise MalformedRow(record_no, "record", "invalid utf-8") from None
    except RecursionError:
        raise MalformedRow(record_no, "record", "json nested too deeply") from None
    except ValueError:  # the integer string conversion limit
        raise MalformedRow(record_no, "record", "integer literal too long") from None
    if not isinstance(obj, dict):
        raise MalformedRow(record_no, "record", "not an object")
    return obj


_KNOWN_FIELDS = frozenset(FIELD_NAMES) | {"qoe"}


def _csv_records(text: str) -> Iterator[tuple[int, dict]]:
    reader = csv.reader(io.StringIO(text, newline=None))  # universal newlines
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyTrace("file has no header row") from None
    header = [h.strip() for h in header]
    missing = [n for n in FIELD_NAMES if n not in header]
    if missing:
        raise MalformedRow(0, missing[0], "column missing from header")
    extra = [h for h in header if h not in _KNOWN_FIELDS]
    if extra:
        logger.warning("ignoring unknown trace columns: %s", ", ".join(extra))
    for record_no, row in enumerate(reader, start=1):
        if any(c.strip() for c in row):
            yield record_no, dict(zip(header, row))


def _ndjson_records(text: str) -> Iterator[tuple[int, dict]]:
    warned: set[str] = set()
    for record_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        obj = decode_json_line(line, record_no)
        for key in obj.keys() - _KNOWN_FIELDS - warned:
            logger.warning("ignoring unknown trace field: %s", key)
            warned.add(key)
        yield record_no, obj


def load_trace(path: str | Path, labels_path: str | Path | None = None) -> Trace:
    """Load a trace file, in the format its suffix names, into a Trace whose
    id is the file stem.

    Blank lines are skipped but still counted in record numbers (a CSV
    header is record 0). The first malformed record, invalid UTF-8
    included, raises MalformedRow naming its number and field; a timestamp
    that does not increase raises NonMonotonicTimestamp.
    """
    path = Path(path)
    ndjson = _trace_format(path) == "ndjson"
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted the way the readers split
        # lines; the bytes before it decode
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines()) - 1
        raise MalformedRow(line + 1 if ndjson else line, "record", "invalid utf-8") from None
    records = _ndjson_records(text) if ndjson else _csv_records(text)
    samples = tuple(_parse_record(raw, record_no) for record_no, raw in records)
    if not samples:
        raise EmptyTrace(f"{path}: no valid samples")

    labels = load_labels(labels_path) if labels_path is not None else None
    try:
        return Trace(samples=samples, labels=labels, trace_id=path.stem)
    except NonMonotonicTimestamp as exc:
        raise NonMonotonicTimestamp(f"{path}: {exc}") from None


def load_labels(path: str | Path) -> tuple[tuple[int, float], ...]:
    """Load a window_index,qoe label table; a bad row's MalformedRow has the file as source."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["window_index", "qoe"]:
        raise MalformedRow(0, "window_index", "bad labels header", path)
    out = []
    for i, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        name, v = "window_index", row[0]
        try:
            idx = int(v)
            name, v = "qoe", row[1] if len(row) > 1 else ""
            q = float(v)
        except ValueError as exc:
            detail = _shown(str(exc), v) if v.strip() else "missing"
            raise MalformedRow(i, name, detail, path) from None
        if not (0.0 <= q <= 100.0):
            raise MalformedRow(i, "qoe", f"out of range: {q}", path)
        out.append((idx, q))
    return tuple(out)


# ------------------------------------------------------------------ writing

# One line per tick and format: the six fields, then the qoe cell, which
# closes the NDJSON object.
_CSV_LINE = "%d,%s,%s,%s,%d,%s"
_NDJSON_LINE = ('{"ts_ms": %d, "throughput_mbps": %s, "jitter_ms": %s, '
                '"loss_rate": %s, "loss_count": %d, "speed_kmh": %s')


def write_trace(
    trace: Trace,
    path: str | Path,
    labels_path: str | Path | None = None,
    inband_qoe: bool = False,
) -> None:
    """Write a trace (and its labels, if any) to disk, in the format the
    path's suffix names.

    A tick's own qoe is written as is. With inband_qoe=True a tick without
    one carries its window's label under "qoe" instead, which is what a
    live probe that measures QoE in-band would emit. Floats use shortest
    round-trip formatting, so load(write(trace)) reproduces the trace
    exactly.
    """
    path = Path(path)
    label_of = trace.label_map() if inband_qoe else {}
    # the one qoe rule: the tick's own value, else its window's label
    qoes = [s.qoe if s.qoe is not None else label_of.get(s.ts_ms // WINDOW_MS)
            for s in trace.samples]
    if _trace_format(path) == "csv":
        qoe_column = inband_qoe or any(q is not None for q in qoes)
        head = [CSV_HEADER + ",qoe" if qoe_column else CSV_HEADER]
        line, with_qoe, without_qoe = _CSV_LINE, ",%s", "," if qoe_column else ""
    else:
        head = []
        line, with_qoe, without_qoe = _NDJSON_LINE, ', "qoe": %s}', "}"
    lines = head + [
        line % (s.ts_ms, fmt_float(s.throughput_mbps), fmt_float(s.jitter_ms),
                fmt_float(s.loss_rate), s.loss_count, fmt_float(s.speed_kmh))
        + (without_qoe if q is None else with_qoe % fmt_float(q))
        for s, q in zip(trace.samples, qoes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    if labels_path is not None and trace.labels is not None:
        write_labels(trace.labels, labels_path)


def write_labels(labels, path: str | Path) -> None:
    lines = [LABELS_HEADER]
    for idx, q in labels:
        lines.append(f"{idx},{fmt_float(q)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
