import hashlib
import json

import numpy as np
import pytest

from qoecast.errors import EmptyTrace, MalformedRow, NonMonotonicTimestamp
from qoecast.synthgen import GeneratorConfig, generate_trace
from qoecast.telemetry import (
    CSV_HEADER,
    FIELD_NAMES,
    TelemetrySample,
    Trace,
    WindowAggregator,
    load_labels,
    load_trace,
    write_labels,
    write_trace,
)


def _sample(i, **kw):
    base = dict(ts_ms=i * 1000, throughput_mbps=20.0 + i, jitter_ms=15.0,
                loss_rate=0.01, loss_count=10, speed_kmh=30.0)
    base.update(kw)
    return TelemetrySample(**base)


def _trace(n=25, **kw):
    return Trace(samples=tuple(_sample(i) for i in range(n)), **kw)


class TestTraceType:
    def test_empty_rejected(self):
        with pytest.raises(EmptyTrace):
            Trace(samples=())

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            Trace(samples=(_sample(1), _sample(0)))

    def test_equal_timestamps_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            Trace(samples=(_sample(0), _sample(0)))

    def test_duration_counts_last_tick(self):
        tr = _trace(30)
        assert tr.duration_s == 30.0

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            _trace(labels=((0, 101.0),))

    @pytest.mark.parametrize("field", [*FIELD_NAMES[1:], "qoe"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sample_rejected(self, field, value):
        # write_trace would write it and load_trace then reject the file
        with pytest.raises(ValueError, match=f"ts_ms 1000: {field} is {value!r}"):
            Trace(samples=(_sample(0), _sample(1, **{field: value})))

    def test_label_map(self):
        tr = _trace(labels=((0, 50.0), (1, 60.0)))
        assert tr.label_map() == {0: 50.0, 1: 60.0}


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_write_load_exact(self, tmp_path, fmt):
        # shortest round-trip float formatting must reproduce every bit
        rng = np.random.default_rng(3)
        samples = tuple(
            TelemetrySample(
                ts_ms=i * 1000,
                throughput_mbps=float(rng.uniform(5, 50)),
                jitter_ms=float(rng.uniform(10, 100)),
                loss_rate=float(rng.uniform(0, 0.05)),
                loss_count=int(rng.integers(0, 50)),
                speed_kmh=float(rng.uniform(0, 80)),
            )
            for i in range(40)
        )
        tr = Trace(samples=samples, labels=((0, 77.25), (1, 12.0)), trace_id="t")
        p = tmp_path / f"t.{fmt}"
        lp = tmp_path / "labels.csv"
        write_trace(tr, p, labels_path=lp)
        back = load_trace(p, labels_path=lp)
        assert back == tr

    def test_format_inferred_from_suffix(self, tmp_path):
        tr = _trace(12)
        p = tmp_path / "t.ndjson"
        write_trace(tr, p)
        assert p.read_text().lstrip().startswith("{")
        assert load_trace(p).samples == tr.samples

    def test_inband_qoe_attaches_window_labels(self, tmp_path):
        tr = _trace(20, labels=((0, 40.0), (1, 60.0)))
        p = tmp_path / "t.ndjson"
        write_trace(tr, p, inband_qoe=True)
        back = load_trace(p)
        assert all(s.qoe == 40.0 for s in back.samples[:10])
        assert all(s.qoe == 60.0 for s in back.samples[10:])

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_own_qoe_round_trips(self, tmp_path, fmt):
        # a sample's own qoe is written whether or not inband_qoe is set
        tr = Trace(samples=tuple(_sample(i, qoe=55.5) for i in range(3)), trace_id="t")
        p = tmp_path / f"t.{fmt}"
        write_trace(tr, p)
        assert load_trace(p) == tr

    @pytest.mark.parametrize("fmt,inband,digest", [
        ("csv", False, "d8759e1b01e9a6e0c67e9f9aea4e872b2dd6b9ddefab4de40f36ed2c94e3d402"),
        ("csv", True, "26d40c004b094982f8fcda28ee18aafefb2afd1501d65143a19feb9f9c94fda1"),
        ("ndjson", False, "58232c7f391c5f94d01fb99b5bce34f42ead6e8ae6680a3edc5f0c56c6f70bb8"),
        ("ndjson", True, "df82348f53c992703b2af7cadc319885ed7fef5008b567372014bcf46f4cdf17"),
    ])
    def test_written_bytes_pinned(self, tmp_path, fmt, inband, digest):
        # every byte of a generated trace as each format writes it
        tr = generate_trace(GeneratorConfig(seed=1, duration_s=600))
        p = tmp_path / f"t.{fmt}"
        write_trace(tr, p, inband_qoe=inband)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest

    def test_labels_round_trip(self, tmp_path):
        labels = ((0, 33.3), (1, 0.0), (2, 100.0))
        p = tmp_path / "labels.csv"
        write_labels(labels, p)
        assert load_labels(p) == labels


class TestLoadValidation:
    def test_strict_raises_on_bad_value(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + "\n0,nope,15,0.01,10,30\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == "throughput_mbps"

    def test_loss_rate_out_of_range(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + "\n0,20,15,1.5,10,30\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == "loss_rate"

    def test_qoe_out_of_range(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text('{"ts_ms":0,"throughput_mbps":20,"jitter_ms":15,"loss_rate":0.01,"loss_count":10,"speed_kmh":30,"qoe":120}\n')
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == "qoe"

    def test_monotonicity_always_hard_error(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["1000,20,15,0.01,10,30", "0,20,15,0.01,10,30"]
        p.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(NonMonotonicTimestamp) as e:
            load_trace(p)
        assert str(p) in str(e.value)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + "\n")
        with pytest.raises(EmptyTrace):
            load_trace(p)

    def test_blank_lines_skipped_in_strict_mode(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + "\n0,20,15,0.01,10,30\n\n1000,20,15,0.01,10,30\n")
        assert len(load_trace(p).samples) == 2

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("ts_ms,throughput_mbps\n0,20\n")
        with pytest.raises(MalformedRow):
            load_trace(p)

    def test_unknown_columns_warned_not_fatal(self, tmp_path, caplog):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + ",rssi\n0,20,15,0.01,10,30,-70\n")
        with caplog.at_level("WARNING"):
            tr = load_trace(p)
        assert len(tr.samples) == 1
        assert any("rssi" in r.message for r in caplog.records)

    def test_ndjson_bad_line_strict(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text("not json\n")
        with pytest.raises(MalformedRow):
            load_trace(p)

    @pytest.mark.parametrize("suffix", ["csv", "ndjson"])
    def test_invalid_utf8_names_its_record(self, tmp_path, suffix):
        # the third record after two good ones: CSV counts from its header
        # at 0, NDJSON from 1, and a lone carriage return ends a line too
        good = {"csv": "0,20,15,0.01,10,30", "ndjson": _ndjson_record()}[suffix]
        head = (CSV_HEADER + "\n") if suffix == "csv" else ""
        p = tmp_path / f"t.{suffix}"
        p.write_bytes((head + good + "\r\n" + good + "\r").encode() + b"\xff\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert (e.value.record_no, e.value.field) == (3, "record")
        assert "invalid utf-8" in str(e.value)

    def test_bad_labels_header(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("idx,score\n0,50\n")
        with pytest.raises(MalformedRow):
            load_labels(p)


def _ndjson_record(**kw):
    rec = {"ts_ms": 0, "throughput_mbps": 20.0, "jitter_ms": 30.0, "loss_rate": 0.01,
           "loss_count": 10, "speed_kmh": 40.0}
    rec.update(kw)
    return json.dumps(rec)


class TestNumericStrictness:
    def test_ndjson_infinity_rejected(self, tmp_path):
        # NDJSON Infinity used to parse to inf and skew five forecasts
        p = tmp_path / "t.ndjson"
        p.write_text('{"ts_ms": 0, "throughput_mbps": Infinity, "jitter_ms": 30.0, '
                     '"loss_rate": 0.01, "loss_count": 10, "speed_kmh": 40.0}\n')
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == "throughput_mbps"

    @pytest.mark.parametrize("field", ["jitter_ms", "loss_rate", "speed_kmh", "qoe"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_ndjson_non_finite_rejected_in_every_float_field(self, tmp_path, field, value):
        p = tmp_path / "t.ndjson"
        p.write_text(_ndjson_record(**{field: value}) + "\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == field

    @pytest.mark.parametrize("row,field", [
        ("0,inf,15,0.01,10,30", "throughput_mbps"),
        ("0,20,nan,0.01,10,30", "jitter_ms"),
        ("0,20,15,0.01,10,-inf", "speed_kmh"),
        ("0,20,15,0.01,inf,30", "loss_count"),
        ("0,20,15,0.01,10,30,nan", "qoe"),
    ])
    def test_csv_inf_and_nan_rejected(self, tmp_path, row, field):
        p = tmp_path / "t.csv"
        p.write_text(CSV_HEADER + ",qoe\n" + row + "\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == field

    @pytest.mark.parametrize("kw,field", [
        ({"ts_ms": True}, "ts_ms"),
        ({"ts_ms": 1500.7}, "ts_ms"),
        ({"loss_count": False}, "loss_count"),
        ({"loss_count": 10.5}, "loss_count"),
        ({"loss_count": 10 ** 400}, "loss_count"),
    ])
    def test_strict_integers(self, tmp_path, kw, field):
        # a float timestamp used to be truncated, and true read as 1
        p = tmp_path / "t.ndjson"
        p.write_text(_ndjson_record(**kw) + "\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert e.value.field == field

    @pytest.mark.parametrize("value", ["x" * 100_000, "1" * 4403], ids=["junk", "digits"])
    @pytest.mark.parametrize("field", [*FIELD_NAMES, "qoe"])
    def test_long_value_named_by_its_length(self, tmp_path, field, value):
        # an error detail used to echo the whole value, 100,000 characters
        # of it; past 64 characters it names the length
        for p in (tmp_path / "t.ndjson", tmp_path / "t.csv"):
            if p.suffix == ".csv":
                rec = json.loads(_ndjson_record(**{"qoe": 50.0, field: value}))
                p.write_text(CSV_HEADER + ",qoe\n" + ",".join(map(str, rec.values())) + "\n")
            else:
                p.write_text(_ndjson_record(**{field: value}) + "\n")
            with pytest.raises(MalformedRow) as e:
                load_trace(p)
            assert e.value.field == field
            assert len(str(e.value)) < 120
        if field != "qoe" and (value[0] == "x" or field in ("ts_ms", "loss_count")):
            assert str(e.value).endswith(f": <{len(value)} characters>)")

    def test_long_label_named_by_its_length(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("window_index,qoe\n0," + "x" * 100_000 + "\n")
        with pytest.raises(MalformedRow, match=r": <100000 characters>\)$"):
            load_labels(p)

    @pytest.mark.parametrize("row,record_no,field,detail", [
        ("abc,50.0", 2, "window_index", "invalid literal for int() with base 10: 'abc'"),
        (",50.0", 2, "window_index", "missing"),
        ("3", 2, "qoe", "missing"),
        ("3, ", 2, "qoe", "missing"),
        ("3,high", 2, "qoe", "could not convert string to float: 'high'"),
    ])
    def test_bad_label_row_names_its_field_and_file(self, tmp_path, row, record_no, field,
                                                    detail):
        p = tmp_path / "labels.csv"
        p.write_text(f"window_index,qoe\n0,50.0\n{row}\n")
        with pytest.raises(MalformedRow) as e:
            load_labels(p)
        assert (e.value.record_no, e.value.field, e.value.source) == (record_no, field, p)
        assert str(e.value) == f"record {record_no}: bad value for {field!r} ({detail})"

    def test_short_values_echoed_as_before(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(_ndjson_record(ts_ms="1.5", speed_kmh="abc") + "\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert str(e.value) == "record 1: bad value for 'ts_ms' (not an integer: 1.5)"
        p.write_text(_ndjson_record(speed_kmh="x" * 64) + "\n")
        with pytest.raises(MalformedRow) as e:
            load_trace(p)
        assert str(e.value).endswith("(could not convert string to float: '" + "x" * 64 + "')")

    def test_integral_floats_accepted_for_integer_fields(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(_ndjson_record(ts_ms=1500.0, loss_count=10.0) + "\n")
        s = load_trace(p).samples[0]
        assert (s.ts_ms, s.loss_count) == (1500, 10)
        assert type(s.ts_ms) is int and type(s.loss_count) is int
        c = tmp_path / "t.csv"
        c.write_text(CSV_HEADER + "\n1500.0,20,15,0.01,10.0,30\n2000,20,15,0.01,1e1,30\n")
        assert [(s.ts_ms, s.loss_count) for s in load_trace(c).samples] == \
            [(1500, 10), (2000, 10)]


class TestWindowAggregator:
    def test_closes_at_count_or_at_a_later_window(self):
        agg = WindowAggregator()
        closed = [w for i in range(10) for w in agg.add(_sample(i))]
        assert [(w.index, w.ticks, w.dropped) for w in closed] == [(0, 10, None)]
        assert closed[0].link[0] == sum(20.0 + i for i in range(10)) / 10
        assert closed[0].link[3] == 100.0  # loss counts are summed
        for i in range(10, 19):  # window 1 stops one tick short
            assert agg.add(_sample(i)) == ()
        (w1,) = agg.add(_sample(40))  # window 4's first tick closes window 1
        assert (w1.index, w1.ticks, w1.dropped) == (1, 9, None)
        (w4,) = agg.flush()
        assert (w4.index, w4.skipped, w4.dropped) == (4, 2, "1/10 ticks")
        assert agg.flush() == ()

    def test_inband_qoe_mean(self):
        agg = WindowAggregator()
        samples = [_sample(i, qoe=50.0 + i if i < 4 else None) for i in range(10)]
        (w,) = list(agg.windows(samples))
        assert w.qoe == (50.0 + 51.0 + 52.0 + 53.0) / 4
