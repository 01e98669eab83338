"""Property tests of the record reader: whatever a line or a field holds,
decoding and validation either produce a usable sample or raise
MalformedRow, never anything else."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qoecast.errors import MalformedRow
from qoecast.telemetry import (
    FIELD_NAMES,
    TelemetrySample,
    WindowAggregator,
    _parse_record,
    decode_json_line,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)

huge_ints = st.integers(min_value=10 ** 300, max_value=10 ** 400) | \
    st.integers(max_value=-10 ** 300, min_value=-10 ** 400)
# what a CSV cell or a JSON string may hold
numeric_strings = ((st.integers() | huge_ints | st.floats()).map(str)
                   | st.sampled_from(["", " ", "inf", "-nan", "1e400", "12.0", " 7 ", "1_0"]))
json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | numeric_strings
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4,
)
# huge integers, bare and as strings, get a branch of their own: they are
# the values most likely to pass a conversion and overflow later
field_values = huge_ints | huge_ints.map(str) | json_like
good_values = {
    "ts_ms": st.integers(0, 10 ** 12),
    "throughput_mbps": st.floats(0.0, 1e6),
    "jitter_ms": st.floats(0.0, 1e6),
    "loss_rate": st.floats(0.0, 1.0),
    "loss_count": st.integers(0, 10 ** 6),
    "speed_kmh": st.floats(0.0, 300.0),
}


def _record(good, bad, dropped):
    raw = {**good, **bad}
    for name in dropped:
        raw.pop(name, None)
    return raw


# a plausible record with up to two fields set to anything at all and one
# field dropped at most
names = st.sampled_from(FIELD_NAMES + ("qoe",))
records = st.builds(
    _record,
    st.fixed_dictionaries(good_values, optional={"qoe": st.floats(0.0, 100.0)}),
    st.dictionaries(names, field_values, max_size=2),
    st.sets(names, max_size=1),
)


@PROPERTY
@given(records)
def test_parse_record_gives_a_usable_sample_or_malformed_row(raw):
    try:
        s = _parse_record(raw, 1)
    except MalformedRow as exc:
        assert exc.field in FIELD_NAMES + ("qoe",)
        return
    assert type(s) is TelemetrySample
    assert type(s.ts_ms) is int and type(s.loss_count) is int
    floats = (s.throughput_mbps, s.jitter_ms, s.loss_rate, s.speed_kmh)
    assert all(type(v) is float for v in floats)
    # an int too large for a float makes isfinite raise
    assert all(math.isfinite(v) for v in floats + (s.ts_ms, s.loss_count))
    assert s.ts_ms >= 0 and s.throughput_mbps >= 0.0 and s.jitter_ms >= 0.0
    assert 0.0 <= s.loss_rate <= 1.0 and s.loss_count >= 0 and s.speed_kmh >= 0.0
    assert s.qoe is None or (type(s.qoe) is float and 0.0 <= s.qoe <= 100.0)
    # the window rule sums every field of an accepted sample
    agg = WindowAggregator()
    agg.add(s)
    assert all(math.isfinite(v) for w in agg.flush() for v in w.link)


def _long_integer_line(digits):
    return '{"ts_ms": 1' + "0" * digits + "}"


lines = (st.text() | st.binary()
         | json_like.map(json.dumps)
         | st.dictionaries(st.sampled_from(FIELD_NAMES), json_like).map(json.dumps)
         | st.integers(4290, 4310).map(_long_integer_line))


@PROPERTY
@given(lines)
def test_decode_json_line_gives_an_object_or_malformed_row(line):
    try:
        obj = decode_json_line(line, 1)
    except MalformedRow as exc:
        assert exc.field == "record"
        return
    assert type(obj) is dict
