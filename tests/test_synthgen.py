import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from qoecast.errors import InvalidConfig, SpanOutOfRange
from qoecast.seeding import derive_seed
from qoecast import synthgen
from qoecast.synthgen import (
    DWELL_JITTER_FRAC,
    ENVELOPE_JITTER_MS,
    ENVELOPE_LOSS_PCT,
    ENVELOPE_SPEED_KMH,
    ENVELOPE_THROUGHPUT_MBPS,
    EPISODE_MEAN_LEN_S,
    LINK_STATES,
    GeneratorConfig,
    generate_trace,
    inject_episode,
    qoe_oracle,
    transition_row,
)


def _trace_digest(tr):
    rows = [(s.ts_ms, s.throughput_mbps, s.jitter_ms, s.loss_rate, s.loss_count,
             s.speed_kmh, s.qoe) for s in tr.samples]
    return hashlib.sha256(repr((rows, tr.labels)).encode()).hexdigest()


class TestOracle:
    def test_spot_full_quality(self):
        assert qoe_oracle(50.0, 0.0, 10.0) == pytest.approx(100.0, abs=1e-9)

    def test_spot_lossy(self):
        # 100 * e^(-0.35*5)
        assert qoe_oracle(50.0, 5.0, 10.0) == pytest.approx(100.0 * math.exp(-1.75), abs=1e-9)

    def test_spot_throughput_limited(self):
        assert qoe_oracle(5.0, 0.0, 20.0) == pytest.approx(20.0, abs=1e-9)

    def test_smoothing_mixes_70_30(self):
        raw = qoe_oracle(50.0, 0.0, 10.0)
        assert qoe_oracle(50.0, 0.0, 10.0, prev_qoe=50.0) == pytest.approx(0.7 * raw + 0.3 * 50.0)

    def test_jitter_free_below_threshold(self):
        assert qoe_oracle(50.0, 0.0, 5.0) == qoe_oracle(50.0, 0.0, 20.0)

    def test_monotonicity_random_pairs(self):
        # raising thr never lowers qoe; raising loss/jitter never raises it
        rng = np.random.default_rng(11)
        for _ in range(300):
            thr = rng.uniform(0, 60)
            loss = rng.uniform(0, 6)
            jit = rng.uniform(0, 120)
            d = rng.uniform(0.01, 10)
            assert qoe_oracle(thr + d, loss, jit) >= qoe_oracle(thr, loss, jit)
            assert qoe_oracle(thr, loss + d / 10, jit) <= qoe_oracle(thr, loss, jit)
            assert qoe_oracle(thr, loss, jit + d) <= qoe_oracle(thr, loss, jit)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            q = qoe_oracle(rng.uniform(0, 100), rng.uniform(0, 10), rng.uniform(0, 200),
                           prev_qoe=float(rng.uniform(0, 100)))
            assert 0.0 <= q <= 100.0


class TestTransitionRow:
    def test_rows_sum_to_one(self):
        for st in LINK_STATES:
            for speed in (0.0, 20.0, 55.0, 80.0):
                row = transition_row(st, speed)
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
                assert row[st] == 0.0  # jump chain: always leaves

    def test_handover_weight_linear_in_speed(self):
        p40 = transition_row("good", 40.0)["handover"]
        p80 = transition_row("good", 80.0)["handover"]
        assert p80 == pytest.approx(2 * p40)
        assert transition_row("good", 0.0)["handover"] == 0.0

    def test_handover_never_self_enters(self):
        assert transition_row("handover", 80.0)["handover"] == 0.0


class TestGenerateTrace:
    def test_shape_and_labels(self):
        tr = generate_trace(GeneratorConfig(seed=1, duration_s=600))
        assert len(tr.samples) == 600
        assert len(tr.labels) == 60
        assert [w for w, _ in tr.labels] == list(range(60))

    def test_determinism(self):
        cfg = GeneratorConfig(seed=17, duration_s=120)
        assert generate_trace(cfg) == generate_trace(cfg)

    def test_label_digest_pinned(self):
        # window means are summed tick by tick; a different summation (such
        # as a compensated builtin sum) moves the labels and this digest
        labels = generate_trace(GeneratorConfig(seed=1)).labels
        digest = hashlib.sha256(repr(labels).encode()).hexdigest()
        assert digest == "239770e2fb05d35b60d544460fa30d4ba96ee980775ce6fa94a6b9916511eef4"

    @pytest.mark.parametrize("config,digest", [
        # 317 s ends mid-episode for each of these seeds
        (GeneratorConfig(seed=1, duration_s=317),
         "5182bcb252051db8f75c56b761e6f4a5b6ce436a68f1640dbc75fe5d23036d39"),
        (GeneratorConfig(seed=7, duration_s=317),
         "ba872427413bbdc6d4ff6d261ec777469e0d7ff8145b43152014fb6188e9c427"),
        (GeneratorConfig(seed=42, duration_s=317),
         "891ac4811dee77502a446800a531559970ba52aa3cebc9ee34d3b27f7a38ac3a"),
    ], ids=["seed1", "seed7", "seed42"])
    def test_sample_digest_pinned(self, config, digest):
        # every field of every sample, and the labels, bit for bit: the
        # order and the clamping of the random draws are part of a seed
        assert _trace_digest(generate_trace(config)) == digest

    def test_ranges_hold_across_seeds(self):
        # every sample inside the envelope, many seeds
        for seed in range(100):
            tr = generate_trace(GeneratorConfig(seed=seed, duration_s=60))
            for s in tr.samples:
                assert ENVELOPE_LOSS_PCT[0] / 100 <= s.loss_rate <= ENVELOPE_LOSS_PCT[1] / 100
                assert ENVELOPE_JITTER_MS[0] <= s.jitter_ms <= ENVELOPE_JITTER_MS[1]
                assert ENVELOPE_THROUGHPUT_MBPS[0] <= s.throughput_mbps <= ENVELOPE_THROUGHPUT_MBPS[1]
                assert ENVELOPE_SPEED_KMH[0] <= s.speed_kmh <= ENVELOPE_SPEED_KMH[1]
                assert s.loss_count == round(s.loss_rate * 1000)

    def test_labels_in_bounds(self):
        for seed in (3, 4, 5):
            tr = generate_trace(GeneratorConfig(seed=seed, duration_s=300))
            assert all(0.0 <= q <= 100.0 for _, q in tr.labels)

    def test_too_short_duration_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_trace(GeneratorConfig(seed=0, duration_s=9))

    def test_smoothing_links_consecutive_windows(self, monkeypatch):
        # with zero noise, window w's label is 0.7*oracle(w) + 0.3*label(w-1)
        monkeypatch.setattr(synthgen, "LABEL_NOISE_SIGMA", 0.0)
        tr = generate_trace(GeneratorConfig(seed=9, duration_s=200))
        by_w = {}
        for s in tr.samples:
            by_w.setdefault(s.ts_ms // 10000, []).append(s)
        labels = dict(tr.labels)
        prev = None
        for w in sorted(by_w):
            group = by_w[w]
            thr = sum(s.throughput_mbps for s in group) / len(group)
            loss = sum(s.loss_rate for s in group) / len(group) * 100
            jit = sum(s.jitter_ms for s in group) / len(group)
            expect = qoe_oracle(thr, loss, jit, prev)
            assert labels[w] == pytest.approx(expect, abs=1e-9)
            prev = labels[w]

    def test_episode_lengths_near_mean(self):
        # dwell is uniform around EPISODE_MEAN_LEN_S
        tr = generate_trace(GeneratorConfig(seed=21, duration_s=3000))
        # read off episodes from throughput jumps: state changes redraw base
        lens = []
        run = 1
        prev = tr.samples[0].throughput_mbps
        for s in tr.samples[1:]:
            if abs(s.throughput_mbps - prev) > 5.0:
                lens.append(run)
                run = 0
            run += 1
            prev = s.throughput_mbps
        lo = EPISODE_MEAN_LEN_S * (1 - DWELL_JITTER_FRAC)
        hi = EPISODE_MEAN_LEN_S * (1 + DWELL_JITTER_FRAC)
        # jump detection may merge episodes with similar bases, so test the mean
        assert lo <= np.mean(lens) <= hi * 1.5


class TestInjectEpisode:
    @pytest.fixture()
    def trace(self):
        return generate_trace(GeneratorConfig(seed=2, duration_s=300, trace_id="t"))

    def test_outside_span_untouched(self, trace):
        out = inject_episode(trace, 100, 50, "congested", seed=4)
        assert out.samples[:100] == trace.samples[:100]
        assert out.samples[150:] == trace.samples[150:]

    def test_span_redrawn_from_state(self, trace):
        out = inject_episode(trace, 100, 50, "congested", seed=4)
        # congestion holds throughput to 8-40 % of the 5-50 Mbps envelope
        lo, hi = 5.0 + 0.08 * 45.0, 5.0 + 0.40 * 45.0
        assert (LINK_STATES["congested"].lo[2], LINK_STATES["congested"].hi[2]) == (lo, hi)
        for s in out.samples[100:150]:
            assert lo <= s.throughput_mbps <= hi

    def test_speed_kept(self, trace):
        out = inject_episode(trace, 100, 50, "handover", seed=4)
        assert [s.speed_kmh for s in out.samples] == [s.speed_kmh for s in trace.samples]

    def test_labels_before_span_kept_after_recomputed(self, trace):
        out = inject_episode(trace, 100, 50, "congested", seed=4)
        kept = [l for l in trace.labels if l[0] < 10]
        assert [l for l in out.labels if l[0] < 10] == kept
        assert len(out.labels) == len(trace.labels)

    def test_relabels_past_a_window_that_is_not_whole(self, monkeypatch):
        # window 5 loses 3 of its 10 ticks (below 80 % coverage): it stays
        # unlabelled, and relabelling goes on after it, chained on window 4
        monkeypatch.setattr(synthgen, "LABEL_NOISE_SIGMA", 0.0)
        tr = generate_trace(GeneratorConfig(seed=3, duration_s=200))
        gapped = replace(tr, samples=tuple(s for s in tr.samples
                                           if not 50_000 <= s.ts_ms < 53_000),
                         labels=tuple(l for l in tr.labels if l[0] != 5))
        out = inject_episode(gapped, 0, 20, "handover", seed=1)
        assert [w for w, _ in out.labels] == [w for w in range(20) if w != 5]
        labels = dict(out.labels)
        by_w = {}
        for s in out.samples:
            by_w.setdefault(s.ts_ms // 10000, []).append(s)
        group = by_w[6]
        expect = qoe_oracle(sum(s.throughput_mbps for s in group) / 10,
                            sum(s.loss_rate for s in group) / 10 * 100,
                            sum(s.jitter_ms for s in group) / 10, labels[4])
        assert labels[6] == pytest.approx(expect, abs=1e-9)

    def test_sample_digest_pinned(self, trace):
        out = inject_episode(trace, 100, 50, "congested", seed=4)
        assert _trace_digest(out) == \
            "6ef21938074a7e782e616d33a95094daa6ad0a6c3902e579b7f0d0e0dd0c5ca6"

    def test_deterministic(self, trace):
        a = inject_episode(trace, 40, 30, "degraded", seed=8)
        b = inject_episode(trace, 40, 30, "degraded", seed=8)
        assert a == b

    def test_zero_length_is_identity(self, trace):
        assert inject_episode(trace, 50, 0, "good", seed=1) == trace

    def test_span_out_of_range(self, trace):
        with pytest.raises(SpanOutOfRange):
            inject_episode(trace, 290, 20, "good", seed=1)

    def test_unknown_state(self, trace):
        with pytest.raises(InvalidConfig):
            inject_episode(trace, 0, 10, "excellent", seed=1)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "trace:0") == derive_seed(1, "trace:0")
    seen = {derive_seed(1, f"trace:{i}") for i in range(50)}
    assert len(seen) == 50
    assert all(0 <= s < 2 ** 63 for s in seen)
