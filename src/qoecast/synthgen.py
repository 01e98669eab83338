"""Seeded synthetic vehicular-link traces with window-level QoE labels.

Impairments evolve as Markov episodes over link conditions: a jump chain
picks the next state, and each episode dwells for a span drawn around
EPISODE_MEAN_LEN_S. Entering a state draws an episode operating point
uniformly from that state's sub-range of the fixed global envelope; ticks
wiggle tightly around it until the episode ends, so conditions hold within
an episode and jump across episodes. Every sample stays inside the
envelope for any seed. Vehicle speed follows a clamped Gaussian
random walk and feeds back into the chain: the faster the vehicle, the more
likely a handover episode.

Labels are produced per whole window by a closed-form QoE oracle over the
window's mean link stats, smoothed against the previous window's label and
perturbed with clamped Gaussian noise. The means come from
telemetry.WindowAggregator, the window rule pipeline and serve apply too,
and window_qoe is the QoE fallback chain both of them use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, SpanOutOfRange
from .seeding import derive_seed
from .telemetry import (TICK_S, WINDOW_MS, WINDOW_S, WINDOW_TICKS, TelemetrySample, Trace,
                        Window, WindowAggregator)

# Oracle constants. thr saturates at 25 Mbps; loss is penalized per percent;
# jitter is free below 20 ms. Smoothing leans 70/30 toward the current window.
THR_SATURATION_MBPS = 25.0
LOSS_DECAY_PER_PCT = 0.35
JITTER_DECAY_PER_MS = 0.01
JITTER_FREE_MS = 20.0
SMOOTH_CURRENT = 0.7
SMOOTH_PREVIOUS = 0.3

SPEED_WALK_SIGMA_KMH = 2.0  # random-walk step per tick
SPEED_REF_KMH = 80.0  # speed at which the handover weight peaks
HANDOVER_WEIGHT_AT_REF = 0.20


def qoe_oracle(thr_mbps: float, loss_pct: float, jitter_ms: float,
               prev_qoe: float | None = None) -> float:
    """Closed-form QoE in VMAF-like units on [0, 100].

    Throughput contributes linearly up to a saturation point, loss and
    excess jitter decay the score exponentially, and the result is smoothed
    against the previous window's value when one exists.
    """
    thr_term = min(max(thr_mbps / THR_SATURATION_MBPS, 0.0), 1.0)
    raw = (
        100.0
        * thr_term
        * math.exp(-LOSS_DECAY_PER_PCT * loss_pct)
        * math.exp(-JITTER_DECAY_PER_MS * max(0.0, jitter_ms - JITTER_FREE_MS))
    )
    q = raw if prev_qoe is None else SMOOTH_CURRENT * raw + SMOOTH_PREVIOUS * prev_qoe
    return min(max(q, 0.0), 100.0)


# The generator's fixed envelope, loss in percent: every sample of every
# seed stays inside it.
ENVELOPE_LOSS_PCT = (0.0, 5.0)
ENVELOPE_JITTER_MS = (10.0, 100.0)
ENVELOPE_THROUGHPUT_MBPS = (5.0, 50.0)
ENVELOPE_SPEED_KMH = (0.0, 80.0)

EPISODE_MEAN_LEN_S = 30.0  # mean dwell of one state episode
LABEL_NOISE_SIGMA = 1.0  # Gaussian noise on each window label, before clamping

# Each episode freezes a base operating point inside its state's sub-ranges;
# ticks wiggle around it by this fraction of the global span. Conditions are
# near-constant within an episode and jump at transitions, which is what
# makes the traces bursty rather than white.
EPISODE_WIGGLE_FRAC = 0.02

# Episode length is uniform in EPISODE_MEAN_LEN_S * (1 +- DWELL_JITTER_FRAC),
# so the mean dwell equals EPISODE_MEAN_LEN_S exactly while transitions stay
# loosely periodic instead of memoryless.
DWELL_JITTER_FRAC = 0.3

_LINK_ENVELOPE = (ENVELOPE_LOSS_PCT, ENVELOPE_JITTER_MS, ENVELOPE_THROUGHPUT_MBPS)
# sigma of the wiggle of loss, jitter and throughput, and of a speed-walk step
_TICK_SIGMAS = np.array([EPISODE_WIGGLE_FRAC * (hi - lo) for lo, hi in _LINK_ENVELOPE]
                        + [SPEED_WALK_SIGMA_KMH])


class LinkState(NamedTuple):
    """One Markov state's sub-range of the envelope: lower and upper bounds
    of loss (percent), jitter and throughput, in that order."""

    lo: np.ndarray
    hi: np.ndarray


def _link_state(*fracs: tuple[float, float]) -> LinkState:
    """The state whose sub-range of each link metric's envelope spans the
    given fractions of it."""
    bounds = [(lo + f_lo * (hi - lo), lo + f_hi * (hi - lo))
              for (lo, hi), (f_lo, f_hi) in zip(_LINK_ENVELOPE, fracs)]
    return LinkState(*map(np.array, zip(*bounds)))


# each state's sub-ranges, as fractions of the envelope: loss, jitter, throughput
LINK_STATES: dict[str, LinkState] = {
    "good": _link_state((0.00, 0.25), (0.00, 0.35), (0.60, 1.00)),
    "degraded": _link_state((0.20, 0.55), (0.30, 0.65), (0.35, 0.75)),
    "handover": _link_state((0.50, 1.00), (0.55, 1.00), (0.03, 0.30)),
    "congested": _link_state((0.35, 0.80), (0.70, 1.00), (0.08, 0.40)),
}

# Relative destination weights when the chain leaves a state. The handover
# state is excluded here: its entry probability is carved out separately so
# that it stays exactly linear in vehicle speed. The cycle bias (good falls to
# degraded, congestion drains through degraded, handover resolves to good)
# gives episodes a recognizable progression instead of memoryless shuffling.
TRANSITION_WEIGHTS: dict[str, dict[str, float]] = {
    "good": {"degraded": 0.85, "congested": 0.15},
    "degraded": {"good": 0.45, "congested": 0.55},
    "handover": {"good": 0.80, "degraded": 0.20},
    "congested": {"degraded": 0.70, "good": 0.30},
}


@dataclass(frozen=True)
class GeneratorConfig:
    """One synthetic trace: its seed, length and id.

    duration_s must cover at least one whole window so a label exists.
    """

    seed: int = 0
    duration_s: int = 600
    trace_id: str = ""

    def validate(self) -> None:
        if self.duration_s < WINDOW_S:
            raise InvalidConfig(
                f"duration_s={self.duration_s} shorter than one {WINDOW_S} s window"
            )


def transition_row(current: str, speed_kmh: float) -> dict[str, float]:
    """Destination distribution when an episode of `current` ends. Sums to 1.

    The handover entry probability is HANDOVER_WEIGHT_AT_REF scaled linearly
    by speed / SPEED_REF_KMH; the rest of the mass goes to the other
    destinations in TRANSITION_WEIGHTS proportion. This is the jump chain of
    the episode process; dwell within a state is handled by _draw_dwell_ticks.
    """
    row = dict.fromkeys(LINK_STATES, 0.0)

    p_handover = 0.0
    if current != "handover":
        speed_frac = min(max(speed_kmh / SPEED_REF_KMH, 0.0), 1.0)
        p_handover = HANDOVER_WEIGHT_AT_REF * speed_frac
        row["handover"] = p_handover

    weights = TRANSITION_WEIGHTS[current]
    total = sum(weights.values())
    remaining = 1.0 - p_handover
    for name, w in weights.items():
        row[name] += remaining * w / total
    return row


def _draw_dwell_ticks(rng: np.random.Generator) -> int:
    lo = EPISODE_MEAN_LEN_S * (1.0 - DWELL_JITTER_FRAC)
    hi = EPISODE_MEAN_LEN_S * (1.0 + DWELL_JITTER_FRAC)
    return max(1, int(round(rng.uniform(lo, hi) / TICK_S)))


def _draw_ticks(rng: np.random.Generator, state: LinkState, base: np.ndarray,
                n_ticks: int, speed_steps: int = 0):
    """Draw n_ticks ticks of one episode from one block of normals.

    Each tick draws loss, jitter and throughput, wiggled around the
    episode's base and clamped to the state's sub-ranges; the first
    speed_steps ticks then draw a speed-walk step each. The block holds
    the values, in the order, that one rng.normal(0.0, sigma) call per
    value would draw: numpy computes such a call as 0.0 + sigma times a
    standard normal. Returns the throughput, jitter, loss-rate and
    loss-count columns as lists, and the speed steps.
    """
    width = 4 if speed_steps else 3
    n_draws = 3 * n_ticks + speed_steps
    block = np.zeros(width * n_ticks)  # a last speed slot left undrawn is never read
    block[:n_draws] = rng.standard_normal(n_draws)
    block = 0.0 + block.reshape(n_ticks, width) * _TICK_SIGMAS[:width]
    loss_pct, jitter, thr = np.minimum(np.maximum(base + block[:, :3], state.lo), state.hi).T
    loss_rate = loss_pct / 100.0
    # nominal 1000 packets/s link, as Python ints
    loss_count = list(map(round, (loss_rate * 1000.0 * TICK_S).tolist()))
    steps = block[:speed_steps, 3].tolist() if speed_steps else []
    return thr.tolist(), jitter.tolist(), loss_rate.tolist(), loss_count, steps


def window_qoe(win: Window, prev_qoe: float | None, known: float | None,
               last_forecast: float | None = None) -> float:
    """QoE feature of a kept window, the one fallback chain.

    The known value (a label offline, the in-band mean live) wins; else the
    last forecast, when a live stream has one; else the oracle over the
    window's means, chained on the previous kept window's QoE.
    """
    if known is not None:
        return known
    if last_forecast is not None:
        return last_forecast
    thr, jitter, loss_rate = win.link[:3]
    return qoe_oracle(thr, loss_rate * 100.0, jitter, prev_qoe)


def _label_windows(samples: list[TelemetrySample], noise_rng: np.random.Generator,
                   start_window: int = 0, prev_qoe: float | None = None,
                   ) -> list[tuple[int, float]]:
    """Label every whole window from start_window on, chaining the smoother.

    A window that is not whole (short, or with a non-finite mean) gets no
    label and is skipped, as is a missing one; the next whole window chains
    on the previous labelled one.
    """
    start_ms = start_window * WINDOW_MS
    labels = []
    for win in WindowAggregator().windows(s for s in samples if s.ts_ms >= start_ms):
        if win.ticks != WINDOW_TICKS or win.dropped is not None:
            continue
        q = window_qoe(win, prev_qoe, None) + noise_rng.normal(0.0, LABEL_NOISE_SIGMA)
        q = min(max(q, 0.0), 100.0)
        labels.append((win.index, q))
        prev_qoe = q
    return labels


def generate_trace(config: GeneratorConfig) -> Trace:
    """Generate one labeled trace, fully determined by config.seed."""
    config.validate()
    n_ticks = int(round(config.duration_s / TICK_S))
    walk_rng = np.random.default_rng(derive_seed(config.seed, "link-walk"))
    noise_rng = np.random.default_rng(derive_seed(config.seed, "label-noise"))

    speed_lo, speed_hi = ENVELOPE_SPEED_KMH
    speed = float(walk_rng.uniform(speed_lo, speed_hi))
    name = "good"
    state = LINK_STATES[name]
    base = walk_rng.uniform(state.lo, state.hi)
    dwell = _draw_dwell_ticks(walk_rng)
    ts_ms = [i * TICK_S * 1000 for i in range(n_ticks)]
    samples: list[TelemetrySample] = []
    while len(samples) < n_ticks:
        # An episode's last tick makes the transition draws before its
        # speed step; an episode the trace cuts short makes none.
        k = min(dwell, n_ticks - len(samples))
        ends = k == dwell
        thr, jitter, loss_rate, loss_count, steps = _draw_ticks(
            walk_rng, state, base, k, k - 1 if ends else k)
        speeds = []
        for step in steps:
            speeds.append(speed)
            speed = float(min(max(speed + step, speed_lo), speed_hi))
        if ends:
            speeds.append(speed)
            row = transition_row(name, speed)
            names = list(row.keys())
            name = str(walk_rng.choice(names, p=[row[n] for n in names]))
            state = LINK_STATES[name]
            base = walk_rng.uniform(state.lo, state.hi)
            dwell = _draw_dwell_ticks(walk_rng)
            step = walk_rng.normal(0.0, SPEED_WALK_SIGMA_KMH)
            speed = float(min(max(speed + step, speed_lo), speed_hi))
        samples += map(TelemetrySample, ts_ms[len(samples):len(samples) + k],
                       thr, jitter, loss_rate, loss_count, speeds)

    labels = _label_windows(samples, noise_rng)
    return Trace(
        samples=tuple(samples),
        labels=tuple(labels),
        trace_id=config.trace_id or f"synth-{config.seed}",
    )


def inject_episode(trace: Trace, start_s: float, length_s: float, state_name: str,
                   seed: int) -> Trace:
    """Redraw a time span under a forced link state and relabel.

    Samples inside [start_s, start_s + length_s) get fresh impairment draws
    from the forced state's sub-ranges (speed is kept); samples outside the
    span are untouched. Labels from the first overlapped window onward are
    recomputed, because the label smoother chains forward; earlier labels
    are kept verbatim.
    """
    if state_name not in LINK_STATES:
        raise InvalidConfig(f"unknown link state: {state_name}")
    if length_s < 0:
        raise SpanOutOfRange("length_s must be non-negative")
    if start_s < 0 or start_s + length_s > trace.duration_s:
        raise SpanOutOfRange(
            f"span [{start_s}, {start_s + length_s}) outside trace of {trace.duration_s} s"
        )
    if length_s == 0:
        return trace

    rng = np.random.default_rng(derive_seed(seed, "inject"))
    lo_ms, hi_ms = start_s * 1000.0, (start_s + length_s) * 1000.0
    state = LINK_STATES[state_name]
    base = rng.uniform(state.lo, state.hi)
    # timestamps strictly increase, so the span is one run of samples
    span = [i for i, s in enumerate(trace.samples) if lo_ms <= s.ts_ms < hi_ms]
    new_samples = list(trace.samples)
    if span:
        first, n = span[0], len(span)
        thr, jitter, loss_rate, loss_count, _ = _draw_ticks(rng, state, base, n)
        new_samples[first:first + n] = [
            s._replace(throughput_mbps=t, jitter_ms=j, loss_rate=r, loss_count=c)
            for s, t, j, r, c in zip(trace.samples[first:], thr, jitter, loss_rate, loss_count)]

    first_affected = int(lo_ms // WINDOW_MS)
    kept = tuple((w, q) for w, q in (trace.labels or ()) if w < first_affected)
    prev = kept[-1][1] if kept else None
    noise_rng = np.random.default_rng(derive_seed(seed, "inject-label-noise"))
    recomputed = _label_windows(new_samples, noise_rng,
                                start_window=first_affected, prev_qoe=prev)
    return Trace(
        samples=tuple(new_samples),
        labels=kept + tuple(recomputed) if (trace.labels is not None) else None,
        trace_id=trace.trace_id,
    )
