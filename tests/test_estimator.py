"""Estimator behavior against a brute-force event-replay oracle.

The oracle recomputes the sent/acked step functions, the age and
backlog sample paths, and their exact piecewise integrals straight from
the definitions, sharing no code with the estimator.
"""

import math
import random

import pytest

from agectl.estimator import MAX_PENDING, NoEstimateError, ProtocolError, SourceEstimator


class ReplayOracle:
    """Reconstructs the processes from a raw event log, by definition.

    Events: ("send", t, seq, gen_ts) and ("ack", t, seq, echo_ts_us),
    time-sorted.
    highest-sent S(t) counts sends up to t; highest-acked N(t) is the
    running max seq over all ACK arrivals up to t (stale arrivals cannot
    raise the max).  Age is t - gen_ts[N(t)] once N(t) > 0, else
    undefined (contributes zero to integrals, matching the estimator's
    convention).
    """

    def __init__(self, events):
        self.events = sorted(events, key=lambda e: e[1])
        self.gen_ts = {ev[2]: ev[3] for ev in self.events if ev[0] == "send"}

    def state_at(self, t):
        sent = acked = 0
        for ev in self.events:
            if ev[1] > t:
                break
            if ev[0] == "send":
                sent = max(sent, ev[2])
            else:
                acked = max(acked, ev[2])
        return sent, acked

    def backlog_at(self, t):
        sent, acked = self.state_at(t)
        return sent - acked

    def age_at(self, t):
        _, acked = self.state_at(t)
        if acked == 0:
            return None
        return t - self.gen_ts[acked]

    def integrals(self, t0, t1):
        """Exact (age_area, backlog_area) over [t0, t1]."""
        cuts = sorted({t0, t1, *(ev[1] for ev in self.events if t0 < ev[1] < t1)})
        age_area = 0.0
        backlog_area = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            sent, acked = self.state_at(lo)
            backlog_area += (hi - lo) * (sent - acked)
            if acked > 0:
                gen = self.gen_ts[acked]
                age_area += (hi - lo) * ((lo + hi) / 2.0 - gen)
        return age_area, backlog_area


def us(gen_ts):
    """The wire timestamp of an update generated at ``gen_ts``, as a
    source session encodes it."""
    return round(gen_ts * 1e6)


def make_random_trace(rng, n_updates=30, loss=0.25, jitter=1.0):
    """Random send/ACK event log with loss and ACK reordering."""
    events = []
    t = 0.0
    send_times = {}
    for seq in range(1, n_updates + 1):
        t += rng.expovariate(2.0)
        events.append(("send", t, seq, t))
        send_times[seq] = t
    for seq, sent_at in send_times.items():
        if rng.random() < loss:
            continue
        events.append(("ack", sent_at + 0.01 + rng.expovariate(1.0 / jitter), seq, us(sent_at)))
    events.sort(key=lambda e: e[1])
    return events


def replay_into_estimator(events, est=None):
    est = est or SourceEstimator()
    for ev in events:
        if ev[0] == "send":
            assert est.on_send(ev[1], us(ev[3])) == ev[2]
        else:
            est.on_ack(ev[1], ev[2], ev[3])
    return est


# -- hand cases ---------------------------------------------------------------


def test_first_send_backlog():
    est = SourceEstimator()
    est.on_send(0.0, us(0.0))
    assert est.backlog == 1


def test_on_send_numbers_the_updates_in_order():
    # each send is the next update, stamped at its send instant
    est = SourceEstimator()
    assert [est.on_send(t, us(t)) for t in (0.0, 0.0, 0.5)] == [1, 2, 3]
    est.on_ack(0.75, 2, us(0.0))
    assert est.on_send(1.0, us(1.0)) == 4
    assert est.highest_sent == 4 and est._pending == {3: (0.5, us(0.5)), 4: (1.0, us(1.0))}


def test_three_sends_no_acks():
    est = SourceEstimator()
    for t in (0.0, 0.5, 1.0):
        est.on_send(t, us(t))
    assert est.backlog == 3


def test_single_exchange_resets_age_to_rtt():
    est = SourceEstimator()
    est.on_send(0.0, us(0.0))
    assert est.on_ack(0.2, 1, us(0.0)) == pytest.approx(0.2)
    assert est.age_at(0.2) == pytest.approx(0.2)
    assert est.age_at(1.2) == pytest.approx(1.2)  # unit slope afterwards
    assert est.backlog == 0


def test_out_of_sequence_ack_is_discarded():
    # an ACK for a newer update implicitly clears older ones; the late
    # ACK of an older update must then change nothing
    est = SourceEstimator()
    for t in (0.0, 0.1, 0.2):
        est.on_send(t, us(t))
    assert est.on_ack(0.5, 3, us(0.2)) is not None
    assert est.highest_acked == 3 and est.backlog == 0
    age_before = est.age_at(0.6)
    assert est.on_ack(0.6, 2, us(0.1)) is None
    assert est.highest_acked == 3
    assert est.age_at(0.6) == age_before


def test_unanswered_sends_keep_bounded_memory():
    # a far end that stops answering must not grow the source without bound:
    # only the newest MAX_PENDING sends are kept, and an ACK for an older one
    # is stale, so it returns None and changes nothing
    est = SourceEstimator()
    est.on_send(0.0, us(0.0))
    est.on_ack(0.005, 1, us(0.0))
    sent = 5000
    for seq in range(2, sent + 1):
        est.on_send(seq * 0.01, us(seq * 0.01))
    oldest = sent - MAX_PENDING + 1
    assert MAX_PENDING < sent - 1
    assert list(est._pending) == list(range(oldest, sent + 1))

    before = {name: dict(v) if isinstance(v, dict) else v for name, v in vars(est).items()}
    assert est.on_ack(60.0, oldest - 1, us((oldest - 1) * 0.01)) is None
    assert est.on_ack(60.0, 2, 12345) is None  # dropped: not even the echo is checked
    assert vars(est) == before

    # the oldest kept send is fresh and clears nothing else; a later one
    # implicitly acknowledges every kept send below it
    assert est.on_ack(60.0, oldest, us(oldest * 0.01)) == pytest.approx(60.0 - oldest * 0.01)
    assert list(est._pending) == list(range(oldest + 1, sent + 1))
    assert est.on_ack(60.5, sent - 1, us((sent - 1) * 0.01)) == pytest.approx(60.5 - (sent - 1) * 0.01)
    assert list(est._pending) == [sent] and est.backlog == 1


def test_stale_ack_keeps_ewma():
    est = SourceEstimator(alpha=0.5)
    est.on_send(0.0, us(0.0))
    est.on_send(0.1, us(0.1))
    est.on_ack(0.4, 2, us(0.1))
    rtt_before = est.rtt_ewma
    est.on_ack(0.9, 1, us(0.0))  # stale
    assert est.rtt_ewma == rtt_before


def test_ewma_seeding_and_recurrence():
    est = SourceEstimator(alpha=0.25)
    est.on_send(0.0, us(0.0))
    est.on_ack(0.4, 1, us(0.0))
    # first fresh ACK seeds both averages with the RTT
    assert est.rtt_ewma == pytest.approx(0.4)
    assert est.ack_gap_ewma == pytest.approx(0.4)
    est.on_send(1.0, us(1.0))
    assert est.on_ack(1.2, 2, us(1.0)) == pytest.approx(0.2)
    assert est.rtt_ewma == pytest.approx(0.75 * 0.4 + 0.25 * 0.2)
    assert est.ack_gap_ewma == pytest.approx(0.75 * 0.4 + 0.25 * 0.8)  # gap 1.2 - 0.4


def test_alpha_one_tracks_latest_sample():
    est = SourceEstimator(alpha=1.0)
    for seq, (ts, ta) in enumerate(((0.0, 0.3), (1.0, 1.1), (2.0, 2.7)), start=1):
        est.on_send(ts, us(ts))
        est.on_ack(ta, seq, us(ts))
        assert est.rtt_ewma == pytest.approx(ta - ts)


def test_constant_samples_converge():
    est = SourceEstimator(alpha=0.25)
    t = 0.0
    for seq in range(1, 60):
        est.on_send(t, us(t))
        est.on_ack(t + 0.2, seq, us(t))
        t += 1.0
    assert est.rtt_ewma == pytest.approx(0.2)
    assert est.ack_gap_ewma == pytest.approx(1.0, rel=1e-6)


def test_epoch_constant_backlog():
    est = SourceEstimator()
    est.on_send(0.0, us(0.0))
    est.on_send(0.0, us(0.0))
    stats = est.close_epoch(5.0)
    assert stats.avg_backlog == pytest.approx(2.0)
    assert stats.backlog_now == 2
    assert stats.age_diff is None and stats.backlog_diff is None


def test_epoch_sawtooth_age():
    # reset to r every period p: time-average is r + p/2
    r, p = 0.3, 1.0
    est = SourceEstimator()
    t = 0.0
    seq = 0
    # warm one cycle so the age is defined from epoch start
    seq += 1
    est.on_send(t, us(t))
    est.on_ack(t + r, seq, us(t))
    est.restart_epochs(t + r)
    for k in range(1, 11):
        seq += 1
        send_at = t + r + k * p - r
        est.on_send(send_at, us(send_at))
        est.on_ack(t + r + k * p, seq, us(send_at))
    stats = est.close_epoch(t + r + 10 * p)
    assert stats.avg_age == pytest.approx(r + p / 2)


def test_epoch_diffs_against_previous():
    est = SourceEstimator()
    est.on_send(0.0, us(0.0))
    first = est.close_epoch(1.0)
    assert first.age_diff is None
    second = est.close_epoch(2.0)
    assert second.backlog_diff == pytest.approx(0.0)
    assert second.avg_backlog == pytest.approx(1.0)


def test_errors():
    est = SourceEstimator()
    with pytest.raises(NoEstimateError):
        est.age_at(1.0)
    with pytest.raises(ProtocolError):
        est.on_ack(0.5, 3, us(0.5))  # never sent
    est.on_send(1.0, us(1.0))
    with pytest.raises(ProtocolError):
        est.on_send(0.5, us(0.5))  # clock moved backwards
    with pytest.raises(ProtocolError, match="backwards"):
        est.on_ack(0.5, 1, us(1.0))  # a fresh ACK, before the send
    with pytest.raises(ValueError):
        est.close_epoch(0.0)  # zero-length epoch
    with pytest.raises(ValueError):
        SourceEstimator(alpha=0.0)


def test_nan_instants_are_rejected_and_change_nothing():
    # on_send(nan) once made the clock NaN, and close_epoch(nan) then
    # returned NaN averages; each comparison now fails for a NaN
    est = SourceEstimator()
    est.on_send(1.0, us(1.0))
    est.on_ack(1.5, 1, us(1.0))
    est.on_send(2.0, us(2.0))
    state = lambda: repr({**vars(est), "_pending": dict(est._pending)})  # noqa: E731
    before = state()
    for bad in (math.nan, math.inf):  # inf once became the clock, an RTT or a NaN average
        for call, error in (
            (lambda: est.on_send(bad, 0), ProtocolError),
            (lambda: est.on_ack(bad, 2, us(2.0)), ProtocolError),
            (lambda: est.restart_epochs(bad), ProtocolError),
            (lambda: est.close_epoch(bad), ValueError),
        ):
            with pytest.raises(error, match="not a number|a number as its end"):
                call()
            assert state() == before
    assert est.close_epoch(2.5).avg_backlog == pytest.approx(0.4)  # 0 over [0, 1], 1 over [1, 1.5] and [2, 2.5]


def test_fresh_ack_must_echo_the_generation_time():
    est = SourceEstimator()
    est.on_send(0.25, us(0.25))
    est.on_send(0.5, us(0.5))
    with pytest.raises(ProtocolError, match="echoes"):
        est.on_ack(1.0, 2, us(0.25))  # update 1's timestamp, not update 2's
    assert (est.highest_acked, est.rtt_ewma, est.backlog) == (0, None, 2)
    assert est.on_ack(1.0, 1, us(0.25)) == pytest.approx(0.75)
    assert est.on_ack(1.5, 1, 999) is None  # stale: no estimate to guard


# -- oracle equivalence --------------------------------------------------------


def test_random_traces_match_oracle():
    rng = random.Random(0xE57)
    for trial in range(400):
        events = make_random_trace(rng, n_updates=rng.randrange(5, 40))
        oracle = ReplayOracle(events)
        est = replay_into_estimator(events)
        end = events[-1][1]
        # step values match bit for bit at random probe instants
        for _ in range(20):
            t = end + rng.random() * 2.0
            assert est.backlog == oracle.backlog_at(t)
        expected_age = oracle.age_at(end + 1.0)
        if expected_age is None:
            with pytest.raises(NoEstimateError):
                est.age_at(end + 1.0)
        else:
            assert est.age_at(end + 1.0) == expected_age  # exact float equality


def test_random_traces_epoch_integrals_match_oracle():
    rng = random.Random(0x1D5)
    for trial in range(200):
        events = make_random_trace(rng, n_updates=rng.randrange(5, 40))
        end = events[-1][1]
        boundary = end * rng.uniform(0.3, 0.9)
        before = [e for e in events if e[1] <= boundary]
        after = [e for e in events if e[1] > boundary]
        est = replay_into_estimator(before)
        stats1 = est.close_epoch(boundary)
        replay_into_estimator(after, est)
        stats2 = est.close_epoch(end + 0.5)

        oracle = ReplayOracle(events)
        age1, b1 = oracle.integrals(0.0, boundary)
        age2, b2 = oracle.integrals(boundary, end + 0.5)
        assert stats1.avg_age == pytest.approx(age1 / boundary, rel=1e-9, abs=1e-12)
        assert stats1.avg_backlog == pytest.approx(b1 / boundary, rel=1e-9, abs=1e-12)
        w2 = end + 0.5 - boundary
        assert stats2.avg_age == pytest.approx(age2 / w2, rel=1e-9, abs=1e-12)
        assert stats2.avg_backlog == pytest.approx(b2 / w2, rel=1e-9, abs=1e-12)
        assert stats2.age_diff == pytest.approx(age2 / w2 - age1 / boundary, rel=1e-6, abs=1e-9)


def test_epoch_integral_against_dense_numerical_oracle():
    # independent midpoint Riemann sum at 1 microsecond resolution
    import numpy as np

    rng = random.Random(99)
    events = make_random_trace(rng, n_updates=12, loss=0.2, jitter=0.3)
    end = events[-1][1] + 0.25
    est = replay_into_estimator(events)
    stats = est.close_epoch(end)

    ev_times = np.array([ev[1] for ev in sorted(events, key=lambda e: e[1])])
    sent_run = np.maximum.accumulate(
        [ev[2] if ev[0] == "send" else 0 for ev in sorted(events, key=lambda e: e[1])]
    )
    acked_run = np.maximum.accumulate(
        [ev[2] if ev[0] == "ack" else 0 for ev in sorted(events, key=lambda e: e[1])]
    )
    max_seq = int(sent_run[-1])
    gen_by_seq = np.full(max_seq + 1, np.nan)
    for ev in events:
        if ev[0] == "send":
            gen_by_seq[ev[2]] = ev[3]

    step = 1e-6
    n = int(end / step)
    age_sum = 0.0
    backlog_sum = 0.0
    for start in range(0, n, 1_000_000):
        count = min(1_000_000, n - start)
        ts = (np.arange(start, start + count) + 0.5) * step
        idx = np.searchsorted(ev_times, ts, side="right") - 1
        seen = idx >= 0
        sent = np.where(seen, sent_run[np.clip(idx, 0, None)], 0)
        acked = np.where(seen, acked_run[np.clip(idx, 0, None)], 0)
        backlog_sum += float(np.sum(sent - acked))
        has_age = acked > 0
        age_sum += float(np.sum(ts[has_age] - gen_by_seq[acked[has_age]]))
    assert stats.avg_age == pytest.approx(age_sum * step / end, rel=1e-6)
    assert stats.avg_backlog == pytest.approx(backlog_sum * step / end, rel=1e-6)


class ReferenceIntegrator:
    """The estimator's areas, integrated one event at a time with the float
    expressions it documents: ``dt * backlog`` and ``dt * (midpoint - gen)``
    over each piece between events, summed in event order."""

    def __init__(self):
        self.clock = self.epoch_start = 0.0
        self.sent = self.acked = 0
        self.acked_gen = 0.0
        self.age_area = self.backlog_area = 0.0
        self.gen = {}

    def advance(self, t):
        dt = t - self.clock
        if dt > 0.0:
            self.backlog_area += dt * (self.sent - self.acked)
            if self.acked > 0:
                self.age_area += dt * ((self.clock + t) * 0.5 - self.acked_gen)
        self.clock = t

    def send(self, t, seq):
        self.advance(t)
        self.sent = seq
        self.gen[seq] = t

    def ack(self, t, seq):
        if seq <= self.acked:
            return  # stale: no integration step
        self.advance(t)
        self.acked, self.acked_gen = seq, self.gen[seq]

    def close(self, t):
        self.advance(t)
        duration = t - self.epoch_start
        out = self.age_area / duration, self.backlog_area / duration
        self.age_area = self.backlog_area = 0.0
        self.epoch_start = t
        return out


def test_integration_is_bit_exact_against_reference():
    # sends, in-order ACKs, ACKs after losses, stale ACKs and epoch closes at
    # random, often at one instant; every average must match to the bit
    rng = random.Random(0xB17)
    closes = 0
    for trial in range(300):
        est, ref = SourceEstimator(), ReferenceIntegrator()
        t = 0.0
        for _ in range(rng.randrange(5, 80)):
            t += rng.choice((0.0, rng.expovariate(3.0), rng.random() * 1e-9))
            sent, acked = est.highest_sent, est.highest_acked
            move = rng.random()
            if move < 0.4 or sent == 0:
                est.on_send(t, us(t))
                ref.send(t, sent + 1)
                continue
            if move < 0.65 and acked < sent:
                seq = acked + 1  # in order
            elif move < 0.8 and acked < sent:
                seq = rng.randrange(acked + 1, sent + 1)  # the ones below it were lost
            elif move < 0.9:
                seq = rng.randrange(1, sent + 1)  # stale unless above highest_acked
            else:
                if t > est._epoch_start:
                    stats = est.close_epoch(t)
                    assert (stats.avg_age, stats.avg_backlog) == ref.close(t)
                    closes += 1
                continue
            est.on_ack(t, seq, us(ref.gen[seq]))
            ref.ack(t, seq)
        t += rng.expovariate(3.0)
        stats = est.close_epoch(t)
        assert (stats.avg_age, stats.avg_backlog) == ref.close(t)
    assert closes > 100


def test_monotone_counters_property():
    rng = random.Random(0xBEEF)
    events = make_random_trace(rng, n_updates=60, loss=0.4)
    est = SourceEstimator()
    prev_sent = prev_acked = 0
    for ev in events:
        if ev[0] == "send":
            assert est.on_send(ev[1], us(ev[3])) == ev[2]
        else:
            est.on_ack(ev[1], ev[2], ev[3])
        assert est.highest_sent >= prev_sent
        assert est.highest_acked >= prev_acked
        assert est.backlog == est.highest_sent - est.highest_acked >= 0
        prev_sent, prev_acked = est.highest_sent, est.highest_acked
