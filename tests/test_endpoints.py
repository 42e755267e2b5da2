"""Endpoint state machines, connection lifecycle, and link behavior."""

import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from agectl import wire
from agectl.endpoints import (
    ConfigError,
    DrawStream,
    InitializationError,
    MonitorSession,
    SimulatedPath,
    SourceConfig,
    SourceSession,
    UdpLink,
    age_time_average,
    lazy_rate,
    parse_policy,
    run_monitor,
    run_source,
    substream_seed,
)
from agectl.estimator import MAX_PENDING, ProtocolError


def ack_for(frame: bytes) -> bytes:
    return wire.encode_ack(*wire.decode_update(frame))


# -- policy parsing -------------------------------------------------------------


def test_parse_policy():
    assert parse_policy("acp_plus") == ("acp_plus", None)
    assert parse_policy("lazy") == ("lazy", None)
    assert parse_policy("fixed:7.5") == ("fixed", 7.5)
    for bad in ("fixed:", "fixed:-1", "tcp", "fixed:abc", "fixed:nan", "fixed:inf", "fixed:1e309"):
        with pytest.raises(ConfigError):
            parse_policy(bad)


def test_source_config_validation():
    with pytest.raises(ConfigError):
        SourceConfig(probe_count=0)
    with pytest.raises(ConfigError):
        SourceConfig(payload_size=70_000)
    with pytest.raises(ConfigError):
        SourceConfig(policy="bogus")
    for timeout in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            SourceConfig(probe_timeout=timeout)
    wrong_types = [
        {"policy": 5},
        {"payload_size": 2.5},
        {"probe_count": 1.5},
        {"probe_count": True},
        {"updates_per_epoch": True},
        {"probe_timeout": True},
        {"probe_timeout": "1"},
        {"alpha": "x"},
        {"alpha": True},
    ]
    for kwargs in wrong_types:
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            SourceConfig(**kwargs)
    for alpha in (5.0, 0.0, -0.25, math.nan):
        with pytest.raises(ConfigError, match="alpha"):
            SourceConfig(alpha=alpha)
    assert SourceConfig(alpha=1).alpha == 1


def test_source_config_is_immutable():
    # a field set after construction would skip every check: a NaN probe
    # timeout then ended a run with "all 10 probes timed out"
    cfg = SourceConfig()
    with pytest.raises(AttributeError):
        cfg.probe_timeout = math.nan
    assert cfg == SourceConfig()


# -- initialization phase ---------------------------------------------------------


def test_init_rate_constant_rtt():
    # three probes all answered in 0.2 s: initial rate 5/s
    cfg = SourceConfig(probe_count=3)
    sess = SourceSession(cfg)
    frame = sess.on_timer(0.0)
    t = 0.0
    for _ in range(3):
        assert isinstance(frame, bytes)
        t += 0.2
        frame = sess.on_datagram(t, ack_for(frame))
    assert sess.state == "run"
    assert sess.initial_rate == pytest.approx(5.0)


def test_init_rate_mean_of_two():
    # RTTs 0.1 and 0.3: arithmetic mean 0.2, rate 5/s
    cfg = SourceConfig(probe_count=2)
    sess = SourceSession(cfg)
    frame = sess.on_timer(0.0)
    frame = sess.on_datagram(0.1, ack_for(frame))
    frame = sess.on_datagram(0.1 + 0.3, ack_for(frame))
    assert sess.state == "run"
    assert sess.initial_rate == pytest.approx(5.0)


def test_init_timeouts_excluded_from_mean():
    cfg = SourceConfig(probe_count=3, probe_timeout=1.0)
    sess = SourceSession(cfg)
    first = sess.on_timer(0.0)
    # probe 1 times out, probe 2 answered in 0.4 s, probe 3 times out
    second = sess.on_timer(1.0)
    assert isinstance(second, bytes)
    third = sess.on_datagram(1.4, ack_for(second))
    sess.on_timer(1.4 + 1.0)
    assert sess.state == "run"
    assert sess.initial_rate == pytest.approx(1.0 / 0.4)
    assert wire.decode_update(first)[0] == 1


def test_init_total_failure():
    cfg = SourceConfig(probe_count=2, probe_timeout=0.5)
    sess = SourceSession(cfg)
    sess.on_timer(0.0)
    sess.on_timer(0.5)
    with pytest.raises(InitializationError):
        sess.on_timer(1.0)


def test_init_over_exponential_link_across_seeds():
    # exponential forward delay with mean 0.2 s, instant ACK return: the
    # probe-mean inverse concentrates around 5/s.  The mean of 10
    # exponential samples leaves [0.1, 0.33] for ~6% of seeds, so the
    # [3, 10] band is asserted for the bulk, not for every seed.
    cfg = SourceConfig(probe_count=10, probe_timeout=5.0)
    rates = []
    for seed in range(100):
        path = SimulatedPath(fwd_delay=("exp", 0.2), rev_delay=0.0, seed=seed)
        rates.append(run_source(path, cfg, 1e-3)[0]["lambda_initial"])
    assert all(2.0 <= r <= 15.0 for r in rates)
    assert sum(1 for r in rates if 3.0 <= r <= 10.0) >= 90
    assert 4.5 <= sum(rates) / len(rates) <= 6.5


def test_late_probe_ack_still_counts_for_the_mean():
    cfg = SourceConfig(probe_count=2, probe_timeout=0.5)
    sess = SourceSession(cfg)
    first = sess.on_timer(0.0)
    second = sess.on_timer(0.5)  # probe 1 timed out, probe 2 out
    # probe 1's ACK arrives late, then probe 2's
    sess.on_datagram(0.7, ack_for(first))
    sess.on_datagram(0.8, ack_for(second))
    assert sess.state == "run"
    assert sess.initial_rate == pytest.approx(2.0 / (0.7 + 0.3))


def test_ack_with_a_wrong_echo_is_malformed():
    # probe 1 left at t=0; an ACK that names it but echoes another instant
    # is no evidence that it arrived
    sess = SourceSession(SourceConfig(probe_count=1))
    sess.on_timer(0.0)
    assert sess.on_datagram(0.1, wire.encode_ack(1, 123456789)) is None
    assert (sess.malformed, sess.fresh_acks, sess.stale_acks) == (1, 0, 0)
    assert sess.state == "init" and sess.initial_rate is None
    assert sess.estimator.highest_acked == 0 and sess.estimator.rtt_ewma is None
    sess.on_datagram(0.2, wire.encode_ack(1, 0))
    assert sess.state == "run" and sess.initial_rate == pytest.approx(5.0)


def _session_state(sess: SourceSession, malformed: int = 0) -> str:
    """Every field of ``sess``, its estimator and its controller, with
    ``malformed`` taken off the count of malformed frames."""
    fields = {k: v for k, v in vars(sess).items() if k not in ("estimator", "controller")}
    fields["malformed"] -= malformed
    est = sess.estimator
    return repr((fields, {**vars(est), "_pending": dict(est._pending)}, sess.controller and vars(sess.controller)))


@pytest.mark.parametrize("policy", ["acp_plus", "fixed:4"])
def test_nan_instants_are_rejected_and_change_nothing(policy):
    # on_timer(nan) or on_timer(inf) while probing once set the deadline to
    # NaN or inf before round() raised, after which the session sent at the
    # wrong instant or never again; on_datagram(nan or inf, ...) for a probe
    # made the RTT sum NaN or inf; a running on_timer(inf) raised ValueError;
    # a first timer at -1.0 moved the deadline to 0.0 before on_send raised
    sess = SourceSession(SourceConfig(policy=policy, probe_count=2, probe_timeout=1.0, updates_per_epoch=2))
    before = _session_state(sess)
    with pytest.raises(ProtocolError):
        sess.on_timer(-1.0)  # before the estimator's clock, which starts at 0.0
    assert _session_state(sess) == before and sess.deadline == -math.inf
    probe = sess.on_timer(0.0)  # probe 1, due to time out at 1.0
    for ack_at in (0.25, 0.5, None):
        for bad in (math.nan, math.inf, -math.inf):
            before = _session_state(sess)
            with pytest.raises(ProtocolError, match="not a number"):
                sess.on_timer(bad)
            assert _session_state(sess) == before
            assert sess.on_datagram(bad, ack_for(probe)) is None  # one malformed frame
            assert _session_state(sess, malformed=1) == before
        if ack_at is not None:
            assert sess.on_timer(ack_at) is None  # not yet timed out
            probe = sess.on_datagram(ack_at, ack_for(probe))  # probe 2, then probing ends
    assert sess.state == "run" and sess.deadline == 0.75  # the first send left at 0.5, at rate 4
    assert sess.on_datagram(0.9, ack_for(probe)) is None  # its ACK moves the clock past the deadline
    before = _session_state(sess)
    with pytest.raises(ProtocolError):
        sess.on_timer(0.8)  # due, but before the clock: this once moved the deadline before on_send raised
    assert _session_state(sess) == before
    assert sess.on_timer(0.9) is not None


def test_a_timer_before_the_clock_does_not_end_probing():
    # a fresh ACK for an earlier probe can move the clock past the last
    # probe's timeout; a timer between the two once set the first rate and
    # the controller before restart_epochs raised
    sess = SourceSession(SourceConfig(probe_count=2, probe_timeout=1.0))
    first = sess.on_timer(0.0)
    sess.on_timer(1.0)  # probe 1 timed out; probe 2 times out at 2.0
    assert sess.on_datagram(2.5, ack_for(first)) is None  # fresh, but not the current probe's
    before = _session_state(sess)
    with pytest.raises(ProtocolError):
        sess.on_timer(2.2)
    assert _session_state(sess) == before
    assert sess.on_timer(2.5) is not None and sess.state == "run"


def test_zero_mean_probe_rtt_is_an_initialization_error():
    with pytest.raises(InitializationError, match="zero"):
        run_source(SimulatedPath(0.0, 0.0), SourceConfig(), duration=1.0)


# -- monitor -----------------------------------------------------------------------


def make_update(seq: int, gen_ts_us: int, payload: bytes = b"x") -> bytes:
    return wire.encode_update(seq, gen_ts_us, payload)


def test_monitor_discards_out_of_sequence_without_ack():
    mon = MonitorSession()
    assert mon.on_datagram(1.0, make_update(1, 0)) is not None
    assert mon.on_datagram(3.0, make_update(3, 2_000_000)) is not None
    # update 2 arrives late: silently dropped, no ACK, age untouched
    assert mon.on_datagram(3.5, make_update(2, 1_000_000)) is None
    assert mon.stale == 1
    assert [rec["seq"] for rec in mon.trace] == [1, 3]
    assert mon.freshest_seq == 3


def test_monitor_rejects_an_instant_off_its_clock():
    # a NaN or infinite instant, or one before the last call's, was once
    # accepted and logged, and true_avg_age then raised
    mon = MonitorSession()

    def state(malformed: int = 0) -> str:
        return repr({**vars(mon), "malformed": mon.malformed - malformed})

    before, bad = state(), 0
    for t in (-1.0, math.nan, math.inf):  # the clock starts at 0.0
        for seq in (1, 2):
            assert mon.on_datagram(t, make_update(seq, 0)) is None
            bad += 1
            assert state(malformed=bad) == before
    assert mon.on_datagram(1.0, make_update(2, 0)) is not None
    before, bad = state(), 0
    for t in (math.nan, math.inf, -math.inf, 0.5):
        for seq in (1, 3):  # stale and fresh alike
            assert mon.on_datagram(t, make_update(seq, 500_000)) is None
            bad += 1
            assert state(malformed=bad) == before
    assert (mon.stale, mon.freshest_seq, list(mon.seqs)) == (0, 2, [2])
    assert mon.on_datagram(1.5, make_update(3, 500_000)) is not None
    assert mon.true_avg_age(0.0, 2.0) == pytest.approx(1.25)  # ages 1 to 1.5 over [1, 1.5], 1 to 1.5 over [1.5, 2]


def test_monitor_single_round_trip():
    mon = MonitorSession()
    reply = mon.on_datagram(0.25, make_update(1, 50_000))
    assert wire.decode_ack(reply) == (1, 50_000)
    assert mon.trace[0]["age_reset"] == pytest.approx(0.25 - 0.05)


def test_monitor_counts_malformed():
    mon = MonitorSession()
    assert mon.on_datagram(0.0, b"garbage") is None
    assert mon.on_datagram(0.0, wire.encode_ack(1, 0)) is None
    assert mon.malformed == 2


def test_monitor_randomized_orders_match_reference():
    import random

    rng = random.Random(0xF00)
    for _ in range(200):
        n = rng.randrange(2, 12)
        arrival_order = list(range(1, n + 1))
        rng.shuffle(arrival_order)
        mon = MonitorSession()
        best = 0
        expected_resets = []
        for k, seq in enumerate(arrival_order):
            t = float(k + 1)
            reply = mon.on_datagram(t, make_update(seq, seq * 1000))
            if seq > best:
                best = seq
                expected_resets.append((t, seq))
                assert reply is not None
            else:
                assert reply is None
        assert [(rec["t"], rec["seq"]) for rec in mon.trace] == expected_resets


def test_true_age_reads_exact_generation_instants():
    # rebuilt as t - (t - gen), this generation instant is one rounding off
    t, gen_ts_us = 4066.8508600612836, 1779939759
    hi = t + 1.0388876791354464
    mon = MonitorSession()
    assert mon.on_datagram(t, make_update(1, gen_ts_us)) is not None
    assert mon.true_avg_age(t, hi) == age_time_average([gen_ts_us / 1e6], [t], t, hi) == 2287.4305449008516


def _not_an_update(data: bytes) -> bool:
    try:
        wire.decode_update(data)
    except wire.WireError:
        return True
    return False


_GAPS = st.just(0.0) | st.floats(0.0, 10.0)
_TIMESTAMPS = st.integers(0, wire.MAX_TS_US)
_policies = st.one_of(
    st.sampled_from(["acp_plus", "lazy"]), st.floats(0.5, 60.0).map(lambda rate: f"fixed:{rate}")
)


class MonitorMachine(RuleBasedStateMachine):
    """Fresh, stale, duplicate, ACK-kind and garbage datagrams at
    non-decreasing instants, with true-age reads between them, against a
    list of the fresh updates sent.  Only an accepted update is written,
    one record each."""

    def __init__(self):
        super().__init__()
        self.written = []
        self.mon = MonitorSession(trace_writer=self.written.append)
        self.t = 0.0
        self.sent = 0
        self.fresh_sent = []  # (t, gen_ts_us, seq)

    def _send(self, gap: float, frame: bytes):
        self.t += gap
        self.sent += 1
        before = len(self.written)
        reply = self.mon.on_datagram(self.t, frame)
        assert len(self.written) == before + (reply is not None)
        return reply

    @rule(gap=_GAPS, step=st.integers(1, 1000), gen_ts_us=_TIMESTAMPS)
    def fresh(self, gap, step, gen_ts_us):
        seq = self.mon.freshest_seq + step
        reply = self._send(gap, make_update(seq, gen_ts_us))
        assert wire.decode_ack(reply) == (seq, gen_ts_us)
        self.fresh_sent.append((self.t, gen_ts_us, seq))

    @precondition(lambda self: self.fresh_sent)
    @rule(gap=_GAPS, data=st.data(), gen_ts_us=_TIMESTAMPS)
    def stale(self, gap, data, gen_ts_us):
        seq = data.draw(st.integers(1, self.mon.freshest_seq))
        assert self._send(gap, make_update(seq, gen_ts_us)) is None

    @precondition(lambda self: self.fresh_sent)
    @rule(gap=_GAPS)
    def duplicate(self, gap):
        _, gen_ts_us, seq = self.fresh_sent[-1]
        assert self._send(gap, make_update(seq, gen_ts_us)) is None

    @rule(gap=_GAPS, seq=st.integers(0, wire.MAX_SEQ), echo_ts_us=_TIMESTAMPS)
    def ack_kind(self, gap, seq, echo_ts_us):
        assert self._send(gap, wire.encode_ack(seq, echo_ts_us)) is None

    @rule(gap=_GAPS, data=st.binary(max_size=40).filter(_not_an_update))
    def garbage(self, gap, data):
        assert self._send(gap, data) is None

    @rule(lo=st.floats(0.0, 200.0), span=st.floats(0.0, 200.0))
    def read_true_age(self, lo, span):
        gen = [gen_ts_us / 1e6 for _, gen_ts_us, _ in self.fresh_sent]
        dlv = [t for t, _, _ in self.fresh_sent]
        got, want = self.mon.true_avg_age(lo, lo + span), age_time_average(gen, dlv, lo, lo + span)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @invariant()
    def counts_and_trace_agree(self):
        mon, trace = self.mon, self.mon.trace
        assert mon.accepted == len(trace)
        assert all(a["seq"] < b["seq"] for a, b in zip(trace, trace[1:]))
        assert trace == [{"t": t, "age_reset": t - us / 1e6, "seq": seq} for t, us, seq in self.fresh_sent]
        assert self.written == trace
        assert mon.accepted + mon.stale + mon.malformed == self.sent


TestMonitorMachine = MonitorMachine.TestCase
TestMonitorMachine.settings = settings(max_examples=60, deadline=None)


def _not_an_ack(data: bytes) -> bool:
    try:
        wire.decode_ack(data)
    except wire.WireError:
        return True
    return False


# datagrams mostly land within a round trip of the last event, so probing
# ends and epochs close in most runs
_ACK_GAPS = st.just(0.0) | st.floats(0.0, 1.0)


class SourceMachine(RuleBasedStateMachine):
    """Timers at arbitrary non-decreasing instants, and fresh, stale,
    wrong-echo and garbage datagrams, against the sends the source made.
    A typed error ends the run: no call reaches the session after it."""

    @initialize(
        policy=_policies,
        eta=st.integers(1, 4),
        probes=st.integers(1, 3),
        timeout=st.floats(0.01, 20.0),
    )
    def start(self, policy, eta, probes, timeout):
        self.cfg = SourceConfig(policy=policy, probe_count=probes, probe_timeout=timeout, updates_per_epoch=eta)
        self.records = []
        self.sess = SourceSession(self.cfg, trace_writer=self.records.append)
        self.t = 0.0
        self.failed = False
        self.probes = []  # (t, seq, gen_ts_us) of each probe
        self.run_sends = []  # (t, seq, gen_ts_us) of each send once epochs began
        self.counts = {"fresh_acks": 0, "stale_acks": 0, "malformed": 0}
        self._call(self.sess.on_timer)  # a new session is due at once

    def _call(self, method, *args):
        """Call ``method`` at ``self.t`` and record the send: the call that
        ends probing also makes the first send of the first epoch.  Every
        call returns one frame (bytes) or None.  A call that returns None
        must leave the deadline and the state as they were, and a timer at
        or after the deadline must return a frame: the closed-loop simulator
        re-arms a timer only after a call that did."""
        sess = self.sess
        if self.failed:
            return
        before = (sess.deadline, sess.state)
        due = method.__name__ == "on_timer" and self.t >= sess.deadline
        try:
            frame = method(self.t, *args)
            if frame is not None:
                sends = self.run_sends if sess.state == "run" else self.probes
                sends.append((self.t, *wire.decode_update(frame)))
        except (ValueError, InitializationError):
            self.failed = True
            return
        assert frame is None or type(frame) is bytes, (method.__name__, frame)
        assert frame is not None or not due
        if frame is None:
            assert (sess.deadline, sess.state) == before, method.__name__

    def _sent(self):
        return self.probes + self.run_sends

    @rule(gap=_GAPS)
    def timer(self, gap):
        self.t += gap
        self._call(self.sess.on_timer)

    @precondition(lambda self: self.sess.state == "run")
    @rule()
    def send_due(self):
        self.t = max(self.t, self.sess.deadline)
        self._call(self.sess.on_timer)

    def _ack(self, gap, frame, outcome):
        self.t += gap
        if not self.failed:
            self.counts[outcome] += 1
        self._call(self.sess.on_datagram, frame)

    def _unacked(self):
        """The sends not yet acknowledged, latest first: Hypothesis favours
        the first, and the latest probe's ACK is what ends probing."""
        return self._sent()[self.sess.estimator.highest_acked :][::-1]

    @precondition(lambda self: self.sess.estimator.highest_acked < self.sess.sends)
    @rule(gap=_ACK_GAPS, data=st.data())
    def fresh(self, gap, data):
        _, seq, gen_ts_us = data.draw(st.sampled_from(self._unacked()))
        self._ack(gap, wire.encode_ack(seq, gen_ts_us), "fresh_acks")

    @precondition(lambda self: self.sess.estimator.highest_acked)
    @rule(gap=_ACK_GAPS, data=st.data(), echo_ts_us=_TIMESTAMPS)
    def stale(self, gap, data, echo_ts_us):
        seq = data.draw(st.integers(1, self.sess.estimator.highest_acked))
        self._ack(gap, wire.encode_ack(seq, echo_ts_us), "stale_acks")

    @precondition(lambda self: self.sess.estimator.highest_acked < self.sess.sends)
    @rule(gap=_ACK_GAPS, data=st.data(), echo_ts_us=_TIMESTAMPS)
    def wrong_echo(self, gap, data, echo_ts_us):
        _, seq, gen_ts_us = data.draw(st.sampled_from(self._unacked()))
        if echo_ts_us == gen_ts_us:
            reject()
        self._ack(gap, wire.encode_ack(seq, echo_ts_us), "malformed")

    @rule(gap=_ACK_GAPS, data=st.binary(max_size=40).filter(_not_an_ack))
    def garbage(self, gap, data):
        self._ack(gap, data, "malformed")

    @invariant()
    def sends_and_epochs_agree(self):
        sess = self.sess
        sent = self._sent()
        assert [seq for _, seq, _ in sent] == list(range(1, len(sent) + 1)) and sess.sends == len(sent)
        assert all(gen_ts_us == round(t * 1e6) for t, _, gen_ts_us in sent)
        run_times = [t for t, _, _ in self.run_sends]
        assert all(a < b for a, b in zip(run_times, run_times[1:]))
        # epoch k closes at the instant of the k*eta-th send after epochs
        # began, which opens epoch k+1; a typed error may cut that send off
        closes = [rec["t"] for rec in sess.trace]
        opened = run_times[self.cfg.updates_per_epoch :: self.cfg.updates_per_epoch]
        assert closes == opened or (self.failed and closes[:-1] == opened)
        assert not math.isnan(sess.deadline)
        assert len(sess.trace) == sess.epoch_index and self.records == sess.trace
        assert {name: getattr(sess, name) for name in self.counts} == self.counts

    @invariant()
    def pending_holds_the_newest_unacknowledged_sends(self):
        # an in-order ACK and an ACK after losses clear their entries apart;
        # at most MAX_PENDING are kept
        est = self.sess.estimator
        oldest_kept = max(est.highest_acked, est.highest_sent - MAX_PENDING) + 1
        assert list(est._pending) == list(range(oldest_kept, est.highest_sent + 1))


TestSourceMachine = SourceMachine.TestCase
TestSourceMachine.settings = settings(max_examples=60, deadline=None)


# -- running sources over simulated paths ---------------------------------------------


def test_fixed_policy_sawtooth_average():
    # lossless, zero-jitter link with one-way delay d: once warm the
    # estimated age averages 2d + 1/(2 lambda)
    path = SimulatedPath(fwd_delay=0.05, rev_delay=0.05, seed=1)
    summary, sess = run_source(path, SourceConfig(policy="fixed:4", probe_count=3), duration=50.0)
    assert sess.est_avg_age(skip_time=5.0) == pytest.approx(2 * 0.05 + 1 / 8.0, rel=1e-9)
    assert summary["lambda_final"] == 4.0


def test_pacing_gaps_are_exact_within_epoch():
    cfg = SourceConfig(policy="fixed:4", probe_count=1)
    sess = SourceSession(cfg)
    frame = sess.on_timer(0.0)
    frame = sess.on_datagram(0.25, ack_for(frame))  # probing ends: the first epoch opens
    assert wire.decode_update(frame) == (2, 250_000)  # its first send, at the ACK
    send_times = [0.25]
    for _ in range(25):
        deadline = sess.deadline
        if sess.on_timer(deadline) is not None:
            send_times.append(deadline)
    gaps = [b - a for a, b in zip(send_times, send_times[1:])]
    assert all(g == pytest.approx(0.25, rel=1e-12) for g in gaps)


def test_epoch_spans_and_averages_by_hand():
    # fixed:4 with 2 updates per epoch: the probe (gen 0.0) is answered at
    # 0.5, so the initial rate is 2/s and epochs of 0.5 s open at 0.5, 1.0
    sess = SourceSession(SourceConfig(policy="fixed:4", probe_count=1, updates_per_epoch=2))
    probe = sess.on_timer(0.0)
    sent = [sess.on_datagram(0.5, ack_for(probe))]  # seq 2 at 0.5
    assert sess.initial_rate == 2.0 and sess.epoch_spans == []
    sess.on_datagram(0.625, ack_for(sent[0]))  # age resets to 0.125
    sent.append(sess.on_timer(0.75))  # seq 3
    sent.append(sess.on_timer(1.0))  # epoch 1 closes, then seq 4
    sent.append(sess.on_timer(1.25))  # seq 5
    sess.on_datagram(1.375, ack_for(sent[2]))  # seq 4: age resets to 0.375
    sess.on_timer(1.5)  # epoch 2 closes
    # epoch 1: age t over [0.5, 0.625], t - 0.5 after -> area 0.1875;
    # backlog 1, 0, 1 over 0.125, 0.125, 0.25 -> area 0.375
    # epoch 2: age t - 0.5 over [1, 1.375], t - 1 after -> area 0.3125;
    # backlog 2, 3, 1 over 0.25, 0.125, 0.125 -> area 1.0
    # both open at the fixed rate, not at the initial rate
    assert sess.epoch_spans == [(0.5, 0.375, 0.75, 4.0), (0.5, 0.625, 2.0, 4.0)]
    assert sess.epoch_averages(0.5) == (0.5, 1.375, 4.0)
    assert sess.epoch_averages(1.0) == (0.625, 2.0, 4.0)  # epoch 1 closes at 1.0
    assert all(math.isnan(v) for v in sess.epoch_averages(1.5))
    assert sess.est_avg_age(skip_time=0.5) == 0.625


def test_lazy_pacing_holds_across_epoch_closes():
    # each send is one period of the rate in force at the previous send,
    # also where an epoch closes between the two
    sess = SourceSession(SourceConfig(policy="lazy", probe_count=1, updates_per_epoch=2))
    frame = sess.on_datagram(0.5, ack_for(sess.on_timer(0.0)))  # epochs open at 0.5
    sends = [(0.5, sess.rate)]  # (instant, rate at that send)
    for share in (0.2, 0.6, 0.3, 0.5, 0.4, 0.25, 0.55):
        # the ACK lands before the next send and moves rtt_ewma, and the rate with it
        t, rate = sends[-1]
        sess.on_datagram(t + share / rate, ack_for(frame))
        due = sess.deadline
        frame = sess.on_timer(due)
        assert isinstance(frame, bytes)
        sends.append((due, sess.rate))
    assert sess.epoch_index == 3
    assert len({rate for _, rate in sends}) == len(sends)
    for (a, rate), (b, _) in zip(sends, sends[1:]):
        assert b - a == pytest.approx(1.0 / rate, rel=1e-12)


def test_late_timer_skips_missed_sends():
    # a real clock can handle a datagram long after a send fell due and only
    # then fire the timer: one send goes out at that instant and pacing
    # restarts from it, so no burst of sends shares one instant
    eta = 2
    sess = SourceSession(SourceConfig(policy="fixed:10", probe_count=1, updates_per_epoch=eta))
    frame = sess.on_datagram(0.5, ack_for(sess.on_timer(0.0)))  # epochs open at 0.5
    for closes in (0, 1):
        late = sess.deadline + (2 * eta + 2) / sess.rate
        sess.on_datagram(late, ack_for(frame))
        frame = sess.on_timer(late)
        assert isinstance(frame, bytes) and sess.epoch_index == closes
        assert sess.deadline == late + 1.0 / sess.rate
    assert sess.trace[0]["t"] == late


@pytest.mark.parametrize("late_periods", [10.0, 0.3])
def test_late_timer_sends_once_at_the_call_instant(late_periods):
    sess = SourceSession(SourceConfig(policy="fixed:10", probe_count=1, updates_per_epoch=2))
    sess.on_datagram(0.5, ack_for(sess.on_timer(0.0)))  # epochs open at 0.5
    due = sess.deadline
    late = due + late_periods / sess.rate
    frame = sess.on_timer(late)
    assert wire.decode_update(frame)[1] == round(late * 1e6)
    assert sess.epoch_index == 0
    # whole missed periods are skipped; a fraction of one keeps the grid
    assert sess.deadline == (late if late_periods >= 1.0 else due) + 1.0 / sess.rate


@pytest.mark.parametrize("policy, ack_at", [("acp_plus", 1e-300), ("fixed:1e17", 0.5)])
def test_send_period_lost_to_rounding_is_rejected(policy, ack_at):
    # a period below half an ulp of the clock would put every send at one
    # instant: probe 1 answered at ack_at sets the rate, probe 2 times out
    # and epochs open at its timeout (1.0 and 1.5), where the period is lost
    sess = SourceSession(SourceConfig(policy=policy, probe_count=2))
    sess.on_datagram(ack_at, ack_for(sess.on_timer(0.0)))
    with pytest.raises(ValueError, match="lost to rounding"):
        sess.on_timer(ack_at + 1.0)
    assert sess.sends == 2 and sess.epoch_index == 0  # the probes only


class _SendClock(SimulatedPath):
    """A simulated path that records the virtual instant of every send."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.send_times = []

    def send(self, payload: bytes) -> None:
        self.send_times.append(self.now())
        super().send(payload)


_delays = st.one_of(st.floats(0.001, 0.2), st.tuples(st.just("exp"), st.floats(0.001, 0.2)))


@settings(max_examples=60, deadline=None)
@given(
    fwd=_delays,
    rev=_delays,
    loss=st.sampled_from([0.0, 0.01, 0.2]),
    policy=_policies,
    eta=st.integers(1, 12),
    probes=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
# epochs begin at 0.01; the 10th send on the anchor grid used to round
# below the epoch close, so the first epoch sent 11 updates
@example(fwd=0.005, rev=0.005, loss=0.0, policy="fixed:12.099", eta=10, probes=1, seed=0)
# a path that waited a timeout from its own clock reached the first close
# one rounding step after the driver's deadline
@example(fwd=("exp", 0.1), rev=0.01, loss=0.0, policy="fixed:2.5", eta=1, probes=1, seed=0)
def test_every_epoch_is_eta_sends(fwd, rev, loss, policy, eta, probes, seed):
    path = _SendClock(fwd, rev, loss=loss, seed=seed)
    cfg = SourceConfig(policy=policy, probe_count=probes, updates_per_epoch=eta)
    try:
        _, sess = run_source(path, cfg, duration=10.0)
    except InitializationError:
        reject()  # every probe lost: no epochs to check
    sends = path.send_times[probes:]
    closes = [rec["t"] for rec in sess.trace]
    assert all(a < b for a, b in zip(sends, sends[1:])), "two sends at one instant"
    assert len(sends) > eta * len(closes)
    opened = sends[0]
    for k, close in enumerate(closes, 1):
        # epoch k holds sends (k-1)η … kη-1 and closes at send kη, which opens epoch k+1
        assert sum(opened <= s < close for s in sends) == eta
        assert close == sends[k * eta]
        opened = close


def test_lazy_policy_tracks_inverse_rtt():
    path = SimulatedPath(fwd_delay=0.05, rev_delay=0.05, seed=1)
    summary, sess = run_source(path, SourceConfig(policy="lazy", probe_count=3), duration=30.0)
    for rec in sess.trace[2:]:
        assert rec["lambda"] == pytest.approx(lazy_rate(rec["rtt_ewma"]))
    assert summary["lambda_final"] == pytest.approx(10.0)


def test_acp_plus_rate_ratio_clamped_every_epoch():
    path = SimulatedPath(fwd_delay=("exp", 0.05), rev_delay=("exp", 0.02), seed=7)
    _, sess = run_source(path, SourceConfig(policy="acp_plus", probe_count=5), duration=60.0)
    lams = [rec["lambda"] for rec in sess.trace]
    assert len(lams) > 20
    for a, b in zip(lams, lams[1:]):
        assert 0.75 - 1e-12 <= b / a <= 1.25 + 1e-12


def test_lossless_link_drains_to_zero_backlog():
    # every update yields exactly one fresh ACK; stopping the pacing
    # drains the estimated backlog to zero
    path = SimulatedPath(fwd_delay=0.03, rev_delay=0.03, seed=2)
    _, sess = run_source(path, SourceConfig(policy="fixed:10", probe_count=2), duration=10.0)
    # consume in-flight ACKs after the last send
    while True:
        data, t = path.recv(path.now() + 0.5)
        if data is None:
            break
        sess.on_datagram(t, data)
    assert sess.estimator.backlog == 0
    assert sess.fresh_acks == sess.sends
    assert sess.stale_acks == 0


def test_lossy_reordering_link_yields_stale_acks():
    path = SimulatedPath(fwd_delay=("exp", 0.08), rev_delay=("exp", 0.08), loss=0.15, seed=5)
    summary, sess = run_source(path, SourceConfig(policy="fixed:20", probe_count=5), duration=30.0)
    assert sess.stale_acks > 0  # reordered ACK arrivals get discarded
    assert sess.fresh_acks < sess.sends  # losses leave gaps
    assert sess.estimator.rtt_ewma > 0


def test_estimated_age_dominates_monitor_age():
    # the source resets to the full RTT while the monitor resets to the
    # one-way age, so the source-side average must be larger
    path = SimulatedPath(fwd_delay=0.05, rev_delay=0.05, seed=3)
    _, sess = run_source(path, SourceConfig(policy="fixed:4", probe_count=2), duration=40.0)
    est = sess.est_avg_age(skip_time=4.0)
    true = path.monitor.true_avg_age(4.0, 40.0)
    assert est > true
    assert est - true == pytest.approx(0.05, rel=0.2)  # roughly the ACK delay


def test_simulated_path_deterministic():
    def run(seed):
        path = SimulatedPath(fwd_delay=("exp", 0.05), rev_delay=("exp", 0.05), loss=0.1, seed=seed)
        summary, sess = run_source(path, SourceConfig(policy="acp_plus", probe_count=3), duration=20.0)
        return [rec["lambda"] for rec in sess.trace]

    assert run(11) == run(11)
    assert run(11) != run(12)


@pytest.mark.parametrize("scale", [None, 1.0, 0.005])
def test_draw_stream_reads_one_generator_call_across_refills(scale):
    n = 2 * 4096 + 3  # past two buffer refills
    seed = substream_seed(5, "draws")
    draw = DrawStream(seed, scale).draw
    got = [draw() for _ in range(n)]
    gen = np.random.Generator(np.random.PCG64(seed))
    want = gen.random(n) if scale is None else gen.exponential(scale, n)
    assert got == want.tolist()
    assert all(type(x) is float for x in got)


def test_simulated_path_directions_draw_from_their_own_substreams():
    # the forward delays and losses the monitor sees do not depend on what
    # the reverse direction draws
    def monitor_trace(rev_delay):
        path = SimulatedPath(fwd_delay=("exp", 0.05), rev_delay=rev_delay, loss=0.2, seed=9)
        for seq in range(1, 301):
            while path.recv(seq * 0.01)[0] is not None:
                pass
            path.send(wire.encode_update(seq, round(path.now() * 1e6)))
        path.recv(10.0)
        return path.monitor.trace

    const = monitor_trace(0.02)
    assert len(const) > 100
    assert monitor_trace(("exp", 0.02)) == const


def test_simulated_path_ack_beats_update_at_equal_instant():
    path = SimulatedPath(fwd_delay=0.01, rev_delay=0.01)
    u1, u2 = (wire.encode_update(s, 0) for s in (1, 2))
    path.send(u1)
    assert path.recv(0.01) == (None, 0.01)  # u1 reached the monitor at 0.01; its ACK is due at 0.02
    path.send(u2)  # due at the monitor at 0.02 too
    data, t = path.recv(math.inf)
    assert wire.decode_ack(data)[0] == 1 and t == 0.02
    assert path.monitor.accepted == 1


@pytest.mark.parametrize("in_flight", [False, True])
def test_simulated_path_past_deadline_returns_at_once(in_flight):
    # -inf, a new session's deadline, is past: only +inf waits forever
    path = SimulatedPath(fwd_delay=0.01, rev_delay=0.01)
    path.recv(0.5)
    if in_flight:
        path.send(wire.encode_update(1, 0))
    assert path.recv(-math.inf) == (None, 0.5)
    if in_flight:  # the update is still on its way, and its ACK follows
        assert path.monitor.accepted == 0
        assert path.recv(math.inf) == (wire.encode_ack(1, 0), 0.52)
    else:
        with pytest.raises(RuntimeError, match="block forever"):
            path.recv(math.inf)


@pytest.mark.parametrize("spec", [("const", 0.01), ("uniform", 0.01)])
def test_simulated_path_delay_is_a_number_or_an_exp_mean(spec):
    with pytest.raises(ValueError, match="rev_delay must be a number or"):
        SimulatedPath(rev_delay=spec)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -5.0, 0.0])
def test_drivers_reject_bad_duration(duration):
    path = SimulatedPath(fwd_delay=0.01, rev_delay=0.01)
    with pytest.raises(ValueError, match="duration"):
        run_source(path, SourceConfig(probe_count=2), duration)
    with pytest.raises(ValueError, match="duration"):
        run_monitor(path, duration=duration)
    assert path.now() == 0.0 and path.monitor.accepted == 0
    if duration != 0.0:  # the same values are bad delays, but a zero delay is fine
        for spec in ({"fwd_delay": duration}, {"rev_delay": ("exp", duration)}):
            with pytest.raises(ValueError, match=next(iter(spec))):
                SimulatedPath(**spec)


@pytest.mark.parametrize("max_updates", [0, -3])
def test_run_monitor_rejects_bad_max_updates(max_updates):
    path = SimulatedPath(fwd_delay=0.01, rev_delay=0.01)
    with pytest.raises(ValueError, match="max_updates"):
        run_monitor(path, max_updates=max_updates)
    assert path.now() == 0.0


@pytest.mark.parametrize("max_updates", [True, 2.5])
def test_run_monitor_rejects_a_max_updates_that_is_no_integer(max_updates):
    # True used to stop after one update and 2.5 after three
    path = SimulatedPath(fwd_delay=0.01, rev_delay=0.01)
    with pytest.raises(ConfigError, match="max_updates must be an integer"):
        run_monitor(path, max_updates=max_updates)
    assert path.now() == 0.0


def _spans_from_records(sess):
    """``epoch_spans`` as computed from a dict per epoch before the columns."""
    first_rate = sess._fixed_rate if sess.policy_kind == "fixed" else sess.initial_rate
    spans, opened, rate = [], sess.epochs_began, first_rate
    for rec in sess.trace:
        spans.append((rec["t"] - opened, rec["delta_bar"], rec["b_bar"], rate))
        opened, rate = rec["t"], rec["lambda"]
    return spans


def _averages_from_records(sess, after):
    """``epoch_averages`` as computed from a dict per epoch before the columns."""
    age_area = backlog_area = rate_area = total = 0.0
    for rec, (length, avg_age, avg_backlog, open_rate) in zip(sess.trace, _spans_from_records(sess)):
        if rec["t"] <= after:
            continue
        age_area += avg_age * length
        backlog_area += avg_backlog * length
        rate_area += open_rate * length
        total += length
    return age_area / total, backlog_area / total, rate_area / total


def test_run_source_writes_trace_records():
    # a lossless fixed-rate link, and a lossy one that reorders, with stale
    # updates, stale ACKs and actions
    for delay, loss, policy in ((0.02, 0.0, "fixed:10"), (("exp", 0.02), 0.01, "acp_plus")):
        path = SimulatedPath(delay, delay, loss=loss, seed=4)
        records = []
        cfg = SourceConfig(policy=policy, probe_count=2)
        summary, sess = run_source(path, cfg, duration=12.0, trace_writer=records.append)
        assert loss == 0.0 or (path.monitor.stale and sess.stale_acks)
        # the lines `agectl source --trace` writes: key order and each value's repr
        assert [json.dumps(rec) for rec in records] == [json.dumps(rec) for rec in sess.trace]
        assert sess.trace is not sess.trace
        keys = ["epoch", "t", "lambda", "delta_bar", "b_bar", "action", "rtt_ewma", "z_ewma"]
        assert [list(rec) for rec in records] == [keys] * len(records)
        assert {type(value) for rec in records for value in rec.values()} <= {int, float, str, type(None)}
        assert [rec["epoch"] for rec in records] == list(range(1, len(records) + 1))
        assert summary["epochs"] == len(records) > 10
        assert sess.epoch_spans == _spans_from_records(sess)
        for after in (0.0, records[0]["t"], records[len(records) // 2]["t"], 5.0):
            assert sess.epoch_averages(after) == _averages_from_records(sess, after)


class _ScriptedLink:
    """In-memory link that hands the monitor scripted (instant, datagram)
    pairs and keeps what it sends back."""

    def __init__(self, script):
        self._script = list(script)
        self._now = 0.0
        self.sent = []

    def now(self) -> float:
        return self._now

    def send(self, payload: bytes) -> None:
        self.sent.append(payload)

    def recv(self, deadline: float):
        if self._script and self._script[0][0] <= deadline:
            self._now, data = self._script.pop(0)
            return data, self._now
        self._now = max(deadline, self._now)
        return None, self._now


def test_run_monitor_writes_trace_records():
    script = [
        (0.5, make_update(1, 100_000)),
        (0.75, b"garbage"),
        (1.25, make_update(4, 1_100_000)),
        (1.25, make_update(4, 1_100_000)),  # duplicate
        (2.0, make_update(2, 600_000)),  # stale
        (2.0, wire.encode_ack(5, 1_900_000)),
        (3.1, make_update(9, 2_987_654)),
    ]
    link = _ScriptedLink(script)
    records, acks_sent_before = [], []

    def write(record):
        records.append(record)
        acks_sent_before.append(len(link.sent))

    session = run_monitor(link, duration=10.0, trace_writer=write)
    assert records == session.trace
    assert acks_sent_before == [0, 1, 2]  # each record goes out before its ACK
    assert [list(rec) for rec in records] == [["t", "age_reset", "seq"]] * 3
    assert [(rec["t"], rec["seq"]) for rec in records] == [(0.5, 1), (1.25, 4), (3.1, 9)]
    assert records[2]["age_reset"] == 3.1 - 2.987654
    assert [wire.decode_ack(frame) for frame in link.sent] == [(1, 100_000), (4, 1_100_000), (9, 2_987_654)]
    assert (session.accepted, session.stale, session.malformed) == (3, 2, 2)


# -- real UDP loopback ------------------------------------------------------------------


def test_udp_loopback_pair():
    mon_link = UdpLink.listen("127.0.0.1", 0)
    port = mon_link.sock.getsockname()[1]
    result = {}

    def serve():
        result["monitor"] = run_monitor(mon_link, duration=8.0)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    src_link = UdpLink.connect("127.0.0.1", port)
    cfg = SourceConfig(policy="fixed:50", payload_size=64, probe_count=3, probe_timeout=0.5)
    try:
        summary, sess = run_source(src_link, cfg, duration=1.5)
    finally:
        src_link.close()
    thread.join(timeout=12.0)
    mon_link.close()
    monitor = result["monitor"]
    assert monitor.accepted >= 1
    assert summary["fresh_acks"] >= 1
    assert summary["lambda_final"] == 50.0
    assert monitor.trace, "monitor recorded age resets"
    assert math.isfinite(summary["est_avg_age"])


def test_udp_recv_waits_until_the_deadline():
    link = UdpLink.listen("127.0.0.1", 0)
    try:
        deadline = link.now() + 0.05
        data, t = link.recv(deadline)
        assert data is None and t >= deadline
        asked = link.now()
        data, t = link.recv(asked - 1.0)  # a deadline already past returns at once
        assert data is None and t - asked < 0.04
    finally:
        link.close()


class _IdleSocket:
    """A UDP socket stand-in with nothing to receive that notes each timeout."""

    def __init__(self):
        self.timeouts = []

    def settimeout(self, timeout):
        self.timeouts.append(timeout)

    def recvfrom(self, size):
        raise BlockingIOError if self.timeouts[-1] == 0.0 else TimeoutError


def test_udp_recv_waits_forever_only_on_an_infinite_deadline():
    sock = _IdleSocket()
    link = UdpLink(sock)
    assert link.recv(-math.inf)[0] is None  # a new session's deadline: poll once
    assert link.recv(link.now() - 1.0)[0] is None
    assert link.recv(math.inf)[0] is None
    assert sock.timeouts == [0.0, 0.0, None]


def test_endpoints_run_without_the_simulator():
    # the monitor's true-age metric lives beside it, so a virtual-time
    # connection never loads the queueing simulator
    code = (
        "import math, sys\n"
        "from agectl.endpoints import SimulatedPath, SourceConfig, run_source\n"
        "path = SimulatedPath(fwd_delay=0.05, rev_delay=0.05, seed=1)\n"
        "run_source(path, SourceConfig(policy='fixed:4', probe_count=2), duration=5.0)\n"
        "assert not math.isnan(path.monitor.true_avg_age(1.0, path.now()))\n"
        "assert 'agectl.simkit' not in sys.modules, 'endpoints imported simkit'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
