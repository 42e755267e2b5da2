"""Source and monitor endpoints over a pluggable datagram transport.

A connection starts with an initialization phase: the source sends
probe updates stop-and-wait (next probe on ACK or timeout) and sets its
initial rate to the inverse of the mean observed round-trip time.  The
first control epoch begins at the instant probing ends, with its first
send; epochs of η = ``updates_per_epoch`` sends each follow under every
policy, and ACKs feed the estimator as they arrive.  A due timer
sends one update, stamped with the instant of the call; the next falls
one period of the current rate later on the grid, or one period after a
call that missed whole periods (skipping those sends, never bursting).
When an epoch's (η+1)-th send falls due, the source first closes the
epoch, consults its policy and adopts the next rate; that send then
opens the next epoch, so epoch boundaries are send instants.

The monitor accepts an update only if it is newer than everything seen
before; stale updates are discarded *and not acknowledged*, keeping
both ends' discard rules consistent and saving reverse traffic.

``SourceSession``/``MonitorSession`` are sans-io state machines: they
consume datagrams and deadlines and return frames to transmit, which
makes them drivable by a real socket loop and by a discrete-event
simulator alike.  Each session is a single logical event loop; callers
must serialize all calls on it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import wire
from .controller import DEFAULT_UPDATES_PER_EPOCH, RateController, lazy_rate
from .estimator import DEFAULT_ALPHA, ProtocolError, SourceEstimator

if TYPE_CHECKING:
    import socket

__all__ = [
    "SourceConfig",
    "SourceSession",
    "MonitorSession",
    "InitializationError",
    "UdpLink",
    "SimulatedPath",
    "DrawStream",
    "substream_seed",
    "run_source",
    "run_monitor",
    "require_duration",
    "require_monitor_limits",
    "age_time_average",
    "lazy_rate",
]

_INIT = "init"
_RUN = "run"


class InitializationError(Exception):
    """The initialization phase found no initial rate: every probe timed
    out, or the answered probes' mean round-trip time was zero."""


def parse_policy(policy: str) -> tuple[str, Optional[float]]:
    """Split a policy string into (kind, fixed_rate)."""
    if policy in ("acp_plus", "lazy"):
        return policy, None
    if policy.startswith("fixed:"):
        try:
            rate = float(policy.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed policy rate in {policy!r}") from None
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"fixed policy rate must be positive and finite, got {rate}")
        return "fixed", rate
    raise ValueError(f"unknown policy {policy!r}; expected acp_plus, lazy, or fixed:<rate>")


@dataclass
class SourceConfig:
    """Source-side knobs.

    ``updates_per_epoch`` sends per control epoch and the EWMA weight
    ``alpha`` keep their protocol-level defaults; probe settings shape
    only the initialization phase.
    """

    policy: str = "acp_plus"
    payload_size: int = 1024
    probe_count: int = 10
    probe_timeout: float = 1.0
    updates_per_epoch: int = DEFAULT_UPDATES_PER_EPOCH
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not isinstance(self.policy, str):
            raise ValueError(f"policy must be a string, got {self.policy!r}")
        for name in ("payload_size", "probe_count", "updates_per_epoch"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("probe_timeout", "alpha"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        parse_policy(self.policy)
        if self.probe_count < 1:
            raise ValueError(f"probe_count must be >= 1, got {self.probe_count}")
        if not (math.isfinite(self.probe_timeout) and self.probe_timeout > 0.0):
            raise ValueError(f"probe_timeout must be positive and finite, got {self.probe_timeout}")
        if not 0 <= self.payload_size <= wire.MAX_PAYLOAD:
            raise ValueError(f"payload_size must be in [0, {wire.MAX_PAYLOAD}], got {self.payload_size}")
        if self.updates_per_epoch < 1:
            raise ValueError(f"updates_per_epoch must be >= 1, got {self.updates_per_epoch}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


def require_duration(duration: float) -> None:
    """Reject a run duration that is not positive and finite."""
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive and finite, got {duration}")


def require_monitor_limits(duration: Optional[float], max_updates: Optional[int]) -> None:
    """Reject monitor stop conditions that are met before anything is served."""
    if duration is not None:
        require_duration(duration)
    if max_updates is not None and max_updates < 1:
        raise ValueError(f"max_updates must be >= 1, got {max_updates}")


class SourceSession:
    """Sans-io source endpoint: init probing, pacing, epoch control.

    Drive it with ``on_start`` once, then ``on_datagram``/``on_timer``;
    every call returns the frames to transmit.  The call that ends probing
    also begins the first epoch and returns its first send.
    ``next_deadline`` is the time of the next pending timer action: the
    probe timeout, then the next send.  The instant a caller passes is the
    only clock, and a period lost to rounding there is a ValueError.

    Closed epochs are kept in typed columns, about 56 B each: the six
    floats of each record in one ``array("d")`` with stride 6, and its
    action label or None in a list.  ``trace`` is built from them on each
    access; ``trace_writer``, if set, gets each record as its epoch closes.
    """

    def __init__(self, cfg: SourceConfig, trace_writer: Optional[Callable[[dict], None]] = None):
        self.cfg = cfg
        self.policy_kind, self._fixed_rate = parse_policy(cfg.policy)
        self._updates_per_epoch = cfg.updates_per_epoch
        self.estimator = SourceEstimator(alpha=cfg.alpha)
        self.controller: Optional[RateController] = None
        self.state = _INIT
        self.trace_writer = trace_writer
        self._epoch_floats = array("d")  # t, lambda, delta_bar, b_bar, rtt_ewma, z_ewma per epoch
        self._actions: list[Optional[str]] = []
        self.stale_acks = 0
        self.malformed = 0
        self.fresh_acks = 0
        self._payload = bytes(cfg.payload_size)
        self._deadline = math.inf  # probe timeout, then the next send
        self.initial_rate: Optional[float] = None  # inverse mean probe RTT
        self.rate = math.nan  # current send rate, set once epochs begin
        self._epochs_began = math.inf  # not yet
        self._epoch_sends = 0  # sends in the running epoch
        self._rtt_sum = 0.0

    @property
    def sends(self) -> int:
        """Updates sent so far, probes included."""
        return self.estimator.highest_sent

    @property
    def epoch_index(self) -> int:
        """Epochs closed so far."""
        return len(self._actions)

    @property
    def trace(self) -> list[dict]:
        """One record per closed epoch, keys in the order epoch, t, lambda,
        delta_bar, b_bar, action, rtt_ewma, z_ewma.  Built from the columns on
        each access: a new list, holding the same records (keys, key order and
        values) every time."""
        return [self._epoch_record(i) for i in range(self.epoch_index)]

    def _epoch_record(self, i: int) -> dict:
        """The trace record of closed epoch ``i`` (from 0)."""
        cols, j = self._epoch_floats, 6 * i
        return {
            "epoch": i + 1,
            "t": cols[j],
            "lambda": cols[j + 1],
            "delta_bar": cols[j + 2],
            "b_bar": cols[j + 3],
            "action": self._actions[i],
            "rtt_ewma": cols[j + 4],
            "z_ewma": cols[j + 5],
        }

    def _closed_epochs(self):
        """(close, length, avg_age, avg_backlog, rate_at_open) per closed epoch: each opens at
        the close and rate of the one before, the first where epochs began at the first rate."""
        cols, opened, rate = self._epoch_floats, self._epochs_began, self._fixed_rate or self.initial_rate
        for i in range(0, len(cols), 6):
            t = cols[i]
            yield t, t - opened, cols[i + 2], cols[i + 3], rate
            opened, rate = t, cols[i + 1]

    @property
    def epoch_spans(self) -> list[tuple[float, float, float, float]]:
        """(length, avg_age, avg_backlog, rate_at_open) per closed epoch."""
        return [(length, age, backlog, rate) for _, length, age, backlog, rate in self._closed_epochs()]

    def next_deadline(self) -> float:
        return self._deadline

    # -- init phase -------------------------------------------------------

    def on_start(self, t: float) -> list[bytes]:
        """Begin the initialization phase; returns the first probe."""
        if self.sends:
            raise RuntimeError("session already started")
        return [self._send_probe(t)]

    def _send_probe(self, t: float) -> bytes:
        self._deadline = t + self.cfg.probe_timeout
        return self._send_update(t)

    def _send_update(self, t: float) -> bytes:
        seq = self.estimator.highest_sent + 1
        gen_ts_us = round(t * 1e6)
        self.estimator.on_send(t, seq, t, gen_ts_us)
        return wire.encode_update(seq, gen_ts_us, self._payload)

    def _finish_init(self, t: float) -> list[bytes]:
        """End probing at ``t`` and begin the first epoch there; returns its first send."""
        # every fresh ACK so far answered a probe
        if not self.fresh_acks:
            raise InitializationError(
                f"all {self.cfg.probe_count} probes timed out; monitor unreachable"
            )
        mean_rtt = self._rtt_sum / self.fresh_acks
        if mean_rtt == 0.0:
            raise InitializationError(
                f"mean RTT of {self.fresh_acks} answered probes is zero; no initial rate follows"
            )
        self.initial_rate = 1.0 / mean_rtt
        self.rate = self._fixed_rate or self.initial_rate  # the first rate; _fixed_rate is None unless fixed
        if self.policy_kind == "acp_plus":
            self.controller = RateController(self.rate, updates_per_epoch=self._updates_per_epoch)
        self.estimator.restart_epochs(t)
        self.state = _RUN
        self._epochs_began = self._deadline = t
        return self._process_due(t)

    # -- datagram / timer inputs -------------------------------------------

    def on_datagram(self, t: float, data: bytes) -> list[bytes]:
        """Consume one inbound datagram (expected: an ACK frame).  A frame
        that does not decode, names an update never sent, or echoes a
        timestamp other than its update's counts as malformed."""
        try:
            seq, echo_ts_us = wire.decode_ack(data)
            rtt = self.estimator.on_ack(t, seq, echo_ts_us)
        except (wire.WireError, ProtocolError):
            self.malformed += 1
            return []
        if rtt is None:
            self.stale_acks += 1
            return []
        self.fresh_acks += 1
        self._rtt_sum += rtt
        if self.state == _INIT:
            if seq == self.estimator.highest_sent:
                # current probe answered: next probe, or done probing
                if seq < self.cfg.probe_count:
                    return [self._send_probe(t)]
                return self._finish_init(t)
            return []
        if self.policy_kind == "lazy":
            self.rate = lazy_rate(self.estimator.rtt_ewma)
        return []

    def on_timer(self, t: float) -> list[bytes]:
        """Handle a due deadline (probe timeout or send instant)."""
        if t < self._deadline:
            return []
        if self.state == _INIT:
            if self.sends < self.cfg.probe_count:
                return [self._send_probe(t)]
            return self._finish_init(t)
        return self._process_due(t)

    def _process_due(self, t: float) -> list[bytes]:
        # one send, at the call instant; the next falls one period later on
        # the grid, or one period after t if the timer missed a whole period
        if self._epoch_sends == self._updates_per_epoch:
            self._close_epoch(t)
        period = 1.0 / self.rate
        deadline = self._deadline + period
        if deadline <= t:
            deadline = t + period
            if deadline == t:
                raise ValueError(f"send period of rate {self.rate}/s is lost to rounding at t={t}")
        self._deadline = deadline
        self._epoch_sends += 1
        return [self._send_update(t)]

    def _close_epoch(self, t: float) -> None:
        est = self.estimator
        avg_age, avg_backlog, age_diff, backlog_diff, backlog_now = est.close_epoch(t)
        action = None
        if self.policy_kind == "acp_plus" and age_diff is not None:
            change = self.controller.decide(backlog_diff, age_diff, backlog_now)
            self.rate = self.controller.update_rate(change.backlog_change, est.ack_gap_ewma, est.rtt_ewma)
            action = change.label()
        self._epoch_floats.extend((t, self.rate, avg_age, avg_backlog, est.rtt_ewma, est.ack_gap_ewma))
        self._actions.append(action)
        if self.trace_writer is not None:
            self.trace_writer(self._epoch_record(len(self._actions) - 1))
        self._epoch_sends = 0

    # -- summaries ----------------------------------------------------------

    def epoch_averages(self, after: float) -> tuple[float, float, float]:
        """Epoch-weighted mean (age, backlog, rate at open) of the estimates
        over the closed epochs that close strictly after the instant
        ``after`` (warm-up exclusion); NaNs if there is none."""
        age_area = backlog_area = rate_area = total = 0.0
        for t, length, avg_age, avg_backlog, open_rate in self._closed_epochs():
            if t <= after:
                continue
            age_area += avg_age * length
            backlog_area += avg_backlog * length
            rate_area += open_rate * length
            total += length
        if total == 0.0:
            return math.nan, math.nan, math.nan
        return age_area / total, backlog_area / total, rate_area / total

    def est_avg_age(self, skip_time: float = 0.0) -> float:
        """Epoch-weighted mean of the estimated age over closed epochs.

        ``skip_time`` drops leading epochs until that much epoch time has
        elapsed (warm-up exclusion).
        """
        return self.epoch_averages(self._epochs_began + skip_time)[0]

    @property
    def lambda_final(self) -> Optional[float]:
        """The send rate in force once epochs began; None before."""
        return self.rate if self.state == _RUN else None

    @property
    def avg_rtt(self) -> Optional[float]:
        """Plain mean of all fresh-ACK round-trip samples this connection."""
        return self._rtt_sum / self.fresh_acks if self.fresh_acks else None

    def summary(self) -> dict:
        est_age, est_backlog, _ = self.epoch_averages(self._epochs_began)
        return {
            "policy": self.cfg.policy,
            "lambda_initial": self.initial_rate,
            "lambda_final": self.lambda_final,
            "epochs": self.epoch_index,
            "sends": self.sends,
            "fresh_acks": self.fresh_acks,
            "stale_acks": self.stale_acks,
            "malformed": self.malformed,
            "est_avg_age": est_age,
            "est_avg_backlog": est_backlog,
            "avg_rtt": self.avg_rtt,
            "rtt_ewma": self.estimator.rtt_ewma,
            "z_ewma": self.estimator.ack_gap_ewma,
        }


class MonitorSession:
    """Sans-io monitor endpoint applying the freshest-wins discard rule.

    Each accepted update is one age reset, kept in three columns in
    delivery order: ``deliver_times`` (the ``t`` of the call that accepted
    it) and ``gen_times`` (``gen_ts_us / 1e6``) as ``array("d")``, and
    ``seqs`` as ``array("Q")``, 24 B per update.  ``trace`` shows them as
    records and is built on each access; ``trace_writer``, if set, gets each
    record as its update is accepted, before the ACK is returned.
    """

    def __init__(self, trace_writer: Optional[Callable[[dict], None]] = None):
        self.trace_writer = trace_writer
        self.freshest_seq = 0
        self.deliver_times = array("d")
        self.gen_times = array("d")
        self.seqs = array("Q")
        self.stale = 0
        self.malformed = 0

    @property
    def accepted(self) -> int:
        """Updates accepted so far."""
        return len(self.seqs)

    @property
    def trace(self) -> list[dict]:
        """One ``{"t", "age_reset", "seq"}`` record per accepted update, in
        delivery order, where ``age_reset`` is ``t`` less the generation
        instant.  A new list, built from the columns on each access."""
        return list(map(_reset_record, self.deliver_times, self.gen_times, self.seqs))

    def on_datagram(self, t: float, data: bytes) -> Optional[bytes]:
        """Process one update; returns the ACK frame or None if discarded."""
        try:
            seq, gen_ts_us = wire.decode_update(data)
        except wire.WireError:
            self.malformed += 1
            return None
        if seq <= self.freshest_seq:
            # out-of-sequence: an older measurement than what we hold
            self.stale += 1
            return None
        self.freshest_seq = seq
        gen = gen_ts_us / 1e6
        self.deliver_times.append(t)
        self.gen_times.append(gen)
        self.seqs.append(seq)
        if self.trace_writer is not None:
            self.trace_writer(_reset_record(t, gen, seq))
        return wire.encode_ack(seq, gen_ts_us)

    def true_avg_age(self, lo: float, hi: float) -> float:
        """Time-average of the true age over [lo, hi], from the exact
        generation instants."""
        # views of the columns, not copies: none may outlive this call, as an
        # array whose buffer is exported raises BufferError when it grows
        return age_time_average(np.frombuffer(self.gen_times), np.frombuffer(self.deliver_times), lo, hi)


def _reset_record(t: float, gen: float, seq: int) -> dict:
    """The trace record of one accepted update."""
    return {"t": t, "age_reset": t - gen, "seq": seq}


def age_time_average(gen_times, deliver_times, lo: float, hi: float) -> float:
    """Time-average of the freshest-wins age sawtooth over [lo, hi].

    ``gen_times``/``deliver_times`` are the accepted age resets in
    delivery order: equal lengths and non-decreasing delivery times, else
    ``ValueError``.  Measurement starts no earlier than the first reset;
    NaN if the window never sees a defined age.  Beside its inputs it
    holds three float arrays of their length.
    """
    gen = np.asarray(gen_times, dtype=float)
    dlv = np.asarray(deliver_times, dtype=float)
    if gen.ndim != 1 or gen.shape != dlv.shape:
        raise ValueError(f"need two equal-length 1-d sequences, got shapes {gen.shape} and {dlv.shape}")
    if len(dlv) == 0:
        return math.nan
    if np.any(dlv[1:] < dlv[:-1]):
        raise ValueError("delivery times must not decrease")
    lo = max(lo, float(dlv[0]))
    if hi <= lo:
        return math.nan
    seg_start = np.clip(dlv, lo, hi)
    seg_end = np.empty_like(seg_start)
    seg_end[:-1] = dlv[1:]
    seg_end[-1] = hi
    np.clip(seg_end, lo, hi, out=seg_end)
    width = seg_end - seg_start
    # the area is width * ((seg_start + seg_end) * 0.5 - gen), the midpoint
    # built in seg_end's buffer
    mid = np.add(seg_start, seg_end, out=seg_end)
    mid *= 0.5
    mid -= gen
    width *= mid
    return float(np.sum(width)) / (hi - lo)


# -- links -----------------------------------------------------------------


class UdpLink:
    """Blocking datagram link over a UDP socket with a single peer; ``socket``
    is imported only when a link is opened, so simulation never loads it."""

    def __init__(self, sock: socket.socket, peer=None):
        self.sock = sock
        self.peer = peer

    @classmethod
    def connect(cls, host: str, port: int) -> "UdpLink":
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        return cls(sock, peer=(host, port))

    @classmethod
    def listen(cls, host: str, port: int) -> "UdpLink":
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host, port))
        return cls(sock)

    def now(self) -> float:
        return time.monotonic()

    def send(self, payload: bytes) -> None:
        if self.peer is None:
            raise RuntimeError("no peer known yet; cannot send")
        self.sock.sendto(payload, self.peer)

    def recv(self, deadline: float):
        """Wait until the monotonic instant ``deadline`` (inf: forever) for a
        datagram; returns (bytes, now), or (None, now) with now >= deadline."""
        wait = deadline - self.now()  # the socket rounds it up to whole ms
        self.sock.settimeout(None if math.isinf(wait) else max(wait, 0.0))
        try:
            data, addr = self.sock.recvfrom(65_535)
        except (TimeoutError, BlockingIOError):  # socket.timeout is TimeoutError
            return None, self.now()
        if self.peer is None:
            self.peer = addr
        return data, self.now()

    def close(self) -> None:
        self.sock.close()


def substream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named substream of a master seed."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_DRAW_BATCH = 4096


class DrawStream:
    """Scalar draws from one PCG64 substream, as built-in floats.

    ``DrawStream(seed)`` draws uniformly on [0, 1) and ``DrawStream(seed,
    scale)`` exponentially with mean ``scale``; the n-th value of ``draw()``
    is the n-th of ``Generator(PCG64(seed)).random(n)`` or
    ``.exponential(scale, n)``.  Values are made ``_DRAW_BATCH`` at a time
    and read off a list, so one costs no numpy call and no numpy scalar
    reaches the caller's arithmetic.
    """

    __slots__ = ("draw",)

    def __init__(self, seed: int, scale: Optional[float] = None):
        gen = np.random.Generator(np.random.PCG64(seed))

        def fill() -> list:
            batch = gen.random(_DRAW_BATCH) if scale is None else gen.exponential(scale, _DRAW_BATCH)
            return batch.tolist()

        # an endless chain of batches, each made when the one before runs out
        self.draw: Callable[[], float] = itertools.chain.from_iterable(iter(fill, None)).__next__


def _delay_sampler(name: str, spec, seed: int) -> Callable[[], float]:
    """Per-direction delay model, constant or ``("exp", mean)``, bound once."""
    kind, value = ("const", spec) if isinstance(spec, (int, float)) else spec
    value = float(value)
    if kind not in ("const", "exp"):
        raise ValueError(f"{name} kind must be 'const' or 'exp', got {kind!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    if kind == "const":
        return lambda: value
    return DrawStream(seed, value).draw


class SimulatedPath:
    """Deterministic virtual-time link with a monitor on the far side.

    Forward datagrams reach the embedded ``MonitorSession`` after a
    forward delay (processed strictly in arrival order, so random delays
    double as the reordering model); ACKs come back after a reverse
    delay.  Losses are i.i.d. per direction.  Each direction's delays and
    losses draw from their own substreams of ``seed`` (``fwd_delay``,
    ``rev_delay``, ``fwd_loss``, ``rev_loss``), so changing one
    direction's model leaves the other direction's draws as they were.
    ``recv`` advances the virtual clock, so a blocking driver over this
    link runs entirely in simulated time.
    """

    def __init__(self, fwd_delay=0.01, rev_delay=0.01, loss: float = 0.0, seed: int = 0):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {loss}")
        self.monitor = MonitorSession()
        self._fwd_delay = _delay_sampler("fwd_delay", fwd_delay, substream_seed(seed, "fwd_delay"))
        self._rev_delay = _delay_sampler("rev_delay", rev_delay, substream_seed(seed, "rev_delay"))
        self._loss = loss
        self._fwd_loss = DrawStream(substream_seed(seed, "fwd_loss")).draw
        self._rev_loss = DrawStream(substream_seed(seed, "rev_loss")).draw
        self._now = 0.0
        # (arrival, to_monitor, order, payload): at equal instants an ACK
        # reaches the source before an update reaches the monitor
        self._in_flight: list = []
        self._order = 0

    def now(self) -> float:
        return self._now

    def send(self, payload: bytes) -> None:
        if self._loss and self._fwd_loss() < self._loss:
            return
        self._order += 1
        heapq.heappush(self._in_flight, (self._now + self._fwd_delay(), True, self._order, payload))

    def recv(self, deadline: float):
        """Advance virtual time to the next ACK, returning (bytes, now), or
        else to exactly max(now, ``deadline``), returning (None, now)."""
        in_flight, heappop = self._in_flight, heapq.heappop
        while in_flight and in_flight[0][0] <= deadline:
            t, to_monitor, _, payload = heappop(in_flight)
            self._now = t
            if not to_monitor:
                return payload, t
            reply = self.monitor.on_datagram(t, payload)
            if reply is not None and not (self._loss and self._rev_loss() < self._loss):
                self._order += 1
                heapq.heappush(in_flight, (t + self._rev_delay(), False, self._order, reply))
        if math.isinf(deadline):
            raise RuntimeError("recv would block forever: no traffic in flight")
        if deadline >= self._now:
            self._now = deadline
        return None, self._now


# -- blocking drivers --------------------------------------------------------


def run_source(
    link,
    cfg: SourceConfig,
    duration: float,
    trace_writer: Optional[Callable[[dict], None]] = None,
) -> tuple[dict, SourceSession]:
    """Probe, then run control epochs for ``duration`` seconds from the
    instant probing ends.

    Returns (summary, session); per-epoch records go to ``trace_writer``
    as the epochs close and stay available on ``session.trace``.
    """
    require_duration(duration)
    session = SourceSession(cfg, trace_writer)
    send, recv, on_timer, on_datagram = link.send, link.recv, session.on_timer, session.on_datagram
    now = link.now()
    frames = session.on_start(now)
    while True:
        # send first: a send at the end instant still goes out
        for frame in frames:
            send(frame)
        end = session._epochs_began + duration  # inf while probing
        if now >= end:
            return session.summary(), session
        deadline = session._deadline
        data, now = recv(end if end < deadline else deadline)
        frames = on_timer(now) if data is None else on_datagram(now, data)


def run_monitor(
    link,
    duration: Optional[float] = None,
    max_updates: Optional[int] = None,
    trace_writer: Optional[Callable[[dict], None]] = None,
) -> MonitorSession:
    """Serve a monitor over ``link`` until duration/max_updates/interrupt.

    Each accepted update's ``trace`` record goes to ``trace_writer`` before
    its ACK is sent.
    """
    require_monitor_limits(duration, max_updates)
    session = MonitorSession(trace_writer)
    now = link.now()
    end = math.inf if duration is None else now + duration
    while now < end and (max_updates is None or session.accepted < max_updates):
        data, now = link.recv(end)
        if data is None:
            continue
        reply = session.on_datagram(now, data)
        if reply is not None:
            link.send(reply)
    return session

