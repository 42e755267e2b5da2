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
consume datagrams and deadlines and return the frame to transmit or None
(probing is stop-and-wait, pacing never bursts), so a real socket loop and
a discrete-event simulator alike can drive them.  Each session is a single
logical event loop; callers must serialize all calls on it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import time
from array import array
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from . import ConfigError, _require_int, _require_number, _require_positive, wire
from .controller import DEFAULT_UPDATES_PER_EPOCH, RateController, lazy_rate
from .estimator import DEFAULT_ALPHA, ProtocolError, SourceEstimator

if TYPE_CHECKING:
    import socket

__all__ = [
    "ConfigError",
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
_INF = math.inf

# values per block of the array kernels that work block by block
# (``clipped_age_areas`` and the open loop's nodes): their temporaries are
# this long, not as long as the run
_BLOCK = 16_384


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
            raise ConfigError(f"bad fixed policy rate in {policy!r}") from None
        _require_positive("fixed policy rate", rate)
        return "fixed", rate
    raise ConfigError(f"unknown policy {policy!r}; expected acp_plus, lazy, or fixed:<rate>")


class CheckedRecord:
    """Mixin over a ``NamedTuple`` base: ``__post_init__`` checks every instance, ``_make``'s and ``_replace``'s too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SourceConfig(NamedTuple):
    policy: str = "acp_plus"
    payload_size: int = 1024
    probe_count: int = 10
    probe_timeout: float = 1.0
    updates_per_epoch: int = DEFAULT_UPDATES_PER_EPOCH
    alpha: float = DEFAULT_ALPHA


class SourceConfig(CheckedRecord, _SourceConfig):
    """Source-side knobs, immutable.

    ``updates_per_epoch`` sends per control epoch and the EWMA weight
    ``alpha`` keep their protocol-level defaults; probe settings shape
    only the initialization phase.
    """

    __slots__ = ()

    def __post_init__(self):
        if not isinstance(self.policy, str):
            raise ConfigError(f"policy must be a string, got {self.policy!r}")
        for name in ("payload_size", "probe_count", "updates_per_epoch"):
            _require_int(name, getattr(self, name))
        parse_policy(self.policy)
        for name in ("probe_count", "updates_per_epoch", "probe_timeout"):
            _require_positive(name, getattr(self, name))
        if not 0 <= self.payload_size <= wire.MAX_PAYLOAD:
            raise ConfigError(f"payload_size must be in [0, {wire.MAX_PAYLOAD}], got {self.payload_size}")
        _require_number("alpha", self.alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")


def require_duration(duration: float) -> None:
    """Reject a run duration that is not positive and finite."""
    _require_positive("duration", duration)


def require_monitor_limits(duration: Optional[float], max_updates: Optional[int]) -> None:
    """Reject monitor stop conditions that are met before anything is served."""
    if duration is not None:
        require_duration(duration)
    if max_updates is not None:
        _require_int("max_updates", max_updates)
        if max_updates < 1:
            raise ConfigError(f"max_updates must be >= 1, got {max_updates}")


class SourceSession:
    """Sans-io source endpoint: init probing, pacing, epoch control.

    Drive it with ``on_timer`` and ``on_datagram``; every call returns the frame to
    transmit or None, and only one that returns a frame moves ``deadline`` (read-only):
    due at once when made, then the probe timeout, then the next send.  The call that
    ends probing also sets ``epochs_began`` (read-only) and returns the first epoch's
    first send.  The instant a caller passes is the only clock; a period lost to
    rounding is a ValueError, and an instant that is infinite, not a number or before
    the estimator's clock a ProtocolError (malformed, in a datagram) that moves nothing.

    Closed epochs are kept in typed columns, about 56 B each: the six
    floats of each record in one ``array("d")`` with stride 6, and its
    action label or None in a list.  ``trace`` is built from them on each
    access; ``trace_writer``, if set, gets each record as its epoch closes.
    """

    def __init__(self, cfg: SourceConfig, trace_writer: Optional[Callable[[dict], None]] = None):
        if not isinstance(cfg, SourceConfig):
            raise ConfigError(f"cfg must be a SourceConfig, got {cfg!r}")
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
        self.deadline = -math.inf  # due now, then the probe timeout, then the next send
        self.initial_rate: Optional[float] = None  # inverse mean probe RTT
        self.rate = math.nan  # current send rate, set once epochs begin
        self.epochs_began = math.inf  # not yet
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
        cols, opened, rate = self._epoch_floats, self.epochs_began, self._fixed_rate or self.initial_rate
        for i in range(0, len(cols), 6):
            t = cols[i]
            yield t, t - opened, cols[i + 2], cols[i + 3], rate
            opened, rate = t, cols[i + 1]

    @property
    def epoch_spans(self) -> list[tuple[float, float, float, float]]:
        """(length, avg_age, avg_backlog, rate_at_open) per closed epoch."""
        return [(length, age, backlog, rate) for _, length, age, backlog, rate in self._closed_epochs()]

    # -- init phase -------------------------------------------------------

    def _probe(self, t: float) -> bytes:
        """The next probe at ``t``, or the end of probing and the first epoch's first send.  Either
        has the estimator take ``t`` before any other field moves, so a rejected instant moves none."""
        if self.sends < self.cfg.probe_count:
            gen_ts_us = round(t * 1e6)
            frame = wire.encode_update(self.estimator.on_send(t, gen_ts_us), gen_ts_us, self._payload)
            self.deadline = t + self.cfg.probe_timeout
            return frame
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
        self.estimator.restart_epochs(t)  # ahead of the fields below, as it may reject t
        self.initial_rate = 1.0 / mean_rtt
        self.rate = self._fixed_rate or self.initial_rate  # the first rate; _fixed_rate is None unless fixed
        if self.policy_kind == "acp_plus":
            self.controller = RateController(self.rate, updates_per_epoch=self._updates_per_epoch)
        self.state = _RUN
        self.epochs_began = self.deadline = t
        return self._process_due(t)

    # -- datagram / timer inputs -------------------------------------------

    def on_datagram(self, t: float, data: bytes) -> Optional[bytes]:
        """Consume one inbound datagram (expected: an ACK frame).  A frame
        that does not decode, names an update never sent, or echoes a
        timestamp other than its update's counts as malformed."""
        try:
            seq, echo_ts_us = wire.decode_ack(data)
            rtt = self.estimator.on_ack(t, seq, echo_ts_us)
        except (wire.WireError, ProtocolError):
            self.malformed += 1
            return None
        if rtt is None:
            self.stale_acks += 1
            return None
        self.fresh_acks += 1
        self._rtt_sum += rtt
        if self.state == _INIT:
            # the current probe answered: the next probe, or done probing
            return self._probe(t) if seq == self.estimator.highest_sent else None
        if self.policy_kind == "lazy":
            self.rate = lazy_rate(self.estimator.rtt_ewma)
        return None

    def on_timer(self, t: float) -> Optional[bytes]:
        """Handle a due deadline (the start, a probe timeout or a send instant)."""
        if not self.deadline <= t < _INF:
            if -_INF < t < self.deadline:  # told apart here so that a due call pays nothing for it
                return None
            raise ProtocolError(f"timer instant is infinite or not a number: {t}")
        if self.state == _INIT:
            return self._probe(t)
        return self._process_due(t)

    def _process_due(self, t: float) -> bytes:
        # one send, at the call instant; the next falls one period later on
        # the grid, or one period after t if the timer missed a whole period
        if self._epoch_sends == self._updates_per_epoch:
            self._close_epoch(t)
        period = 1.0 / self.rate
        deadline = self.deadline + period
        if deadline <= t:
            deadline = t + period
            if deadline == t:
                raise ValueError(f"send period of rate {self.rate}/s is lost to rounding at t={t}")
        # stamped, numbered and encoded as a probe is, before the deadline moves,
        # with no call of its own: this is every send once epochs begin
        gen_ts_us = round(t * 1e6)
        frame = wire.encode_update(self.estimator.on_send(t, gen_ts_us), gen_ts_us, self._payload)
        self.deadline = deadline
        self._epoch_sends += 1
        return frame

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
        return self.epoch_averages(self.epochs_began + skip_time)[0]

    @property
    def lambda_final(self) -> Optional[float]:
        """The send rate in force once epochs began; None before."""
        return self.rate if self.state == _RUN else None

    @property
    def avg_rtt(self) -> Optional[float]:
        """Plain mean of all fresh-ACK round-trip samples this connection."""
        return self._rtt_sum / self.fresh_acks if self.fresh_acks else None

    def summary(self) -> dict:
        est_age, est_backlog, _ = self.epoch_averages(self.epochs_began)
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
    record as its update is accepted, before the ACK is returned.  A call at
    an instant that is infinite, not a number, or before that of the last call
    not malformed (0.0 at first) counts as malformed and changes nothing else.
    """

    def __init__(self, trace_writer: Optional[Callable[[dict], None]] = None):
        self.trace_writer = trace_writer
        self.freshest_seq = 0
        self.deliver_times = array("d")
        self.gen_times = array("d")
        self.seqs = array("Q")
        self.stale = 0
        self.malformed = 0
        self._clock = 0.0  # the instant of the last call that was not malformed

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
        if not self._clock <= t < _INF:  # before the last call, infinite or not a number
            self.malformed += 1
            return None
        self._clock = t
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
    delivery order: equal lengths, non-decreasing delivery times and
    finite generation instants, else ``ValueError``; ``lo`` and ``hi`` are
    finite numbers, else ``ConfigError``.  Measurement starts no earlier
    than the first reset; NaN if the window never sees a defined age.  It
    is the sum of ``clipped_age_areas`` over the length of the span they
    cover, which checks the generation instants with no pass of its own: a
    NaN or infinite one poisons it, even outside the window (0 * NaN is
    NaN).  One after its delivery passes: a wire stamp rounded to the
    microsecond can lie 0.5 us after a delivery with no delay.
    """
    areas, lo = clipped_age_areas(gen_times, deliver_times, lo, hi)
    total = 0.0 if areas is None else float(np.sum(areas))
    if not math.isfinite(total):
        raise ValueError(f"generation instants must be finite numbers: the age area is {total}")
    return math.nan if areas is None else total / (hi - lo)


def clipped_age_areas(gen_times, deliver_times, lo: float, hi: float):
    """The age area of each reset over the part of [lo, hi] it is in force.

    Takes ``age_time_average``'s inputs and checks them as it does.
    Returns (areas, start): ``start`` is ``lo`` or the first delivery if
    later, and ``areas`` a new float array of one area per reset, zero for
    a reset wholly outside [start, hi], or None if that span is empty.  A
    reset in force over an interval inside the span gets the area
    ``age_areas`` computes on it.  Beside its inputs it holds the areas it
    returns and two temporaries of ``_BLOCK`` values, one block at a time.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        _require_number(name, bound)
        if not math.isfinite(bound):
            raise ConfigError(f"{name} must be finite, got {bound}")
    gen = np.asarray(gen_times, dtype=float)
    dlv = np.asarray(deliver_times, dtype=float)
    if gen.ndim != 1 or gen.shape != dlv.shape:
        raise ValueError(f"need two equal-length 1-d sequences, got shapes {gen.shape} and {dlv.shape}")
    n = len(dlv)
    if n == 0:
        return None, lo
    # one pass, which a NaN fails as a decrease does
    if math.isnan(dlv[0]) or not (dlv[1:] >= dlv[:-1]).all():
        raise ValueError("delivery times must be numbers that never decrease")
    lo = max(lo, float(dlv[0]))
    if hi <= lo:
        return None, lo
    areas = np.empty(n)
    starts, ends = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        start, end = starts[: b - a], ends[: b - a]
        np.clip(dlv[a:b], lo, hi, out=start)
        following = dlv[a + 1 : b + 1]  # each reset's successor's delivery, one short in the last block
        np.clip(following, lo, hi, out=end[: len(following)])
        if b == n:
            end[-1] = hi
        age_areas(gen[a:b], start, end, out=areas[a:b])
    return areas, lo


def age_areas(gen, start, end, out=None):
    """Age areas ``(end - start) * ((start + end) * 0.5 - gen)`` of resets in
    force on [start, end]; with ``out`` given they go there, and the
    midpoints overwrite ``end``."""
    width = np.subtract(end, start, out=out)
    mid = np.add(start, end, out=None if out is None else end)
    mid *= 0.5
    mid -= gen
    width *= mid
    return width


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
        self.sock.settimeout(None if wait == math.inf else max(wait, 0.0))
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
    _require_int("seed", master_seed)
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
    """Per-direction delay model, a number of seconds or ``("exp", mean)``, bound once."""
    drawn = isinstance(spec, (tuple, list)) and len(spec) == 2
    if drawn:
        kind, spec = spec
        if kind != "exp":
            raise ConfigError(f"{name} must be a number or ('exp', mean), got kind {kind!r}")
    _require_number(name, spec)
    value = float(spec)
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name} must be non-negative and finite, got {value}")
    return DrawStream(seed, value).draw if drawn else (lambda: value)


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
        _require_number("loss probability", loss)
        if not 0.0 <= loss < 1.0:
            raise ConfigError(f"loss probability must be in [0, 1), got {loss}")
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
        if deadline == math.inf:
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
    frame = on_timer(now)
    while True:
        # send first: a send at the end instant still goes out
        if frame is not None:
            send(frame)
        end = session.epochs_began + duration  # inf while probing
        if now >= end:
            return session.summary(), session
        deadline = session.deadline
        data, now = recv(end if end < deadline else deadline)
        frame = on_timer(now) if data is None else on_datagram(now, data)


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

