"""Source-side age and backlog estimation from send events and ACKs.

The source cannot observe the monitor's clock, so it reconstructs both
processes from what it can see locally:

* ``highest_sent`` is the index of the freshest update sent so far and
  ``highest_acked`` the index of the freshest update whose ACK arrived
  in sequence.  The estimated in-flight backlog is their difference.
  ``on_send`` numbers the updates 1, 2, 3, ... and takes each one's
  generation instant to be its send instant, as ACP+ stamps an update
  when it sends it.
* The estimated age grows at unit slope and resets to the round-trip
  time of update ``i`` when the ACK of ``i`` arrives in sequence.  ACKs
  that arrive after an ACK for a newer update are stale and change
  nothing.  A fresh ACK for ``i`` implicitly acknowledges every older
  outstanding update.
* ``on_ack`` returns the round-trip time of a fresh ACK and None for a
  stale one; each fresh sample also feeds the RTT and ACK-gap EWMAs.  A
  fresh ACK must echo the timestamp its update carried on the wire, as
  ``on_send`` was given it; one that does not is rejected unused.
* Only the newest ``MAX_PENDING`` unacknowledged sends are kept, so a
  far end that never answers costs bounded memory.  An ACK for an older
  one counts as stale.

Both sample paths are integrated lazily so per-epoch time averages are
exact, not sampled.  Before the first fresh ACK the age process is
undefined; its integral contribution is zero by convention and
``age_at`` raises ``NoEstimateError``.

All mutating calls must be serialized by the owner and carry a finite,
non-decreasing clock; an instant that is infinite or NaN fails that check.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import ConfigError, _require_number

DEFAULT_ALPHA = 0.25
# unacknowledged sends kept: over ten times the most any bundled config,
# benchmark workload or test reaches
MAX_PENDING = 4096
_INF = math.inf


class ProtocolError(Exception):
    """Sequence/clock discipline violated (clock moved backwards, infinite or
    not a number, ACK for an unknown seq or with a wrong echo)."""


class NoEstimateError(Exception):
    """Age queried before any fresh ACK established an estimate."""


class EpochStats(NamedTuple):
    """Per-epoch time averages and their change versus the prior epoch.

    ``age_diff``/``backlog_diff`` are None when this is the first epoch
    closed since (re)starting epoch accounting, since there is no prior
    epoch to difference against.
    """

    avg_age: float
    avg_backlog: float
    age_diff: Optional[float]
    backlog_diff: Optional[float]
    backlog_now: int


class SourceEstimator:
    """Reconstructs the age/backlog sample paths seen from the source."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        _require_number("alpha", alpha)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.highest_sent = 0
        self.highest_acked = 0
        self.rtt_ewma: Optional[float] = None
        self.ack_gap_ewma: Optional[float] = None
        # seq -> (send time, its wire timestamp) of the newest
        # unacknowledged sends, at most MAX_PENDING, oldest first
        self._pending: dict[int, tuple[float, int]] = {}
        self._acked_gen_ts = 0.0  # generation time of update highest_acked
        self._last_fresh_at: Optional[float] = None
        self._clock = 0.0
        self._epoch_start = 0.0
        self._age_area = 0.0
        self._backlog_area = 0.0
        self._prev_epoch: Optional[tuple[float, float]] = None

    @property
    def backlog(self) -> int:
        return self.highest_sent - self.highest_acked

    def _advance(self, t: float) -> None:
        if not self._clock <= t < _INF:
            raise ProtocolError(f"clock moved backwards or is infinite or not a number: {t}, was {self._clock}")
        dt = t - self._clock
        if dt > 0.0:
            self._backlog_area += dt * self.backlog
            if self.highest_acked > 0:
                # linear segment of the age path between self._clock and t
                self._age_area += dt * ((self._clock + t) * 0.5 - self._acked_gen_ts)
        self._clock = t

    def on_send(self, t: float, gen_ts_us: int) -> int:
        """Record the transmission at ``t`` of the next update, generated at
        ``t`` and carrying the timestamp ``gen_ts_us`` in its frame; returns
        its sequence number, ``highest_sent + 1``."""
        sent = self.highest_sent
        # _advance(t), inlined on the per-packet calls
        clock = self._clock
        if not clock <= t < _INF:
            raise ProtocolError(f"clock moved backwards or is infinite or not a number: {t}, was {clock}")
        dt = t - clock
        if dt > 0.0:
            acked = self.highest_acked
            self._backlog_area += dt * (sent - acked)
            if acked > 0:
                self._age_area += dt * ((clock + t) * 0.5 - self._acked_gen_ts)
        self._clock = t
        seq = self.highest_sent = sent + 1
        self._pending[seq] = (t, gen_ts_us)
        if seq - self.highest_acked > MAX_PENDING:
            del self._pending[seq - MAX_PENDING]
        return seq

    def on_ack(self, t: float, seq: int, echo_ts_us: int) -> Optional[float]:
        """Process an ACK; a fresh one resets the age, updates the EWMAs and
        returns its RTT, a stale one changes nothing and returns None.  An ACK
        for a send no longer kept (``MAX_PENDING``) counts as stale.

        A fresh ACK whose ``echo_ts_us`` is not the ``gen_ts_us`` update
        ``seq`` was sent with raises ProtocolError and changes nothing."""
        sent, acked = self.highest_sent, self.highest_acked
        if seq < 1 or seq > sent:
            raise ProtocolError(f"ACK for unknown seq {seq} (highest sent {sent})")
        pending = self._pending
        kept = pending.get(seq)
        if kept is None:  # acknowledged already, or too old to be kept
            return None
        gen_ts, gen_ts_us = kept
        if echo_ts_us != gen_ts_us:
            raise ProtocolError(f"ACK for seq {seq} echoes {echo_ts_us}, update carried {gen_ts_us}")
        # _advance(t), inlined on the per-packet calls
        clock = self._clock
        if not clock <= t < _INF:
            raise ProtocolError(f"clock moved backwards or is infinite or not a number: {t}, was {clock}")
        dt = t - clock
        if dt > 0.0:
            self._backlog_area += dt * (sent - acked)
            if acked > 0:
                self._age_area += dt * ((clock + t) * 0.5 - self._acked_gen_ts)
        self._clock = t
        rtt = t - gen_ts
        # every kept send at or below seq is now implicitly acknowledged
        if seq == acked + 1:
            del pending[seq]
        else:
            for s in range(max(acked, sent - MAX_PENDING) + 1, seq + 1):
                del pending[s]
        self.highest_acked = seq
        self._acked_gen_ts = gen_ts
        if self.rtt_ewma is None:
            # seed both averages with the first sample; the ACK gap has no
            # sample yet so it borrows the RTT until a second fresh ACK
            self.rtt_ewma = rtt
            self.ack_gap_ewma = rtt
        else:
            self.rtt_ewma = (1.0 - self.alpha) * self.rtt_ewma + self.alpha * rtt
            self.ack_gap_ewma = (1.0 - self.alpha) * self.ack_gap_ewma + self.alpha * (t - self._last_fresh_at)
        self._last_fresh_at = t
        return rtt

    def age_at(self, t: float) -> float:
        """Estimated age at ``t`` (valid for t at or after the last fresh ACK)."""
        if self.highest_acked == 0:
            raise NoEstimateError("no fresh ACK received yet")
        return t - self._acked_gen_ts

    def close_epoch(self, t: float) -> EpochStats:
        """Finish the running epoch at ``t`` and start the next one."""
        if not self._epoch_start < t < _INF:
            raise ValueError(f"epoch needs positive length and a number as its end, not inf: {self._epoch_start}, {t}")
        self._advance(t)
        duration = t - self._epoch_start
        avg_age = self._age_area / duration
        avg_backlog = self._backlog_area / duration
        if self._prev_epoch is None:
            age_diff = backlog_diff = None
        else:
            age_diff = avg_age - self._prev_epoch[0]
            backlog_diff = avg_backlog - self._prev_epoch[1]
        self._prev_epoch = (avg_age, avg_backlog)
        self._age_area = 0.0
        self._backlog_area = 0.0
        self._epoch_start = t
        return EpochStats(avg_age, avg_backlog, age_diff, backlog_diff, self.backlog)

    def restart_epochs(self, t: float) -> None:
        """Discard accumulated epoch state and begin epoch accounting at ``t``.

        Used when the connection leaves its probing phase: RTT statistics
        gathered so far are kept, epoch averages start clean.
        """
        self._advance(t)
        self._age_area = 0.0
        self._backlog_area = 0.0
        self._epoch_start = t
        self._prev_epoch = None
