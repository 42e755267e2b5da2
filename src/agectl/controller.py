"""Per-epoch rate control: map backlog/age trends to a new update rate.

At every epoch boundary the source observes how the epoch's average
backlog and average age moved relative to the previous epoch, picks a
target change in average backlog (additive increase/decrease, or a
multiplicative decrease that escalates while congestion persists), and
converts that target into an update rate.  The rate is never allowed to
move by more than 25% per epoch in either direction.

Sign convention: a zero difference is classified with the decreases, so
a flat epoch never triggers the congestion branch.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

DEFAULT_UPDATES_PER_EPOCH = 10
RATE_SHRINK_LIMIT = 0.75
RATE_GROWTH_LIMIT = 1.25
# -(1 - 2**-16) is already -0.9999847..; deeper levels are indistinguishable
MDEC_LEVEL_CAP = 16


class Action(Enum):
    INC = "INC"
    DEC = "DEC"
    MDEC = "MDEC"


class TargetChange(NamedTuple):
    """Chosen action and the backlog change it targets for the next epoch."""

    kind: Action
    backlog_change: float
    mdec_level: int = 0

    def label(self) -> str:
        return f"MDEC({self.mdec_level})" if self.kind is Action.MDEC else self.kind.value


# the additive targets, built once: a TargetChange cannot be mutated
_DEC = TargetChange(Action.DEC, -1.0)
_INC = TargetChange(Action.INC, +1.0)


class RateController:
    """Decision state machine plus the clamped rate computation.

    One instance per connection; the caller serializes all calls.
    ``escalating`` records that the previous decision came from the
    rising-backlog-rising-age quadrant, which arms the multiplicative
    path; ``mdec_level`` is the current escalation depth.
    """

    def __init__(
        self,
        initial_rate: float,
        updates_per_epoch: int = DEFAULT_UPDATES_PER_EPOCH,
        escalating: bool = False,
        mdec_level: int = 0,
    ):
        if initial_rate <= 0.0:
            raise ValueError(f"initial rate must be positive, got {initial_rate}")
        if updates_per_epoch < 1:
            raise ValueError(f"updates_per_epoch must be >= 1, got {updates_per_epoch}")
        self.rate = initial_rate
        self.updates_per_epoch = updates_per_epoch
        self.escalating = escalating
        self.mdec_level = mdec_level

    def decide(self, backlog_diff: float, age_diff: float, backlog_now: float) -> TargetChange:
        """Pick the backlog-change target from the epoch's trend signs.

        ``backlog_now`` is the estimated backlog at epoch close; it scales
        the multiplicative decrease.
        """
        if backlog_now < 0:
            raise ValueError(f"backlog_now must be non-negative, got {backlog_now}")
        backlog_up = backlog_diff > 0.0
        age_up = age_diff > 0.0
        if backlog_up and age_up:
            # sustained queue growth: decrease, escalating multiplicatively
            # while this quadrant repeats
            if self.escalating:
                self.mdec_level = min(self.mdec_level + 1, MDEC_LEVEL_CAP)
                change = self._mdec(backlog_now)
            else:
                change = _DEC
            self.escalating = True
            return change
        if backlog_up or age_up:
            # mixed signs: probe upward and disarm the multiplicative path
            self.escalating = False
            self.mdec_level = 0
            return _INC
        # both falling: keep draining; ride an armed multiplicative sequence,
        # otherwise decrease additively and disarm
        if self.escalating and self.mdec_level > 0:
            return self._mdec(backlog_now)
        self.escalating = False
        self.mdec_level = 0
        return _DEC

    def _mdec(self, backlog_now: float) -> TargetChange:
        change = -(1.0 - 2.0 ** -self.mdec_level) * backlog_now
        return TargetChange(Action.MDEC, change, self.mdec_level)

    def update_rate(self, backlog_change: float, ack_gap_ewma: float, rtt_ewma: float) -> float:
        """Convert a target backlog change into the next epoch's rate.

        The unclamped rate is the current delivery rate (inverse of the
        smoothed ACK gap) plus the backlog change spread over one smoothed
        RTT; the result is clamped to [0.75, 1.25] times the current rate
        and becomes the new current rate.
        """
        if ack_gap_ewma <= 0.0:
            raise ValueError(f"ack_gap_ewma must be positive, got {ack_gap_ewma}")
        if rtt_ewma <= 0.0:
            raise ValueError(f"rtt_ewma must be positive, got {rtt_ewma}")
        raw = 1.0 / ack_gap_ewma + backlog_change / rtt_ewma
        low = RATE_SHRINK_LIMIT * self.rate
        high = RATE_GROWTH_LIMIT * self.rate
        self.rate = min(max(raw, low), high)
        return self.rate

    def epoch_length(self, rate: float | None = None) -> float:
        """Length of an epoch at ``rate``: a fixed number of send periods."""
        r = self.rate if rate is None else rate
        if r <= 0.0:
            raise ValueError(f"rate must be positive, got {r}")
        return self.updates_per_epoch / r


def lazy_rate(rtt_ewma: float) -> float:
    """Baseline policy rate: one update per smoothed RTT (backlog target 1)."""
    if rtt_ewma <= 0.0:
        raise ValueError(f"rtt_ewma must be positive, got {rtt_ewma}")
    return 1.0 / rtt_ewma
