"""Decision-table conformance, clamping, epoch-length arithmetic, and the
per-epoch record types."""

import inspect
import random

import pytest

from agectl.controller import (
    Action,
    MDEC_LEVEL_CAP,
    RateController,
    TargetChange,
    lazy_rate,
)
from agectl.estimator import EpochStats, SourceEstimator


def reference_decision(backlog_diff, age_diff, backlog_now, flag, gamma):
    """Literal transcription of the published control table.

    Returns (action, b_star, flag', gamma').  Zero-valued differences
    classify with the negatives.
    """
    if backlog_diff > 0 and age_diff > 0:
        if flag == 1:
            gamma = min(gamma + 1, MDEC_LEVEL_CAP)
            action, b_star = "MDEC", -(1 - 2**-gamma) * backlog_now
        else:
            action, b_star = "DEC", -1.0
        flag = 1
    elif backlog_diff > 0 and age_diff <= 0:
        action, b_star = "INC", 1.0
        flag, gamma = 0, 0
    elif backlog_diff <= 0 and age_diff > 0:
        action, b_star = "INC", 1.0
        flag, gamma = 0, 0
    else:
        if flag == 1 and gamma > 0:
            action, b_star = "MDEC", -(1 - 2**-gamma) * backlog_now
        else:
            action, b_star = "DEC", -1.0
            flag, gamma = 0, 0
    return action, b_star, flag, gamma


def _controller(escalating, mdec_level):
    """A controller at rate 10 in the given escalation state."""
    ctl = RateController(10.0)
    ctl.escalating, ctl.mdec_level = escalating, mdec_level
    return ctl


def test_exhaustive_decision_table():
    signs = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for backlog_diff in signs:
        for age_diff in signs:
            for flag in (0, 1):
                for gamma in range(0, 9):
                    for backlog_now in (0.0, 1.0, 4.0, 7.5):
                        ctl = _controller(bool(flag), gamma)
                        change = ctl.decide(backlog_diff, age_diff, backlog_now)
                        action, b_star, flag2, gamma2 = reference_decision(
                            backlog_diff, age_diff, backlog_now, flag, gamma
                        )
                        state = (backlog_diff, age_diff, flag, gamma, backlog_now)
                        assert change.kind.value == action, state
                        assert change.backlog_change == pytest.approx(b_star), state
                        assert int(ctl.escalating) == flag2, state
                        assert ctl.mdec_level == gamma2, state


def test_dec_then_mdec_escalation():
    ctl = RateController(10.0)
    first = ctl.decide(0.5, 0.1, 4.0)
    assert first.kind is Action.DEC and first.backlog_change == -1.0
    assert ctl.escalating
    second = ctl.decide(0.5, 0.1, 4.0)
    assert second.kind is Action.MDEC and second.mdec_level == 1
    assert second.backlog_change == pytest.approx(-(1 - 0.5) * 4.0)  # -2
    third = ctl.decide(0.5, 0.1, 4.0)
    assert third.mdec_level == 2
    assert third.backlog_change == pytest.approx(-(1 - 0.25) * 4.0)


def test_inc_resets_escalation():
    ctl = _controller(True, 5)
    change = ctl.decide(-0.3, 0.2, 4.0)
    assert change.kind is Action.INC and change.backlog_change == 1.0
    assert not ctl.escalating and ctl.mdec_level == 0


def test_both_falling_rides_mdec_without_increment():
    ctl = _controller(True, 3)
    change = ctl.decide(-0.5, -0.5, 8.0)
    assert change.kind is Action.MDEC and change.mdec_level == 3
    assert ctl.escalating and ctl.mdec_level == 3  # state untouched
    # without an armed escalation it decreases additively and resets
    ctl2 = RateController(10.0)
    change2 = ctl2.decide(-0.5, -0.5, 8.0)
    assert change2.kind is Action.DEC
    assert not ctl2.escalating and ctl2.mdec_level == 0


def test_mdec_magnitude_monotone_in_level():
    backlog = 6.0
    prev = 0.0
    for gamma in range(1, 17):
        ctl = _controller(True, gamma - 1)
        change = ctl.decide(0.5, 0.5, backlog)
        assert abs(change.backlog_change) >= prev
        prev = abs(change.backlog_change)
    assert prev <= backlog
    assert prev == pytest.approx(backlog, rel=1e-4)  # approaches the full backlog


def test_mdec_level_cap():
    ctl = _controller(True, MDEC_LEVEL_CAP)
    change = ctl.decide(1.0, 1.0, 4.0)
    assert change.mdec_level == MDEC_LEVEL_CAP


def test_record_types_keep_their_fields_defaults_and_immutability():
    fields = {
        TargetChange: ["kind", "backlog_change", "mdec_level"],
        EpochStats: ["avg_age", "avg_backlog", "age_diff", "backlog_diff", "backlog_now"],
    }
    for cls, names in fields.items():
        params = inspect.signature(cls).parameters
        assert list(params) == names
        defaults = {name: p.default for name, p in params.items() if p.default is not inspect.Parameter.empty}
        assert defaults == ({"mdec_level": 0} if cls is TargetChange else {})
    est = SourceEstimator()
    est.on_send(0.0, 0)
    est.on_ack(0.5, 1, 0)
    stats = est.close_epoch(1.0)
    # the age runs from 0.5 to 1.0 over the epoch's second half; one update in flight over its first
    assert stats == EpochStats(avg_age=0.375, avg_backlog=0.5, age_diff=None, backlog_diff=None, backlog_now=0)
    change = TargetChange(Action.MDEC, -2.0, mdec_level=1)
    for record, name in ((stats, "avg_age"), (stats, "backlog_now"), (change, "kind"), (change, "backlog_change")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_decide_returns_equal_additive_targets_and_labels():
    ctl = RateController(10.0)
    dec = ctl.decide(-0.5, -0.5, 4.0)
    inc = ctl.decide(0.5, -0.5, 4.0)
    assert dec == TargetChange(Action.DEC, -1.0) and dec.mdec_level == 0
    assert inc == TargetChange(Action.INC, 1.0) and inc.mdec_level == 0
    # a caller cannot corrupt the target a later decision returns
    with pytest.raises(AttributeError):
        dec.backlog_change = 5.0
    assert ctl.decide(-0.5, -0.5, 4.0) == TargetChange(Action.DEC, -1.0)
    ctl.decide(0.5, 0.5, 4.0)  # DEC, arms escalation
    mdec = ctl.decide(0.5, 0.5, 4.0)
    assert mdec == TargetChange(Action.MDEC, -2.0, 1)
    assert [c.label() for c in (inc, dec, mdec)] == ["INC", "DEC", "MDEC(1)"]
    assert TargetChange(Action.MDEC, -1.0, mdec_level=MDEC_LEVEL_CAP).label() == f"MDEC({MDEC_LEVEL_CAP})"


def test_update_rate_hand_values():
    # raw 1/0.1 + 1/0.2 = 15 inside [9.75, 16.25]
    ctl = RateController(13.0)
    assert ctl.update_rate(1.0, 0.1, 0.2) == pytest.approx(15.0)
    # raw 15 clamped to 1.25 * 10 = 12.5
    ctl = RateController(10.0)
    assert ctl.update_rate(1.0, 0.1, 0.2) == pytest.approx(12.5)
    # degenerate no-change fixed point
    ctl = RateController(10.0)
    assert ctl.update_rate(0.0, 0.1, 0.2) == pytest.approx(10.0)


def test_update_rate_becomes_previous():
    ctl = RateController(10.0)
    first = ctl.update_rate(1.0, 0.1, 0.2)  # 12.5
    assert ctl.rate == first
    second = ctl.update_rate(-20.0, 0.1, 0.2)  # raw negative, floor clamp
    assert second == pytest.approx(0.75 * first)
    assert second > 0


def test_update_rate_clamp_randomized():
    rng = random.Random(0xC1A)
    ctl = RateController(rng.uniform(0.5, 50.0))
    for _ in range(10_000):
        prev = ctl.rate
        b_star = rng.uniform(-10.0, 10.0)
        z = rng.uniform(1e-3, 2.0)
        rtt = rng.uniform(1e-3, 2.0)
        got = ctl.update_rate(b_star, z, rtt)
        raw = 1.0 / z + b_star / rtt
        expected = min(max(raw, 0.75 * prev), 1.25 * prev)
        assert got == pytest.approx(expected, rel=1e-12)
        assert 0.75 - 1e-12 <= got / prev <= 1.25 + 1e-12
        assert got > 0


def test_alternating_inc_dec_stays_bounded():
    # stationary delivery rate equal to the current rate: alternating
    # +-1 targets must oscillate inside the clamp band, never diverge
    ctl = RateController(10.0)
    rates = []
    for k in range(200):
        b_star = 1.0 if k % 2 == 0 else -1.0
        rates.append(ctl.update_rate(b_star, 1.0 / ctl.rate, 0.5))
    assert all(5.0 < r < 20.0 for r in rates[10:])


def test_update_rate_validation():
    ctl = RateController(10.0)
    with pytest.raises(ValueError):
        ctl.update_rate(1.0, 0.0, 0.2)
    with pytest.raises(ValueError):
        ctl.update_rate(1.0, 0.1, -0.2)
    with pytest.raises(ValueError):
        RateController(0.0)
    with pytest.raises(ValueError):
        ctl.decide(0.1, 0.1, -1.0)


def test_epoch_length():
    ctl = RateController(10.0)
    assert ctl.epoch_length() == pytest.approx(1.0)
    assert ctl.epoch_length(5.0) == pytest.approx(2.0)
    assert ctl.epoch_length(13.0) == pytest.approx(10.0 / 13.0)
    with pytest.raises(ValueError):
        ctl.epoch_length(0.0)


def test_lazy_rate():
    assert lazy_rate(0.2) == pytest.approx(5.0)
    assert lazy_rate(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lazy_rate(0.0)
