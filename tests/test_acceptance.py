"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] ...: PASS` line (visible with -s or
-rA) after its assertions hold.  Simulations are deterministic given
the seeds fixed here, so green results are reproducible bit for bit.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from agectl import wire
from agectl.analytics import aoi_mm1, aoi_tandem, optimal_lambda
from agectl.controller import MDEC_LEVEL_CAP, RateController
from agectl.estimator import SourceEstimator
from agectl.simkit import (
    CrossTraffic,
    QueueNetwork,
    ServiceSpec,
    jain_index,
    run_closed_loop,
    run_fixed_rate,
    sweep_lambda,
)

MM1_NET = QueueNetwork(forward=(ServiceSpec("exp", 1.0),))

SIX_HOP = QueueNetwork(
    forward=tuple(ServiceSpec("link", 1_000_000.0) for _ in range(6)),
    reverse=tuple(ServiceSpec("link", 1_000_000.0) for _ in range(6)),
    cross_traffic=(CrossTraffic(entry=0, rate_bps=200_000.0, packet_bytes=1040),),
)

# ACK return service scaled by the update/ACK size ratio (1040/64)
CL_TANDEM = QueueNetwork(
    forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 1.0)),
    reverse=(ServiceSpec("exp", 16.25), ServiceSpec("exp", 16.25)),
)


def tandem_net(mu1: float, mu2: float) -> QueueNetwork:
    return QueueNetwork(forward=(ServiceSpec("exp", mu1), ServiceSpec("exp", mu2)))


def report(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


# -- 1. analytic vs simulation on the tandem grid --------------------------------------


def test_c01_tandem_analytic_simulation_agreement():
    started = time.perf_counter()
    lams = (0.2, 0.4, 0.53)
    mus = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))
    worst = 0.0
    for lam in lams:
        for mu1, mu2 in mus:
            duration = 1.12e6 / lam  # ~1.12e6 arrivals; >=1e6 delivered post warm-up
            m = run_fixed_rate(tandem_net(mu1, mu2), lam, "poisson", duration, seed=20_250)
            assert m.delivered >= 1_000_000, (lam, mu1, mu2, m.delivered)
            analytic = aoi_tandem(lam, mu1, mu2)
            rel = abs(m.avg_age - analytic) / analytic
            worst = max(worst, rel)
            assert rel <= 0.02, (lam, mu1, mu2, m.avg_age, analytic, rel)
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"grid took {elapsed:.0f}s, budget is 5 minutes"
    report(f"C1 tandem grid within 2% (worst {worst * 100:.2f}%, {elapsed:.0f}s)")


# -- 2. symmetry and the fast-second-server limit ----------------------------------------


def test_c02_tandem_symmetry_and_limit():
    rng = random.Random(0x5EED)
    for _ in range(100):
        mu1 = rng.uniform(0.2, 9.0)
        mu2 = rng.uniform(0.2, 9.0)
        lam = rng.uniform(0.02, 0.95) * min(mu1, mu2)
        a = aoi_tandem(lam, mu1, mu2)
        b = aoi_tandem(lam, mu2, mu1)
        assert abs(a - b) / a <= 1e-12, (lam, mu1, mu2)
    assert abs(aoi_tandem(0.5, 1.0, 1e6) - aoi_mm1(0.5, 1.0)) <= 1e-3
    report("C2 symmetry to 1e-12 on 100 triples; mu2->inf limit within 1e-3")


# -- 3. single-queue optimum ---------------------------------------------------------------


def test_c03_mm1_optimum_analytic_and_simulated():
    lam_star, _ = optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.05, 0.95)
    assert 0.51 <= lam_star <= 0.55
    per_system_time = lam_star / (1.0 - lam_star)
    assert 1.10 <= per_system_time <= 1.15
    grid = [round(0.35 + 0.025 * k, 4) for k in range(15)]  # 0.35 .. 0.70
    sweep = sweep_lambda(MM1_NET, grid, duration=5e5, seed=777)
    assert abs(sweep.best_lambda - lam_star) <= 0.05, (sweep.best_lambda, lam_star)
    report(
        f"C3 mm1 optimum: lam*={lam_star:.4f}, {per_system_time:.3f}/system-time, "
        f"sweep argmin {sweep.best_lambda}"
    )


# -- 4. tandem optimum and its ordering in the second service rate --------------------------


def test_c04_tandem_optimum_packets_per_system_time():
    lam_star, _ = optimal_lambda(lambda l: aoi_tandem(l, 1.0, 1.0), 0.05, 0.95)
    equal_rate_value = lam_star * (1.0 / (1.0 - lam_star) + 1.0 / (1.0 - lam_star))
    assert 1.5 <= equal_rate_value <= 1.7
    values = [equal_rate_value]
    for mu2 in (1.5, 2.0, 5.0, 30.0, 1000.0):
        ls, _ = optimal_lambda(lambda l: aoi_tandem(l, 1.0, mu2), 0.02, 0.95)
        values.append(ls * (1.0 / (1.0 - ls) + 1.0 / (mu2 - ls)))
    assert all(a > b for a, b in zip(values, values[1:])), values
    mm1_star, _ = optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.05, 0.95)
    assert values[-1] == pytest.approx(mm1_star / (1.0 - mm1_star), rel=5e-3)
    report(
        f"C4 tandem optimum {equal_rate_value:.3f} packets/system-time; "
        f"monotone toward single-queue {values[-1]:.3f}"
    )


# -- 5. bowl-shaped age curves ----------------------------------------------------------------


def test_c05_bowl_shape_on_simulated_sweeps():
    grid = [round(0.1 * k, 2) for k in range(1, 10)]  # 0.1 .. 0.9 of mu=1
    for name, net in (("mm1", MM1_NET), ("tandem", tandem_net(1.0, 1.0))):
        sweep = sweep_lambda(net, grid, duration=2.5e5, seed=4242)
        ages = [row[1] for row in sweep.rows]
        assert ages[0] >= 1.5 * sweep.best_age, (name, ages[0], sweep.best_age)
        assert ages[-1] >= 1.5 * sweep.best_age, (name, ages[-1], sweep.best_age)
    report("C5 sweep endpoints exceed 1.5x the minimum age on mm1 and tandem")


# -- 6. controller conformance ------------------------------------------------------------------


def reference_decision(backlog_diff, age_diff, backlog_now, flag, gamma):
    """Independent transcription of the published decision table."""
    if backlog_diff > 0 and age_diff > 0:
        if flag == 1:
            gamma = min(gamma + 1, MDEC_LEVEL_CAP)
            action, b_star = "MDEC", -(1 - 2**-gamma) * backlog_now
        else:
            action, b_star = "DEC", -1.0
        flag = 1
    elif (backlog_diff > 0) != (age_diff > 0):
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


def test_c06_controller_table_and_rate_clamps():
    checked = 0
    for backlog_diff in (-1.0, -0.25, 0.0, 0.25, 1.0):
        for age_diff in (-1.0, -0.25, 0.0, 0.25, 1.0):
            for flag in (0, 1):
                for gamma in range(0, 9):
                    for backlog_now in (0.0, 2.0, 6.5):
                        ctl = _controller(bool(flag), gamma)
                        change = ctl.decide(backlog_diff, age_diff, backlog_now)
                        exp_action, exp_b, exp_flag, exp_gamma = reference_decision(
                            backlog_diff, age_diff, backlog_now, flag, gamma
                        )
                        assert change.kind.value == exp_action
                        assert change.backlog_change == pytest.approx(exp_b)
                        assert int(ctl.escalating) == exp_flag
                        assert ctl.mdec_level == exp_gamma
                        checked += 1
    # consecutive MDEC growth
    ctl = RateController(10.0)
    ctl.decide(1.0, 1.0, 4.0)
    for expected_level in (1, 2, 3, 4):
        change = ctl.decide(1.0, 1.0, 4.0)
        assert change.kind.value == "MDEC" and change.mdec_level == expected_level

    rng = random.Random(0xC1A5)
    ctl = RateController(5.0)
    for _ in range(10_000):
        prev = ctl.rate
        b_star = rng.uniform(-8.0, 8.0)
        z = rng.uniform(1e-3, 3.0)
        rtt = rng.uniform(1e-3, 3.0)
        got = ctl.update_rate(b_star, z, rtt)
        raw = 1.0 / z + b_star / rtt
        assert got == pytest.approx(min(max(raw, 0.75 * prev), 1.25 * prev), rel=1e-12)
        assert 0.75 - 1e-12 <= got / prev <= 1.25 + 1e-12
    report(f"C6 decision table exact on {checked} states; clamps hold on 1e4 rate updates")


# -- 7. estimator equals the brute-force oracle ----------------------------------------------------


class ReplayOracle:
    """Recomputes the processes from the raw event log, by definition."""

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

    def age_at(self, t):
        _, acked = self.state_at(t)
        return None if acked == 0 else t - self.gen_ts[acked]

    def integrals(self, t0, t1):
        cuts = sorted({t0, t1, *(ev[1] for ev in self.events if t0 < ev[1] < t1)})
        age_area = backlog_area = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            sent, acked = self.state_at(lo)
            backlog_area += (hi - lo) * (sent - acked)
            if acked:
                age_area += (hi - lo) * ((lo + hi) / 2.0 - self.gen_ts[acked])
        return age_area, backlog_area


def random_trace(rng):
    events = []
    t = 0.0
    sends = {}
    for seq in range(1, rng.randrange(4, 22)):
        t += rng.expovariate(2.0)
        events.append(("send", t, seq, t))
        sends[seq] = t
    for seq, sent_at in sends.items():
        if rng.random() < 0.3:
            continue  # lost
        events.append(("ack", sent_at + 0.01 + rng.expovariate(1.5), seq, round(sent_at * 1e6)))
    events.sort(key=lambda e: e[1])
    return events


def test_c07_estimator_matches_oracle_on_random_traces():
    rng = random.Random(0xACED)
    for _ in range(10_000):
        events = random_trace(rng)
        est = SourceEstimator()
        for ev in events:
            if ev[0] == "send":
                assert est.on_send(ev[1], round(ev[3] * 1e6)) == ev[2]
            else:
                est.on_ack(ev[1], ev[2], ev[3])
        oracle = ReplayOracle(events)
        end = events[-1][1]
        probe = end + rng.random()
        sent, acked = oracle.state_at(probe)
        assert est.highest_sent == sent
        assert est.highest_acked == acked
        assert est.backlog == sent - acked  # bit-for-bit (integers)
        expected_age = oracle.age_at(probe)
        if expected_age is not None:
            assert est.age_at(probe) == expected_age  # exact float equality
        close_at = end + 0.25
        stats = est.close_epoch(close_at)
        age_area, backlog_area = oracle.integrals(0.0, close_at)
        assert stats.avg_age == pytest.approx(age_area / close_at, rel=1e-9, abs=1e-12)
        assert stats.avg_backlog == pytest.approx(backlog_area / close_at, rel=1e-9, abs=1e-12)
    report("C7 estimator equals oracle on 1e4 random traces (steps exact, integrals 1e-9)")


def test_c07_out_of_sequence_ack_regression():
    # named regression: a late ACK for an older update must not reset the
    # age process or shrink the backlog
    est = SourceEstimator()
    for t in (0.0, 0.2, 0.4):
        est.on_send(t, round(t * 1e6))
    assert est.on_ack(1.0, 3, round(0.4 * 1e6)) is not None
    assert est.highest_acked == 3 and est.backlog == 0
    age_before = est.age_at(1.1)
    assert est.on_ack(1.1, 2, round(0.2 * 1e6)) is None
    assert est.highest_acked == 3
    assert est.age_at(1.1) == age_before
    report("C7 out-of-sequence ACK leaves age and backlog untouched")


# -- 8. closed-loop sanity --------------------------------------------------------------------------


def test_c08_closed_loop_backlogs_and_age():
    # six-hop chain with cross traffic: per-node mean backlog at or below 1.2
    per_node = np.zeros(6)
    for seed in range(1, 6):
        result = run_closed_loop(SIX_HOP, "acp_plus", 1, duration=300.0, seed=seed)
        per_node += np.asarray(result.forward_backlogs)
    per_node /= 5.0
    assert per_node.max() <= 1.2, per_node.tolist()

    # the rate controller should hold its long-run estimated age near the
    # analytic optimum of the two-queue net
    _, age_star = optimal_lambda(lambda l: aoi_tandem(l, 1.0, 1.0), 0.05, 0.95)
    gaps = []
    for seed in range(1, 6):
        result = run_closed_loop(CL_TANDEM, "acp_plus", 1, duration=50_000.0, seed=seed)
        est_age = result.sources[0].est_avg_age
        gaps.append(abs(est_age - age_star) / age_star)
    assert all(g <= 0.25 for g in gaps), gaps

    # lazy holds roughly one update in flight
    lazy_backlogs = []
    for seed in range(1, 6):
        result = run_closed_loop(SIX_HOP, "lazy", 1, duration=300.0, seed=seed)
        lazy_backlogs.append(result.sources[0].est_avg_backlog)
    lazy_mean = sum(lazy_backlogs) / len(lazy_backlogs)
    assert 0.8 <= lazy_mean <= 1.2, lazy_backlogs
    report(
        f"C8 node backlogs <= 1.2 (max {per_node.max():.2f}); tandem age within 25% "
        f"(worst {max(gaps) * 100:.0f}%); lazy backlog {lazy_mean:.2f}"
    )


# -- 9. age fairness across sources -------------------------------------------------------------------


def test_c09_six_source_fairness():
    indices = []
    for seed in (11, 12, 13):
        result = run_closed_loop(SIX_HOP, "acp_plus", 6, duration=300.0, seed=seed)
        indices.append(result.fairness_true_age)
    assert all(j >= 0.95 for j in indices), indices
    report(f"C9 Jain index over 6 source ages >= 0.95 (values {[f'{j:.3f}' for j in indices]})")


# -- 10. determinism and wire integrity ------------------------------------------------------------------


def test_c10_determinism_and_codec_integrity():
    net = QueueNetwork(
        forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 2.0)),
        cross_traffic=(CrossTraffic(entry=0, rate_bps=150_000.0, packet_bytes=700),),
    )
    a = run_fixed_rate(net, 0.45, "poisson", duration=20_000.0, seed=99)
    b = run_fixed_rate(net, 0.45, "poisson", duration=20_000.0, seed=99)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c1 = run_closed_loop(CL_TANDEM, "acp_plus", 2, duration=2_000.0, seed=7)
    c2 = run_closed_loop(CL_TANDEM, "acp_plus", 2, duration=2_000.0, seed=7)
    assert json.dumps(c1.to_dict(), sort_keys=True) == json.dumps(c2.to_dict(), sort_keys=True)

    rng = random.Random(0xF00D)
    for _ in range(50_000):
        seq, ts = rng.getrandbits(32), rng.getrandbits(64)
        payload = rng.randbytes(rng.randrange(0, 48))
        frame = wire.encode_update(seq, ts, payload)
        decoded = wire.decode_update(frame)
        assert decoded == (seq, ts) and frame[wire.HEADER_LEN:] == payload
        assert wire.encode_update(*decoded, frame[wire.HEADER_LEN:]) == frame
        seq, ts = rng.getrandbits(32), rng.getrandbits(64)
        ack_frame = wire.encode_ack(seq, ts)
        decoded_ack = wire.decode_ack(ack_frame)
        assert decoded_ack == (seq, ts) and wire.encode_ack(*decoded_ack) == ack_frame
    report("C10 reruns byte-identical; 1e5 random frames round-trip bit-exactly")
