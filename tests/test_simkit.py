"""Simulator correctness: determinism, conservation laws, analytic anchors."""

import bisect
import contextlib
import heapq
import json
import math
import re
import statistics
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from event_oracle import HopEngine, _service_fn, open_loop_events
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agectl import analytics, simkit, wire
from agectl.cli import load_config
from agectl.endpoints import InitializationError, MonitorSession, SourceConfig, SourceSession
from agectl.endpoints import age_areas, clipped_age_areas
from agectl.simkit import (
    ARRIVAL_KINDS,
    SERVICE_KINDS,
    AoiMetrics,
    ConfigError,
    CrossTraffic,
    DEFAULT_UPDATE_BYTES,
    QueueNetwork,
    ServiceSpec,
    accepted_resets,
    age_time_average,
    jain_index,
    run_closed_loop,
    run_fixed_rate,
    substream_seed,
    sweep_lambda,
)

MM1 = QueueNetwork(forward=(ServiceSpec("exp", 1.0),))
TANDEM = QueueNetwork(forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 1.0)))


# -- fairness index -------------------------------------------------------------


def test_jain_equal_values():
    assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)


def test_jain_single_nonzero():
    for n in (2, 5, 9):
        values = [0.0] * (n - 1) + [7.0]
        assert jain_index(values) == pytest.approx(1.0 / n)


def test_jain_hand_value():
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0)


def test_jain_errors():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([1.0, -1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            jain_index([bad, 1.0])


# -- metric helpers --------------------------------------------------------------


def test_age_time_average_hand_case():
    # resets at t=1 (gen 0.5) and t=2 (gen 1.8): age runs 0.5..1.5 then 0.2..1.2
    gen = [0.5, 1.8]
    dlv = [1.0, 2.0]
    got = age_time_average(gen, dlv, 0.0, 3.0)
    assert got == pytest.approx((1.0 * 1.0 + 0.7 * 1.0) / 2.0)


def test_clipped_age_areas_hand_case():
    # resets at t=0.2, 1 and 2 over [1.5, 2.5]: the first is replaced before
    # the window opens, the second is in force on [1.5, 2] (age 1..1.5) and
    # the third on [2, 2.5] (age 0.2..0.7)
    areas, start = clipped_age_areas([0.0, 0.5, 1.8], [0.2, 1.0, 2.0], 1.5, 2.5)
    assert start == 1.5
    assert areas.tolist() == pytest.approx([0.0, 0.625, 0.225])
    assert clipped_age_areas([0.5, 1.8], [1.0, 2.0], 0.0, 3.0)[1] == 1.0  # no age before the first reset
    assert clipped_age_areas([], [], 0.0, 1.0) == (None, 0.0)
    assert clipped_age_areas([0.0], [5.0], 0.0, 1.0) == (None, 5.0)


def test_age_time_average_empty_window():
    assert math.isnan(age_time_average([], [], 0.0, 1.0))
    assert math.isnan(age_time_average([0.0], [5.0], 0.0, 1.0))


@pytest.mark.parametrize(
    "gen, dlv, needle",
    [
        ([0.0], [1.0, 2.0, 3.0], "equal-length"),
        ([0.0, 1.0], [1.0, 2.0, 3.0], "equal-length"),
        ([], [1.0], "equal-length"),
        ([[0.0]], [[1.0]], "1-d"),
        ([0.0, 0.5, 1.0], [3.0, 1.5, 2.5], "decrease"),
        # NaN instants once passed the order check and gave a NaN age
        ([0.0, 0.5, 1.0], [1.0, math.nan, 2.5], "decrease"),
        ([0.0, 0.5], [math.nan, 1.0], "decrease"),
        ([0.0], [math.nan], "decrease"),
        # a non-finite generation instant once gave a NaN or -inf age, also
        # for a reset after the window (0 * NaN is NaN)
        ([math.nan, 1.0], [1.0, 2.0], "generation instants"),
        ([math.inf, 1.0], [1.0, 2.0], "generation instants"),
        ([0.0, -math.inf], [1.0, 2.0], "generation instants"),
        ([0.0, 1.0, math.nan], [1.0, 2.0, 6.0], "generation instants"),
    ],
)
def test_age_time_average_rejects_garbage(gen, dlv, needle):
    # each of these once returned a number or an untyped broadcast error
    with pytest.raises(ValueError, match=needle):
        age_time_average(gen, dlv, 0.0, 5.0)
    # equal delivery times are not a decrease
    assert age_time_average([0.0, 0.5], [1.0, 1.0], 0.0, 2.0) == pytest.approx(1.0)


@pytest.mark.parametrize("bound", ["0", None, True, [0.0], math.nan, math.inf, -math.inf, 10**400])
def test_true_age_window_bounds_are_finite_numbers(bound):
    # a string bound once raised TypeError, and a NaN or infinite one
    # returned NaN
    mon = MonitorSession()
    mon.on_datagram(1.0, wire.encode_update(1, 0))
    mon.on_datagram(2.0, wire.encode_update(2, 1_000_000))
    calls = {
        "age_time_average": lambda lo, hi: age_time_average([0.0, 1.0], [1.0, 2.0], lo, hi),
        "clipped_age_areas": lambda lo, hi: clipped_age_areas([0.0, 1.0], [1.0, 2.0], lo, hi),
        "true_avg_age": mon.true_avg_age,
    }
    assert calls["age_time_average"](0.0, 3.0) == calls["true_avg_age"](0.0, 3.0) == 1.5
    for name, call in calls.items():
        for lo, hi, which in ((bound, 3.0, "lo"), (0.0, bound, "hi")):
            with pytest.raises(ConfigError, match=f"^{which} must be"):
                call(lo, hi)


def test_accepted_resets_filters_stale():
    seqs = [1, 3, 2, 5, 4]
    gen = [0.1, 0.3, 0.2, 0.5, 0.4]
    dlv = [1.0, 2.0, 3.0, 4.0, 5.0]
    g, d = accepted_resets(seqs, gen, dlv)
    assert list(d) == [1.0, 2.0, 4.0]
    assert list(g) == [0.1, 0.3, 0.5]


def test_substream_seed_stability():
    # derived seeds must be process-independent constants
    assert substream_seed(42, "arrivals") == substream_seed(42, "arrivals")
    assert substream_seed(42, "arrivals") != substream_seed(42, "service/0")
    assert substream_seed(1, "x") != substream_seed(2, "x")


# -- open loop -------------------------------------------------------------------


def test_deterministic_service_periodic_ideal():
    # service-synchronized periodic feed: every update ages exactly one
    # service time at delivery, so the sawtooth averages 1.5x service
    net = QueueNetwork(forward=(ServiceSpec("det", 2.0),))  # service 0.5 s
    m = run_fixed_rate(net, 2.0, "periodic", duration=1000.0, seed=0)
    assert m.avg_age == pytest.approx(1.5 * 0.5, rel=1e-9)
    assert m.avg_backlog_per_node[0] == pytest.approx(1.0, rel=1e-9)
    assert m.unstable  # critically loaded: the flag fires at rate >= capacity


def test_mm1_matches_analytic_within_two_percent():
    lam = 0.53
    m = run_fixed_rate(MM1, lam, "poisson", duration=4e5 / lam, seed=7)
    assert m.delivered >= 3e5
    assert m.avg_age == pytest.approx(analytics.aoi_mm1(lam, 1.0), rel=0.02)
    # mean number in system while we are at it (M/M/1: rho/(1-rho))
    assert m.avg_backlog_per_node[0] == pytest.approx(lam / (1 - lam), rel=0.05)
    assert m.avg_system_time == pytest.approx(1.0 / (1 - lam), rel=0.05)


def test_tandem_matches_analytic():
    lam = 0.5
    m = run_fixed_rate(TANDEM, lam, "poisson", duration=4e5 / lam, seed=11)
    assert m.avg_age == pytest.approx(analytics.aoi_tandem(lam, 1.0, 1.0), rel=0.02)


# Standard deviation over seeds 0-31 of one run's relative error against
# aoi_dm1 (mu = 1): open loop 1e5 s, closed loop 4e4 s.  The mean of 8 runs
# must fall within 4 of its standard errors, sd/sqrt(8).  A spread from
# fewer seeds misleads: closed-loop runs of 2e4 s at rho = 0.7 on seeds 0-3
# read -3.15%, -3.1 standard errors by their own spread but -2.4 by that of
# seeds 0-31.
DM1_RUN_SD = {
    ("periodic", 0.3): 0.0021,
    ("periodic", 0.5): 0.0047,
    ("periodic", 0.7): 0.0117,
    ("periodic", 0.9): 0.0417,
    ("closed", 0.5): 0.0089,
    ("closed", 0.7): 0.0163,
}
DM1_NET = QueueNetwork(forward=(ServiceSpec("exp", 1.0),), reverse=(ServiceSpec("det", 1000.0),))


def _dm1_age(kind: str, lam: float, seed: int) -> float:
    if kind == "periodic":
        return run_fixed_rate(DM1_NET, lam, "periodic", duration=1e5, seed=seed).avg_age
    return run_closed_loop(DM1_NET, f"fixed:{lam}", 1, duration=4e4, seed=seed).sources[0].true_avg_age


@pytest.mark.parametrize("kind, lam", sorted(DM1_RUN_SD))
def test_periodic_updates_match_dm1_analytic(kind, lam):
    # periodic sends into one exp server, open loop or paced by fixed:R
    # (the ACK path takes 1 ms and shares no server with the updates)
    want = analytics.aoi_dm1(lam, 1.0)
    errors = [_dm1_age(kind, lam, seed) / want - 1.0 for seed in range(8)]
    assert abs(statistics.mean(errors)) <= 4.0 * DM1_RUN_SD[kind, lam] / math.sqrt(8)


# Standard deviation over seeds 0-31 of one run's relative error against
# aoi_md1 (mu = 1), Poisson updates into one det server for 1e5 s.  The mean
# of 8 runs has standard error sd/sqrt(8) and must fall within 4 of them.
MD1_RUN_SD = {0.3: 0.0067, 0.5: 0.0048, 0.7: 0.0057, 0.9: 0.0483}


@pytest.mark.parametrize("lam", sorted(MD1_RUN_SD))
def test_poisson_updates_into_a_det_server_match_md1_analytic(lam):
    net = QueueNetwork(forward=(ServiceSpec("det", 1.0),))
    want = analytics.aoi_md1(lam, 1.0)
    errors = [run_fixed_rate(net, lam, "poisson", duration=1e5, seed=seed).avg_age / want - 1.0 for seed in range(8)]
    assert abs(statistics.mean(errors)) <= 4.0 * MD1_RUN_SD[lam] / math.sqrt(8)


def test_deterministic_replay_byte_identical():
    net = QueueNetwork(
        forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 2.0)),
        cross_traffic=(CrossTraffic(entry=0, rate_bps=100_000, packet_bytes=500),),
    )
    a = run_fixed_rate(net, 0.4, "poisson", duration=5000.0, seed=123)
    b = run_fixed_rate(net, 0.4, "poisson", duration=5000.0, seed=123)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c = run_fixed_rate(net, 0.4, "poisson", duration=5000.0, seed=124)
    assert a.avg_age != c.avg_age


@pytest.mark.parametrize("k", [1, 2, 10])
def test_open_loop_age_scales_with_time_exactly(k):
    # rates times c and the duration over c is the same run in units 1/c of
    # the time: with c = 2**k every draw over a rate, period, sum, Lindley
    # step and area scales without rounding, so the mean age is c times less
    # bit for bit
    c = 2.0**k
    specs = (ServiceSpec("exp", 1.0), ServiceSpec("det", 1.5))
    net = QueueNetwork(forward=specs)
    scaled = QueueNetwork(forward=tuple(s._replace(rate=s.rate * c) for s in specs))
    m = run_fixed_rate(net, 0.4, "poisson", duration=5000.0, seed=8)
    assert run_fixed_rate(scaled, 0.4 * c, "poisson", duration=5000.0 / c, seed=8).avg_age * c == m.avg_age


def test_flow_conservation():
    m = run_fixed_rate(TANDEM, 0.5, "poisson", duration=20_000.0, seed=3)
    # every delivered update passed both nodes; in-flight remainder at the
    # horizon accounts for any difference
    assert m.node_departs[0] >= m.node_departs[1] >= m.delivered * 0.999
    assert 0 <= m.node_departs[0] - m.node_departs[1] <= 5


def test_littles_law_over_seeds():
    # B = throughput * mean time in node, averaged over independent runs;
    # the residual is edge noise centered at zero (3 sigma check)
    diffs = []
    for seed in range(20):
        m = run_fixed_rate(MM1, 0.5, "poisson", duration=40_000.0, seed=seed, warmup_frac=0.0)
        window = m.duration
        little_backlog = m.node_time_in_system_sum[0] / window
        diffs.append(m.avg_backlog_per_node[0] - little_backlog)
    mean = statistics.mean(diffs)
    sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
    assert abs(mean) <= 3.0 * sem + 1e-4


def test_unstable_load_flagged_but_reported():
    m = run_fixed_rate(MM1, 1.2, "poisson", duration=2000.0, seed=5)
    assert m.unstable
    assert math.isfinite(m.avg_age)
    stable = run_fixed_rate(MM1, 0.5, "poisson", duration=2000.0, seed=5)
    assert not stable.unstable
    assert m.avg_age > stable.avg_age


def test_cross_traffic_adds_backlog():
    quiet = run_fixed_rate(MM1, 0.3, "poisson", duration=30_000.0, seed=9)
    crossed_net = QueueNetwork(
        forward=(ServiceSpec("exp", 1.0),),
        cross_traffic=(CrossTraffic(entry=0, rate_bps=4_160, packet_bytes=1040),),
    )
    # cross flow offers 0.5 packets/s of extra load on a 1 pkt/s server
    crossed = run_fixed_rate(crossed_net, 0.3, "poisson", duration=30_000.0, seed=9)
    assert not crossed.unstable
    assert crossed.avg_backlog_per_node[0] > quiet.avg_backlog_per_node[0]
    assert crossed.avg_age > quiet.avg_age


@pytest.mark.parametrize(
    "lam,duration",
    [(math.inf, 100.0), (math.nan, 100.0), (0.5, math.nan), (0.5, math.inf)],
)
def test_run_fixed_rate_rejects_non_finite(lam, duration):
    with pytest.raises(ConfigError):
        run_fixed_rate(MM1, lam, "poisson", duration=duration, seed=0)


def test_single_source_throughput_equals_rate():
    m = run_fixed_rate(MM1, 0.5, "poisson", duration=50_000.0, seed=21)
    assert m.throughput_updates == pytest.approx(0.5, rel=0.05)


def test_backlog_window_opens_on_a_completion_instant():
    # two updates at t=0 on a 1 s server leave at 1 and 2; warm-up ends at
    # the first departure, and the backlog integral is continuous there
    engine = simkit._Engine((ServiceSpec("det", 1.0),), 0, (0,), 1.0, 4.0, (False,))
    route = engine.route(1040.0, 0, 1)
    for _ in range(2):
        engine.enqueue(0.0, 0, (True, lambda t, src, payload: None, 0, None, route))
    engine.run()
    assert engine.window_backlogs() == (1 / 3,)


def test_segment_exit_takes_its_order_on_entry():
    # a two-hop det segment entered at t=0 exits at t=2; the exit event was
    # pushed at entry, so it runs before a handler pushed at t=0.5 for t=2
    seen = []
    engine = simkit._Engine((ServiceSpec("det", 1.0),) * 2, 0, (0,), 0.0, 4.0, (False, False))
    route = engine.route(1040.0, 0, 2)
    engine.enqueue(0.0, 0, (True, lambda t, src, payload: seen.append(("exit", t)), 0, None, route))
    engine.push(0.5, lambda t, a, b: engine.push(2.0, lambda t, a, b: seen.append(("handler", t))))
    engine.run()
    assert seen == [("exit", 2.0), ("handler", 2.0)]


def test_segment_walk_matches_lindley_per_hop_across_sizes():
    # link 8000 b/s serves 1000 B in 1 s and 500 B in 0.5 s, so a 500 B
    # packet that reused the 1000 B service times would leave late; the exp
    # node must draw once per visit, in visit order, from its own substream
    specs = (ServiceSpec("link", 8000.0), ServiceSpec("det", 2.0), ServiceSpec("exp", 1.0))
    seed, warmup, duration = 5, 2.0, 14.0
    arrivals = [(0.75 * k, 1000.0 if k % 2 == 0 else 500.0) for k in range(16)]

    exits = []
    engine = simkit._Engine(specs, seed, (0,), warmup, duration, (False,) * len(specs))
    routes = {size: engine.route(size, 0, len(specs)) for _, size in arrivals}
    for k, (t, size) in enumerate(arrivals):
        engine.enqueue(t, 0, (True, lambda t, k, _: exits.append((k, t)), k, None, routes[size]))
    engine.run()

    service = [_service_fn(spec, substream_seed(seed, f"service/{i}")) for i, spec in enumerate(specs)]
    free, area, want = [0.0] * len(specs), [0.0] * len(specs), []
    for k, (t, size) in enumerate(arrivals):
        for j in range(len(specs)):
            leave = free[j] = max(t, free[j]) + service[j](size)
            area[j] += max(0.0, min(leave, duration) - max(t, warmup))
            t = leave
        want.append((k, t))
    assert 0 < len(exits) < len(want)  # the run ends with packets inside
    assert exits == want[: len(exits)]
    assert engine.window_backlogs() == tuple(a / (duration - warmup) for a in area)


def test_an_update_reaches_its_monitor_only_by_the_end_of_the_run():
    # det 1/s forward, 10/s reverse, fixed:0.5 after one probe: nothing
    # queues, so each update reaches the monitor 1 s after it is sent; the
    # probe's ACK, 1.1 s after the start, makes the first send, and the
    # sends follow every 2 s.  The run's last update arrives within the
    # segment walk: at the run's end it is delivered, just after it not.
    net = QueueNetwork(forward=(ServiceSpec("det", 1.0),), reverse=(ServiceSpec("det", 10.0),))
    cfg = SourceConfig(policy="fixed:0.5", probe_count=1, probe_timeout=2.0)
    # the source's start offset, drawn as run_closed_loop draws it
    start = np.random.Generator(np.random.PCG64(substream_seed(0, "start/0"))).random() * cfg.probe_timeout
    sent, t = [start], start + 1.0 + 0.1
    for _ in range(6):
        sent.append(t)
        t += 2.0
    want = [s + 1.0 for s in sent]

    def deliveries(duration):
        monitors = []

        class Recorded(MonitorSession):
            def __init__(self):
                super().__init__()
                monitors.append(self)

        with mock.patch.object(simkit, "MonitorSession", Recorded):
            run_closed_loop(net, cfg, 1, duration=duration, seed=0, warmup_frac=0.0)
        return list(monitors[0].deliver_times)

    last = want[-1]
    assert deliveries(last) == want
    assert deliveries(math.nextafter(last, 0.0)) == want[:-1]


def test_link_service_scales_with_bytes():
    # 1040-byte updates over 1 Mbps: 8.32 ms per hop, deterministic
    net = QueueNetwork(forward=(ServiceSpec("link", 1_000_000.0),))
    m = run_fixed_rate(net, 10.0, "poisson", duration=2000.0, seed=2)
    assert m.avg_system_time >= 0.00832
    assert m.avg_system_time == pytest.approx(0.00832 / (1 - 10 * 0.00832), rel=0.15)


# -- array computation vs the event-driven reference ------------------------------

SERVICES = st.one_of(
    st.builds(ServiceSpec, st.just("exp"), st.floats(0.5, 8.0)),
    st.builds(ServiceSpec, st.just("det"), st.floats(0.5, 8.0)),
    st.builds(ServiceSpec, st.just("link"), st.floats(2e4, 2e5)),  # 1040 B in 0.04..0.4 s
)


def _repeated_chain(draw, max_size: int) -> tuple:
    """Up to ``max_size`` drawn specs, a det or link spec up to three times
    in a row, so that nodes hold no queue (simkit._queue_free)."""
    chain = ()
    for spec in draw(st.lists(SERVICES, min_size=1, max_size=max_size)):
        chain += (spec,) * (1 if spec.kind == "exp" else draw(st.integers(1, 3)))
    return chain


@st.composite
def open_loop_runs(draw):
    # a flow may enter inside a run of nodes that hold no queue
    forward = _repeated_chain(draw, 3)
    flows = st.builds(
        CrossTraffic, st.integers(0, len(forward) - 1), st.floats(500.0, 8000.0), st.integers(64, 1500)
    )
    net = QueueNetwork(forward=forward, cross_traffic=tuple(draw(st.lists(flows, max_size=3))))
    return (
        net,
        draw(st.floats(0.1, 4.0)),
        draw(st.sampled_from(ARRIVAL_KINDS)),
        draw(st.floats(20.0, 200.0)),
        draw(st.integers(0, 2**32)),
        draw(st.sampled_from((0.0, 0.1, 0.5))),
    )


def _assert_same_field(name, got, want, slack=0):
    """``got`` is ``want``: exactly if a bool, an int or None, else to 1e-9
    relative; a nonzero ``slack`` lets a number differ by that much more."""
    if isinstance(want, tuple):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            _assert_same_field(name, g, w, slack)
    elif slack:
        assert math.isinf(slack) or abs(got - want) <= slack + 1e-9 * abs(want), name
    elif isinstance(want, (bool, int)):
        assert got == want, name
    elif want is None:
        assert got is None, name
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=0.0, nan_ok=True), name


def _edge_departures(departures, warmup, duration) -> int:
    """Oracle update departures that round-off may put on the other side of
    an edge in the kernel, moving a count by one: those within the instants'
    relative tolerance of ``warmup`` at the last node (deliveries), or of
    ``duration`` at any node."""

    def near(times, edge):
        return sum(abs(t - edge) <= 1e-9 * t for t in times)

    return near(departures[-1], warmup) + sum(near(times, duration) for times in departures)


def _count_slack(run, got, want, edge_departures: int) -> dict:
    """How far each field counted over the window, or computed from such a
    count, may move when ``edge_departures`` departures change sides: one
    update each, or one stay in [0, duration] each."""
    k, window = edge_departures, want.duration - want.warmup
    fewest = min(got.delivered, want.delivered)
    return {
        "delivered": k,
        "node_departs": k,
        "throughput_updates": k / window,
        "throughput_bps": k * 8.0 * run[0].update_bytes / window,
        "node_time_in_system_sum": k * want.duration,
        # a mean over n stays moves by at most one stay over n per change
        "avg_system_time": k * want.duration / fewest if fewest else math.inf,
    }


@settings(max_examples=60, deadline=None)
@given(open_loop_runs())
# the kernel puts a departure at exactly the warm-up end, 10.0, and the
# oracle at 9.999999999999998: 16 deliveries in the window against 15
@example((QueueNetwork(forward=(ServiceSpec("det", 1.5),)), 1.5, "periodic", 20.0, 0, 0.5))
# net_a's forward chain: six identical links behind a cross flow at node 0
@example((QueueNetwork.from_dict(load_config("net_a")[0]["net"]), 80.0, "poisson", 20.0, 1, 0.1))
def test_open_loop_matches_event_reference(run):
    got, gen, dlv, _ = simkit._open_loop(*run)
    want, want_gen, want_dlv, departures = open_loop_events(*run)
    k = _edge_departures(departures, want.warmup, want.duration)
    slack = _count_slack(run, got, want, k) if k else {}
    for name in AoiMetrics._fields:
        _assert_same_field(name, getattr(got, name), getattr(want, name), slack.get(name, 0))
    # a departure at the run's end may likewise leave or stay in the kernel
    assert abs(len(gen) - len(want_gen)) <= k
    n = min(len(gen), len(want_gen))
    assert np.array_equal(gen[:n], want_gen[:n])
    assert dlv[:n] == pytest.approx(want_dlv[:n], rel=1e-9, abs=0.0)


def _service_times(spec, count, sizes, seed):
    """Service time of each of ``count`` packets in a new array, as the open
    loop drew them over whole arrays: one ``exp`` draw each from the node's
    substream, in service order; ``sizes`` is one size for all or an array."""
    if spec.kind == "exp":
        service = np.empty(count)
        np.random.Generator(np.random.PCG64(seed)).standard_exponential(out=service)
        service /= spec.rate
        return service
    service = simkit._fixed_service(spec, sizes)
    return service if isinstance(service, np.ndarray) else np.full(count, service)


def _fcfs_whole_arrays(arrive, service):
    """Lindley's recursion in closed form over whole arrays, as the open loop
    applied it before it worked one block at a time."""
    served = np.cumsum(service)
    np.subtract(served, service, out=service)
    np.subtract(arrive, service, out=service)
    np.fmax.accumulate(service, out=service)
    return np.add(served, service, out=served)


BLOCK_EDGES = [simkit._BLOCK - 1, simkit._BLOCK, simkit._BLOCK + 1, 3 * simkit._BLOCK + 7]


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("spec", [ServiceSpec("exp", 1.0), ServiceSpec("det", 1.0), ServiceSpec("link", 8320.0)])
@pytest.mark.parametrize("mixed", [False, True])
def test_node_blocks_equal_the_whole_array_kernel(n, spec, mixed):
    # Poisson arrivals at 0.97 of the node's rate, 1040-byte packets at the
    # rate's 1 s per packet or of three sizes about that mean: busy periods
    # run across block edges, where each departure hangs on the carried sum
    # and max, and must be the whole-array float bit for bit
    rng = np.random.Generator(np.random.PCG64(n))
    arrive = np.cumsum(rng.standard_exponential(n) / 0.97)
    sizes = rng.choice([540.0, 1040.0, 1540.0], n) if mixed else 1040.0
    seed = substream_seed(n, "node")
    got = simkit._fcfs_node(spec, arrive, sizes, seed)
    assert np.array_equal(got, _fcfs_whole_arrays(arrive, _service_times(spec, n, sizes, seed)))
    waits = got[:-1] > arrive[1:]  # packets that find the server busy
    assert all(waits[k - 1] for k in range(simkit._BLOCK, n, simkit._BLOCK))


def _clipped_age_areas_reference(gen, dlv, lo, hi):
    """``clipped_age_areas``'s areas as it built them over whole arrays,
    with its checks left out."""
    lo = max(lo, float(dlv[0]))
    seg_start = np.clip(dlv, lo, hi)
    seg_end = np.empty_like(seg_start)
    seg_end[:-1] = dlv[1:]
    seg_end[-1] = hi
    np.clip(seg_end, lo, hi, out=seg_end)
    width = seg_end - seg_start
    mid = np.add(seg_start, seg_end, out=seg_end)
    mid *= 0.5
    mid -= gen
    width *= mid
    return width, lo


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_clipped_age_areas_blocks_equal_the_whole_array_body(n):
    # windows that open before the first delivery, at a delivery and between
    # two, and close inside the run, at its last delivery and past it
    rng = np.random.Generator(np.random.PCG64(n))
    gen = np.cumsum(rng.standard_exponential(n))
    dlv = gen + rng.standard_exponential(n)
    dlv = np.maximum.accumulate(dlv)
    for lo, hi in [(0.0, dlv[-1] + 5.0), (dlv[7], dlv[-1]), (dlv[20] + 0.25, dlv[n // 2] + 0.5), (-1.0, dlv[-3])]:
        areas, start = clipped_age_areas(gen, dlv, float(lo), float(hi))
        want, want_start = _clipped_age_areas_reference(gen, dlv, float(lo), float(hi))
        assert start == want_start
        assert np.array_equal(areas, want)


def _open_loop_per_node(net, lam, arrival, duration, seed):
    """The open loop's deliveries, node_departs and node_time_in_system_sum,
    with every packet's update flag carried along to the end of the chain,
    arrivals plus service times at each node ``_queue_free`` marks, and a new
    cumsum of the service times at every other node."""
    free = simkit._queue_free(net.forward, net.update_bytes, net.cross_traffic)
    arrivals_seed = substream_seed(seed, "arrivals") if arrival == "poisson" else None
    arrive = simkit._renewal_times(lam, duration, arrivals_seed)
    sizes, is_update = np.full(len(arrive), float(net.update_bytes)), np.ones(len(arrive), dtype=bool)
    departs, time_sums = [], []
    for i, spec in enumerate(net.forward):
        for k, flow in enumerate(net.cross_traffic):
            if flow.entry == i:
                times = simkit._renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{k}"))[1:]
                order = np.argsort(np.concatenate([arrive, times]), kind="stable")
                arrive = np.concatenate([arrive, times])[order]
                sizes = np.concatenate([sizes, np.full(len(times), float(flow.packet_bytes))])[order]
                is_update = np.concatenate([is_update, np.zeros(len(times), dtype=bool)])[order]
        service_seed = substream_seed(substream_seed(seed, "fwd"), f"service/{i}")
        service = _service_times(spec, len(arrive), sizes, service_seed)
        if free[i]:
            leave = arrive + service
        else:
            served = np.cumsum(service)
            leave = served + np.fmax.accumulate(arrive - (served - service))
        upd_in, upd_out = arrive[is_update], leave[is_update]
        left = int(np.sum(upd_out <= duration))
        departs.append(left)
        time_sums.append(float(np.sum(upd_out[:left] - upd_in[:left])))
        out = leave <= duration
        arrive, sizes, is_update = leave[out], sizes[out], is_update[out]
    return arrive[is_update], tuple(departs), tuple(time_sums)


def _assert_matches_per_node(net, lam, duration):
    got, _, dlv, _ = simkit._open_loop(net, lam, "poisson", duration, 7, 0.1)
    want_dlv, departs, time_sums = _open_loop_per_node(net, lam, "poisson", duration, 7)
    assert got.node_departs[-1] > 1000  # queues form and most updates arrive
    assert dlv.tobytes() == want_dlv.tobytes()
    assert got.node_departs == departs
    assert got.node_time_in_system_sum == time_sums


@pytest.mark.parametrize("spec, lam", [(ServiceSpec("det", 2.0), 1.2), (ServiceSpec("link", 1e6), 70.0)])
@pytest.mark.parametrize("entries", [(), (0,), (2,), (0, 3, 3)])
def test_open_loop_matches_per_node_rule_exactly(spec, lam, entries):
    # identical nodes: one that no flow enters holds no queue unless its
    # packets differ in size (a link behind a mixed flow); the open loop
    # runs the updates alone past the last node that can queue, and must
    # match a reference that carries every packet through every node
    rate_bps = 8.0 * 1040 * 0.15 * spec.effective_rate(1040)
    flows = tuple(CrossTraffic(entry=e, rate_bps=rate_bps, packet_bytes=1040 - 100 * k) for k, e in enumerate(entries))
    net = QueueNetwork(forward=(spec,) * 5, cross_traffic=flows)
    assert any(simkit._queue_free(net.forward, net.update_bytes, net.cross_traffic))
    _assert_matches_per_node(net, lam, 2000.0 / lam)


@pytest.mark.parametrize(
    "sizes, free",
    [
        # net_b: links at 1, 1, 5, 5, 1, 1 Mb/s; nodes 1-3 and 5 are delays
        ((1040,), (False, True, True, True, False, True)),
        # a second flow of smaller packets: only node 2, whose slowest packet
        # is faster than node 1's fastest, is a delay, with a service array
        ((1040, 840), (False, False, True, False, False, False)),
    ],
)
def test_open_loop_matches_per_node_rule_ahead_of_a_queue(sizes, free):
    doc = load_config("net_b")[0]["net"]
    net = QueueNetwork.from_dict(doc)._replace(
        cross_traffic=tuple(CrossTraffic(entry=0, rate_bps=100_000, packet_bytes=size) for size in sizes)
    )
    assert simkit._queue_free(net.forward, net.update_bytes, net.cross_traffic) == free
    _assert_matches_per_node(net, 70.0, 30.0)


def _fcfs_waits(net, lam, duration, seed):
    """Per forward node, how many packets arrive there and how many of them
    while the server is busy, by the FCFS recursion run one packet at a time
    in built-in floats."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrive = [(float(t), float(net.update_bytes)) for t in np.cumsum(rng.exponential(1.0 / lam, int(lam * duration)))]
    waits = []
    for i, spec in enumerate(net.forward):
        for flow in net.cross_traffic:
            if flow.entry == i:
                times = np.cumsum(rng.exponential(1.0 / flow.rate_pps, int(flow.rate_pps * duration) + 1))
                # sorted() is stable: through traffic stays ahead at equal instants
                arrive = sorted(arrive + [(float(t), float(flow.packet_bytes)) for t in times], key=lambda p: p[0])
        busy, waited, leave = -math.inf, 0, []
        for t, size in arrive:
            serve = float(rng.exponential(1.0 / spec.rate)) if spec.kind == "exp" else simkit._fixed_service(spec, size)
            waited += t < busy
            busy = max(t, busy) + serve
            leave.append((busy, size))
        waits.append((len(arrive), waited))
        arrive = leave
    return waits


# packets of 1040 B per second at a node: powers of two give service times
# that are exact doubles on both kinds, ties between nodes and, with smaller
# packets, links that are at least as fast as the node before for every size
SPEEDS = st.sampled_from([64.0, 128.0, 256.0, 512.0]) | st.floats(50.0, 600.0)


@st.composite
def det_link_chains(draw):
    forward = tuple(
        ServiceSpec(kind, speed * (8320.0 if kind == "link" else 1.0))
        for kind, speed in draw(st.lists(st.tuples(st.sampled_from(SERVICE_KINDS), SPEEDS), min_size=1, max_size=5))
    )
    sizes = st.sampled_from([520, 840, 1040])
    flows = st.builds(CrossTraffic, st.integers(0, len(forward) - 1), st.floats(4e4, 4e5), sizes)
    net = QueueNetwork(forward=forward, cross_traffic=tuple(draw(st.lists(flows, max_size=2))), update_bytes=draw(sizes))
    return net, draw(st.floats(10.0, 60.0)), draw(st.integers(0, 2**32))


def _mixed_pair(rate_bps):
    return QueueNetwork(
        forward=(ServiceSpec("link", 8320.0 * 64), ServiceSpec("link", rate_bps)),
        cross_traffic=(CrossTraffic(entry=0, rate_bps=3e5, packet_bytes=520),),
    )


def test_queue_free_rule_is_exact_for_the_fcfs_recursion():
    # no packet ever waits at a node the rule marks, and some wait elsewhere
    marked_arrivals, waits_elsewhere = 0, 0

    @settings(max_examples=120, deadline=None, database=None)
    @given(det_link_chains())
    # 520-byte packets take as long at node 0 as 1040-byte ones at node 1,
    # a tie over two sizes; then a node 1 slower than that, where a 520-byte
    # packet that follows a 1040-byte one there waits
    @example((_mixed_pair(8320.0 * 128), 40.0, 0))
    @example((_mixed_pair(8320.0 * 100), 40.0, 0))
    def check(case):
        net, lam, seed = case
        free = simkit._queue_free(net.forward, net.update_bytes, net.cross_traffic)
        assert not any(f and spec.kind == "exp" for f, spec in zip(free, net.forward))
        nonlocal marked_arrivals, waits_elsewhere
        for marked, (arrivals, waits) in zip(free, _fcfs_waits(net, lam, 2.0, seed)):
            if marked:
                assert waits == 0
                marked_arrivals += arrivals
            else:
                waits_elsewhere += waits

    check()
    assert marked_arrivals > 0 and waits_elsewhere > 0


@pytest.mark.parametrize("rates", [(128.0,) * 3, (128.0, 256.0, 128.0)])
@pytest.mark.parametrize("entries", [(), (0, 2)])
def test_one_size_link_chain_is_the_det_chain(rates, entries):
    # 1040-byte packets over 8320 * r b/s take 8320 / (8320 * r) = 1 / r s, the
    # det node's 1.0 / r as the same double when r is a power of two: every
    # result of the two chains must be equal bit for bit
    flows = tuple(CrossTraffic(entry=e, rate_bps=8320.0 * 20, packet_bytes=1040) for e in entries)
    det = QueueNetwork(forward=tuple(ServiceSpec("det", r) for r in rates), cross_traffic=flows)
    link = QueueNetwork(forward=tuple(ServiceSpec("link", 8320.0 * r) for r in rates), cross_traffic=flows)
    got, want = run_fixed_rate(link, 60.0, duration=200.0, seed=3), run_fixed_rate(det, 60.0, duration=200.0, seed=3)
    assert got.delivered > 0 and repr(got) == repr(want)
    grid = [20.0, 60.0, 100.0]
    assert repr(sweep_lambda(link, grid, duration=100.0, seed=3)) == repr(sweep_lambda(det, grid, duration=100.0, seed=3))


# -- sweeps ----------------------------------------------------------------------


def test_open_loop_peak_memory_per_update():
    # at its peak the open loop holds three float arrays of the updates'
    # length: generation instants, a node's arrivals and its departures (node
    # 0's figures take a new scratch array in place of its arrivals, which are
    # the generation instants), or the generation and delivery instants and
    # clipped_age_areas's areas; the service times and the temporaries are
    # blocks of a fixed length (about 26 B per update here).  While whole
    # arrays held the service times and clipped_age_areas's temporaries, it
    # held five (40 B), and before its buffers were reused about 14 (117 B)
    lam, duration = 0.5, 2.5e5
    run_fixed_rate(TANDEM, lam, duration=1000.0, seed=1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        run_fixed_rate(TANDEM, lam, duration=duration, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (lam * duration) <= 32.0


def test_open_loop_peak_memory_per_update_with_cross_traffic():
    # once cross traffic enters, the open loop also holds the updates' int64
    # positions among the merged packets (8 B per update), and their sizes
    # only if they differ; a cross flow's instants are dropped once merged.
    # On the net_a forward chain, whose packets have one size and whose nodes
    # past the first hold no queue, node 0's figures are the peak: the
    # generation instants, the merged arrivals and departures, the updates'
    # positions and their departures, about 45 B per update (58 B while whole
    # arrays held the service times, 70 B while a merge's sort order lived on
    # through the node, 88 B while every node ran the recursion on the merged
    # packets)
    net = QueueNetwork(
        forward=(ServiceSpec("link", 1e6),) * 6,
        cross_traffic=(CrossTraffic(entry=0, rate_bps=200_000, packet_bytes=1040),),
    )
    lam, duration = 80.0, 3000.0
    run_fixed_rate(net, lam, duration=30.0, seed=1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        run_fixed_rate(net, lam, duration=duration, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (lam * duration) <= 56.0


def test_closed_loop_peak_memory_per_fresh_ack():
    # each monitor keeps an accepted update in three typed columns, 24 B,
    # each source a closed epoch in typed columns, about 56 B, and each cross
    # flow an instant in an array, 8 B; with a dict per update the run held
    # about 336 B per fresh ACK, with a dict per epoch about 91 B, and about
    # 48 B with neither
    net = QueueNetwork.from_dict(load_config("net_a")[0]["net"])
    run_closed_loop(net, "acp_plus", 6, duration=10.0, seed=1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        result = run_closed_loop(net, "acp_plus", 6, duration=60.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(s.fresh_acks for s in result.sources) <= 64.0


def test_open_loop_results_are_builtin_with_cross_traffic():
    # searchsorted and numpy reductions return numpy scalars; none may reach
    # a result, whether or not a node serves cross traffic
    net = QueueNetwork(
        forward=(ServiceSpec("exp", 150.0), ServiceSpec("link", 1e6), ServiceSpec("det", 200.0)),
        cross_traffic=(CrossTraffic(entry=1, rate_bps=200_000, packet_bytes=1040),),
    )
    kinds = {"float": float, "int": int, "bool": bool, "tuple[float, ...]": float, "tuple[int, ...]": int}
    m = run_fixed_rate(net, 40.0, duration=200.0, seed=1)
    for name, hint in AoiMetrics.__annotations__.items():
        hint = hint.__forward_arg__  # a ForwardRef: simkit has postponed annotations
        items = getattr(m, name) if hint.startswith("tuple") else (getattr(m, name),)
        assert len(items) == (3 if hint.startswith("tuple") else 1)
        assert {type(x) for x in items} == {kinds[hint]}, name
    sweep = sweep_lambda(net, [20.0, 40.0, 60.0], duration=200.0, seed=1)
    assert {type(x) for row in sweep.rows for x in row} == {float}
    assert type(sweep.best_lambda) is float and type(sweep.best_age) is float


def test_sweep_deterministic_and_bowl_shaped():
    grid = [round(0.1 + 0.1 * k, 3) for k in range(9)]
    a = sweep_lambda(MM1, grid, duration=40_000.0, seed=31)
    b = sweep_lambda(MM1, grid, duration=40_000.0, seed=31)
    assert a == b
    ages = [row[1] for row in a.rows]
    assert ages[0] >= 1.5 * a.best_age
    assert ages[-1] >= 1.5 * a.best_age
    assert 0.3 <= a.best_lambda <= 0.7
    assert all(ci > 0 or math.isnan(ci) for _, _, ci in a.rows)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep_lambda(MM1, [], duration=100.0)



def test_sweep_best_point_skips_undefined_ages():
    # at 0.01 updates/s the one server (mean service 50 s) delivers nothing
    # in the 45 s window, so that point's age is NaN and must not win
    net = QueueNetwork(forward=(ServiceSpec("exp", 0.02),))
    res = sweep_lambda(net, [0.01, 0.02, 0.03], duration=50.0, seed=0)
    ages = [row[1] for row in res.rows]
    assert math.isnan(ages[0]) and not any(math.isnan(a) for a in ages[1:])
    assert (res.best_lambda, res.best_age) == (0.03, min(ages[1:]))
    # a 100 s service leaves every point of a 50 s run without an age
    none = sweep_lambda(QueueNetwork(forward=(ServiceSpec("det", 0.01),)), [0.01, 0.02], duration=50.0, seed=0)
    assert all(math.isnan(row[1]) for row in none.rows)
    assert math.isnan(none.best_lambda) and math.isnan(none.best_age)


def test_window_ages_match_whole_array_calls():
    # each batch-means window reads only the resets around it, which moves
    # its sum at round-off only; cross traffic enters at two nodes
    net = QueueNetwork(
        forward=(ServiceSpec("exp", 3.0), ServiceSpec("link", 40_000.0), ServiceSpec("det", 4.0)),
        cross_traffic=(
            CrossTraffic(entry=1, rate_bps=4000.0, packet_bytes=500),
            CrossTraffic(entry=2, rate_bps=3000.0, packet_bytes=200),
        ),
    )
    duration = 200.0
    _, gen, dlv, areas = simkit._open_loop(net, 1.0, "poisson", duration, 1, 0.0)
    # a window strictly inside the widest gap between two resets holds none
    gap = int(np.argmax(np.diff(dlv)))
    quiet = dlv[gap] + np.array([0.25, 0.75]) * (dlv[gap + 1] - dlv[gap])
    edges = np.sort(np.concatenate([np.linspace(0.0, duration, 11), quiet]))
    assert edges[0] < dlv[0]  # the first window opens before the first delivery
    got = simkit._window_ages(gen, dlv, areas, edges)
    want = [age_time_average(gen, dlv, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert not any(math.isnan(w) for w in want)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

@st.composite
def reset_windows(draw):
    """Resets and window edges: edges fall anywhere, on delivery instants,
    before the first delivery and inside gaps, some of them twice."""
    dlv = np.cumsum(draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40)))
    gen = dlv - draw(st.lists(st.floats(0.0, 3.0), min_size=len(dlv), max_size=len(dlv)))
    edge = st.one_of(st.floats(-1.0, float(dlv[-1]) + 2.0), st.sampled_from(dlv.tolist()))
    return gen, dlv, np.sort(draw(st.lists(edge, min_size=2, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(reset_windows())
# resets at 1, 2, 4 and 8 and windows [0, 2] (opens before the first
# delivery, closes on one), [2, 2.5], [2.5, 3] (empty, inside a gap),
# [3, 4.5] (one reset) and [4.5, 9]
@example((np.array([0.5, 1.5, 3.0, 7.5]), np.array([1.0, 2.0, 4.0, 8.0]), np.array([0.0, 2.0, 2.5, 3.0, 4.5, 9.0])))
def test_window_ages_equal_the_calls_on_their_resets(windows):
    gen, dlv, edges = windows
    cut = np.searchsorted(dlv, edges, side="right")
    want = [
        age_time_average(gen[max(i - 1, 0) : j], dlv[max(i - 1, 0) : j], lo, hi)
        for i, j, lo, hi in zip(cut, cut[1:], edges, edges[1:])
    ]
    areas, _ = clipped_age_areas(gen, dlv, edges[0], edges[-1])
    # bit for bit, NaN included
    assert [float(x).hex() for x in simkit._window_ages(gen, dlv, areas, edges)] == [float(x).hex() for x in want]


def _window_ages_reference(gen, dlv, edges):
    """The batch-means windows' ages as they were computed before the
    windows summed the run's clipped areas in place: the areas of the whole
    run computed apart, and each window copied into an array of its own."""
    areas = age_areas(gen[:-1], dlv[:-1], dlv[1:])
    cut = np.searchsorted(dlv, edges, side="right").tolist()
    ages = []
    for i, j, lo, hi in zip(cut, cut[1:], edges.tolist(), edges[1:].tolist()):
        a = max(i - 1, 0)
        lo = max(lo, float(dlv[a])) if j > a else hi
        if hi <= lo:
            ages.append(math.nan)
            continue
        window = np.empty(j - a)
        window[:-1] = areas[a : j - 1]
        window[-1] = age_areas(gen[j - 1], dlv[j - 1], hi)
        window[0] = age_areas(gen[a], lo, dlv[a + 1] if j - a > 1 else hi)
        ages.append(float(window.sum()) / (hi - lo))
    return ages


# an exp, a link and a det node, with cross traffic of two sizes entering at two nodes
CROSS_AT_TWO_NODES = QueueNetwork(
    forward=(ServiceSpec("exp", 3.0), ServiceSpec("link", 40_000.0), ServiceSpec("det", 4.0)),
    cross_traffic=(
        CrossTraffic(entry=1, rate_bps=4000.0, packet_bytes=500),
        CrossTraffic(entry=2, rate_bps=3000.0, packet_bytes=200),
    ),
)


@pytest.mark.parametrize("name", ["mm1", "tandem", "net_a", "net_b", "net_c", "net_d", "net_e", "cross_at_two_nodes"])
def test_sweep_points_equal_their_runs_bit_for_bit(name):
    # each point's age is its run's, and its half-width the one the reference
    # windows give on that run's instants; the grid runs from a few updates
    # in the whole run to past the capacity
    net = CROSS_AT_TWO_NODES if name == "cross_at_two_nodes" else QueueNetwork.from_dict(load_config(name)[0]["net"])
    capacity = simkit._open_plan(net)[2]
    grid = [capacity * f for f in (0.002, 0.1, 0.5, 0.9, 1.2)]
    duration, seed = 2000.0 / capacity, 5
    rows = sweep_lambda(net, grid, duration, seed=seed).rows
    for idx, (lam, age, half) in enumerate(rows):
        point_seed = substream_seed(seed, f"sweep/{idx}")
        assert repr(age) == repr(run_fixed_rate(net, lam, duration=duration, seed=point_seed).avg_age)
        metrics, gen, dlv, _ = simkit._open_loop(net, lam, "poisson", duration, point_seed, simkit.DEFAULT_WARMUP_FRAC)
        edges = np.linspace(metrics.warmup, duration, simkit._SWEEP_BATCHES + 1)
        means = [m for m in _window_ages_reference(gen, dlv, edges) if not math.isnan(m)]
        want = 1.96 * float(np.std(means, ddof=1)) / math.sqrt(len(means)) if len(means) >= 2 else math.nan
        assert repr(half) == repr(want), idx


def test_sweep_peak_memory_is_its_top_point():
    # a point's instants and areas are freed before the next point allocates,
    # so a sweep over a rising grid holds no more at its peak than its top
    # point alone, beside its rows and the interpreter's own caches (1-3 kB
    # here); periodic updates through det nodes make the top point the same
    # run at any seed.  While each point's arrays lived on through the next
    # point's run, the sweep held 1.4 MB more here, the previous point's
    # instants
    net = QueueNetwork(forward=(ServiceSpec("det", 100.0), ServiceSpec("det", 50.0)))
    grid, duration = [10.0, 20.0, 30.0, 40.0], 3000.0
    sweep_lambda(net, grid, duration=duration, arrival="periodic")  # imports and caches outside the trace

    def peak(rates):
        tracemalloc.start()
        try:
            sweep_lambda(net, rates, duration=duration, arrival="periodic")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(grid[-1:])
    assert peak(grid) <= alone + 16_384


def test_sweep_tandem_argmin_near_analytic():
    lam_star, _ = analytics.optimal_lambda(lambda l: analytics.aoi_tandem(l, 1.0, 1.0), 0.05, 0.95)
    grid = [round(0.30 + 0.025 * k, 4) for k in range(13)]  # 0.30 .. 0.60
    res = sweep_lambda(TANDEM, grid, duration=3e5, seed=909)
    assert abs(res.best_lambda - lam_star) <= 0.05


# -- closed loop ------------------------------------------------------------------


CL_TANDEM = QueueNetwork(
    forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 1.0)),
    reverse=(ServiceSpec("exp", 16.25), ServiceSpec("exp", 16.25)),
)
MM1_CL = QueueNetwork(forward=(ServiceSpec("exp", 1.0),), reverse=(ServiceSpec("exp", 10.0),))


def test_closed_loop_needs_reverse_chain():
    with pytest.raises(ConfigError):
        run_closed_loop(TANDEM, "acp_plus", 1, duration=100.0, seed=0)


@pytest.mark.parametrize("n_sources", [0, True, 1.5, "2"])
def test_closed_loop_rejects_bad_n_sources(n_sources):
    with pytest.raises(ConfigError, match="n_sources"):
        run_closed_loop(CL_TANDEM, "acp_plus", n_sources, duration=60.0, seed=0)


def test_closed_loop_rejects_an_update_bytes_it_would_ignore():
    # the updates are frames of the header plus payload_size bytes; a net's
    # update_bytes of another size used to run, silently ignored
    link = (ServiceSpec("link", 1e6),)
    net = QueueNetwork(forward=link, reverse=link)
    with pytest.raises(ConfigError, match="payload_size"):
        run_closed_loop(net._replace(update_bytes=60000), "acp_plus", 1, duration=30.0, seed=1)
    # the frames' own size passes, and so does the default, which cannot be
    # told apart from an explicit 1040
    cfg = SourceConfig(payload_size=500)
    assert net.update_bytes == DEFAULT_UPDATE_BYTES
    want = run_closed_loop(net, cfg, 1, duration=30.0, seed=1)
    got = run_closed_loop(net._replace(update_bytes=516), cfg, 1, duration=30.0, seed=1)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("warmup_frac", [1.5, 1.0, -0.5, math.nan, "0.1", False])
def test_warmup_frac_outside_unit_interval_rejected(warmup_frac):
    with pytest.raises(ConfigError, match="warmup_frac"):
        run_closed_loop(CL_TANDEM, "acp_plus", 1, duration=60.0, seed=0, warmup_frac=warmup_frac)
    with pytest.raises(ConfigError, match="warmup_frac"):
        run_fixed_rate(MM1, 0.5, duration=60.0, warmup_frac=warmup_frac)


def test_closed_loop_deterministic():
    a = run_closed_loop(CL_TANDEM, "acp_plus", 2, duration=500.0, seed=5)
    b = run_closed_loop(CL_TANDEM, "acp_plus", 2, duration=500.0, seed=5)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_closed_loop_takes_a_policy_name_or_its_source_config():
    by_name = run_closed_loop(CL_TANDEM, "lazy", 2, duration=200.0, seed=3)
    by_config = run_closed_loop(CL_TANDEM, SourceConfig(policy="lazy"), 2, duration=200.0, seed=3)
    assert by_name.to_dict() == by_config.to_dict()


@pytest.mark.parametrize("source", [None, 1, ("lazy",), {"policy": "lazy"}])
def test_closed_loop_rejects_a_source_that_is_neither(source):
    with pytest.raises(ConfigError, match="source"):
        run_closed_loop(CL_TANDEM, source, 1, duration=60.0, seed=0)


def test_closed_loop_lazy_backlog_target():
    # the lazy policy aims at one update in flight per smoothed RTT
    values = []
    for seed in range(1, 6):
        r = run_closed_loop(CL_TANDEM, "lazy", 1, duration=10_000.0, seed=seed)
        values.append(r.sources[0].est_avg_backlog)
    assert 0.8 <= statistics.mean(values) <= 1.2


def test_closed_loop_fixed_policy_rate():
    cfg_rate = 0.3
    r = run_closed_loop(CL_TANDEM, f"fixed:{cfg_rate}", 1, duration=4000.0, seed=2)
    s = r.sources[0]
    assert s.mean_rate == pytest.approx(cfg_rate, rel=1e-9)
    assert s.throughput_updates == pytest.approx(cfg_rate, rel=0.05)
    # estimated age must exceed the true monitor age (ACK return delay)
    assert s.est_avg_age > s.true_avg_age


def test_closed_loop_acp_runs_epochs():
    r = run_closed_loop(CL_TANDEM, "acp_plus", 1, duration=3000.0, seed=8)
    s = r.sources[0]
    assert s.epochs > 50
    assert s.lambda_final is not None and s.lambda_final > 0
    assert s.fresh_acks > 0
    assert all(b >= 0 for b in r.forward_backlogs)


def test_closed_loop_lambda_final_once_sends_began():
    # the source sends at its fixed rate but closes no epoch in 20 s: the
    # closed loop reports the rate in force, as the session's summary does
    net = QueueNetwork(forward=(ServiceSpec("det", 1.0),), reverse=(ServiceSpec("det", 10.0),))
    sessions = []

    def make_session(cfg):
        sessions.append(SourceSession(cfg))
        return sessions[-1]

    with mock.patch.object(simkit, "SourceSession", make_session):
        s = run_closed_loop(net, "fixed:0.5", 1, duration=20.0, seed=0).sources[0]
    assert (s.epochs, sessions[0].sends) == (0, 15)
    assert s.lambda_final == sessions[0].summary()["lambda_final"] == 0.5


# one exp server, mu = 1, behind which ACKs return almost at once: the D/M/1
# optimum is the least age that paced updates reach on it
DM1_NET = QueueNetwork(forward=(ServiceSpec("exp", 1.0),), reverse=(ServiceSpec("det", 1000.0),))


def test_acp_plus_true_age_against_the_dm1_optimum():
    # a characterisation, not a target: it records how far ACP+ sits from the
    # optimum now, so that a change to the protocol shows as a move of the
    # gap.  Over seeds 0-255 (1e5 s each) the median true age was 2.157x the
    # optimum and the median mean rate 0.3485x the optimal rate; the median
    # of 16 seeds spread with sd 0.073 and 0.0097, and each band is 4 of them
    lam_opt, age_opt = analytics.optimal_lambda(lambda lam: analytics.aoi_dm1(lam, 1.0), 0.05, 0.95)
    assert (lam_opt, age_opt) == pytest.approx((0.517, 2.253), abs=1e-3)
    runs = [run_closed_loop(DM1_NET, "acp_plus", 1, duration=1e5, seed=seed).sources[0] for seed in range(16)]
    age_ratio = statistics.median(s.true_avg_age for s in runs) / age_opt
    rate_ratio = statistics.median(s.mean_rate for s in runs) / lam_opt
    assert abs(age_ratio - 2.157) <= 4 * 0.073, age_ratio
    assert abs(rate_ratio - 0.3485) <= 4 * 0.0097, rate_ratio


def test_closed_loop_source_isolation():
    # sources are independent connections: their per-source metrics exist
    r = run_closed_loop(CL_TANDEM, "acp_plus", 3, duration=2000.0, seed=4)
    assert len(r.sources) == 3
    assert all(s.delivered > 0 for s in r.sources)
    assert r.fairness_true_age is not None


SOURCE_POLICIES = st.one_of(
    st.sampled_from(("lazy", "acp_plus")), st.builds("fixed:{}".format, st.floats(0.1, 4.0))
)


@st.composite
def closed_loop_runs(draw, policies=SOURCE_POLICIES, repeats=False):
    """``run_closed_loop``'s arguments; with ``repeats``, chains drawn as
    ``open_loop_runs`` draws them and a ``SourceConfig`` with a drawn payload
    size as the source, so that the updates' frames need not have a cross
    flow's size."""
    if repeats:
        forward, reverse = _repeated_chain(draw, 3), _repeated_chain(draw, 2)
    else:
        forward = tuple(draw(st.lists(SERVICES, min_size=1, max_size=3)))
        reverse = tuple(draw(st.lists(SERVICES, min_size=1, max_size=2)))
    flows = st.builds(
        CrossTraffic, st.integers(0, len(forward) - 1), st.floats(500.0, 8000.0), st.integers(64, 1500)
    )
    net = QueueNetwork(forward=forward, reverse=reverse, cross_traffic=tuple(draw(st.lists(flows, max_size=3))))
    policy = draw(policies)
    rest = (
        draw(st.integers(1, 3)),
        draw(st.floats(20.0, 200.0)),
        draw(st.integers(0, 2**32)),
        draw(st.sampled_from((0.0, 0.1))),
    )
    source = SourceConfig(policy=policy, payload_size=draw(st.integers(0, 2000))) if repeats else policy
    return (net, source, *rest)


class _TieWatch(HopEngine):
    """``HopEngine`` that notes the instant of every event ``simkit._Engine``
    also runs (source timers, cross-traffic arrivals and segment exits) and
    whether it was a segment exit: a packet leaving the last node of a
    segment for the next head, or an ACK reaching its source.  A packet
    moving on within a segment, or leaving the network otherwise, is no
    event of ``_Engine``'s and is not noted."""

    def __init__(self, specs, seed, heads, warmup, duration, delays):
        super().__init__(specs, seed, heads, warmup, duration, delays)
        self.ran = []
        self._heads = heads

    def push(self, t, handler, a=None, b=None):
        is_exit = False
        if handler == self._complete:
            is_update, arrive, _, _, (_, route_end) = self.queues[a][0]  # the packet node a serves
            if a + 1 < route_end:
                is_exit = a + 1 in self._heads  # into the next segment
            else:
                is_exit = arrive is not None and not is_update  # an ACK reaching its source
            if not is_exit:  # no event of _Engine's
                super().push(t, handler, a, b)
                return

        def noted(t, a, b):
            self.ran.append((t, is_exit))
            handler(t, a, b)

        super().push(t, noted, a, b)

    def exit_tied(self) -> bool:
        """Whether an exit ran at the same instant as another event."""
        count = Counter(t for t, _ in self.ran)
        return any(is_exit and count[t] > 1 for t, is_exit in self.ran)


def _closed_loop_outcome(run, engine_cls):
    made = []

    def make(*args):
        made.append(engine_cls(*args))
        return made[-1]

    with mock.patch.object(simkit, "_Engine", make):
        try:
            return run_closed_loop(*run), made[0]
        except InitializationError as err:  # slow paths may time out every probe
            return repr(err), made[0]


# one size (the updates') enters at two heads, node 0 and node 2, and two
# sizes enter node 2, so a walk cached by size alone or by head alone goes
# wrong; cross traffic through the nodes shows backlog area given to it
_TWO_HEAD_NET = QueueNetwork(
    forward=(ServiceSpec("link", 1.0e5), ServiceSpec("link", 1.3e5), ServiceSpec("link", 0.9e5)),
    reverse=(ServiceSpec("link", 0.7e5),),
    cross_traffic=(CrossTraffic(2, 6000.0, 300), CrossTraffic(0, 5000.0, DEFAULT_UPDATE_BYTES)),
)


@settings(max_examples=60, deadline=None)
@given(closed_loop_runs())
@example((_TWO_HEAD_NET, "fixed:2.5", 2, 80.0, 1, 0.1))
@example((_TWO_HEAD_NET, "fixed:2.5", 2, 80.0, 11, 0.1))
def test_closed_loop_matches_hop_by_hop_engine(run):
    want, reference = _closed_loop_outcome(run, _TieWatch)
    # at an instant shared with an exit the two engines break the tie by
    # different rules (test_segment_exit_takes_its_order_on_entry pins ours);
    # the reference says whether the run ties, so a fault in the engine under
    # test that makes a tie fails the comparison instead of skipping it
    assume(not reference.exit_tied())
    got, _ = _closed_loop_outcome(run, simkit._Engine)
    if isinstance(want, str):
        assert got == want
        return
    assert json.dumps(got.to_dict()["sources"]) == json.dumps(want.to_dict()["sources"])
    assert got.forward_backlogs == pytest.approx(want.forward_backlogs, rel=1e-12, abs=0.0)


def test_a_route_over_two_segments_matches_lindley_per_hop():
    # the closed loop's heads on _TWO_HEAD_NET's forward chain are nodes 0 and
    # 2, so an update's route takes two walks with an exit event between
    # them; a 300 B packet that reused the 1,040 B walks would leave late
    specs = _TWO_HEAD_NET.forward
    seed, warmup, duration = 3, 0.3, 2.0
    arrivals = [(0.03 * k, 300.0 if k % 3 == 0 else 1040.0) for k in range(40)]

    exits = []
    engine = simkit._Engine(specs, seed, (0, 2), warmup, duration, (False,) * len(specs))
    routes = {size: engine.route(size, 0, len(specs)) for _, size in arrivals}
    assert [hop and hop[1:] for hop in routes[1040.0]] == [(2, True), None, (3, False)]
    for k, (t, size) in enumerate(arrivals):
        engine.enqueue(t, 0, (True, lambda t, k, _: exits.append((k, t)), k, None, routes[size]))
    engine.run()

    service = [_service_fn(spec, substream_seed(seed, f"service/{i}")) for i, spec in enumerate(specs)]
    free, area, want = [0.0] * len(specs), [0.0] * len(specs), []
    for k, (t, size) in enumerate(arrivals):
        for j in range(len(specs)):
            leave = free[j] = max(t, free[j]) + service[j](size)
            area[j] += max(0.0, min(leave, duration) - max(t, warmup))
            t = leave
        want.append((k, t))
    assert 0 < len(exits) < len(want)  # the run ends with packets inside
    assert exits == want[: len(exits)]
    assert engine.window_backlogs() == tuple(a / (duration - warmup) for a in area)


def test_routes_are_resolved_before_the_first_event():
    # every packet carries the route resolved for its kind when the run
    # began: a walk built while events run is a per-packet lookup come back
    built_while_running = []

    class Counted(simkit._Engine):
        running = False

        def _walk(self, size, i, end):
            built_while_running.append(self.running)
            return super()._walk(size, i, end)

        def run(self):
            self.running = True
            super().run()

    with mock.patch.object(simkit, "_Engine", Counted):
        for name in ("net_a", "net_b", "net_d"):
            net = QueueNetwork.from_dict(load_config(name)[0]["net"])
            result = run_closed_loop(net, "acp_plus", 3, duration=20.0, seed=1)
            assert all(s.fresh_acks > 0 for s in result.sources)
    assert built_while_running.count(False) > 0
    assert built_while_running.count(True) == 0


# the class itself: while _closed_loop_outcome runs, simkit._Engine is its factory
_ENGINE = simkit._Engine


def _mark_nothing(chain, size, cross=()):
    return (False,) * len(chain)


# updates of 2,016 B (payload 2,000) and ACKs of 64 B: the second node of
# each chain queues, and would be marked if the rule read the 1,040-byte
# ``net.update_bytes`` forward (0.139 s <= 0.25 s) or the frames' size on the
# reverse chain (0.4 s <= 0.538 s); ACKs leave the forward link 0.269 s apart
# or more, less than the reverse det's 0.4 s
_SIZE_NET = QueueNetwork(
    forward=(ServiceSpec("det", 4.0), ServiceSpec("link", 60_000.0)),
    reverse=(ServiceSpec("link", 30_000.0), ServiceSpec("det", 2.5)),
)


def test_closed_loop_delays_change_nothing():
    # a node _queue_free marks is a pure delay in the engine's walk and cross
    # traffic leaves at the forward chain's last node that can queue: with
    # _queue_free marking nothing, so that cross traffic rides the whole
    # forward chain, every output must be the same, bit for bit
    marked = {"forward": 0, "reverse": 0}

    @settings(max_examples=60, deadline=None, database=None)
    @given(closed_loop_runs(repeats=True))
    @example((_SIZE_NET, SourceConfig(policy="fixed:0.6", payload_size=2000), 3, 60.0, 0, 0.1))
    # net_d: cross traffic passes four delays ahead of the last node's queue
    @example((QueueNetwork.from_dict(load_config("net_d")[0]["net"]), SourceConfig(), 2, 20.0, 1, 0.1))
    def check(run):
        got, engine = _closed_loop_outcome(run, _ENGINE)
        with mock.patch.object(simkit, "_queue_free", _mark_nothing):
            want, _ = _closed_loop_outcome(run, _ENGINE)
        n_fwd = len(run[0].forward)
        marked["forward"] += any(engine._delays[:n_fwd])
        marked["reverse"] += any(engine._delays[n_fwd:])
        if isinstance(want, str):
            assert got == want
            return
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert got.forward_backlogs == want.forward_backlogs

    check()
    assert marked["forward"] > 0 and marked["reverse"] > 0, marked


class _TimerWatch(simkit._Engine):
    """``_Engine`` that notes, for each stale source timer entry (a newer one
    was pushed for its source since), the instant it was armed and its own
    instant and source, and for each live one its instant and source.
    ``running_live`` says whether the entry running now is a live timer."""

    def __init__(self, *args):
        super().__init__(*args)
        self.now = 0.0
        self.newest = {}  # source -> push order of its newest timer entry
        self.stale_armed_at = []
        self.stale_runs = []
        self.live_runs = []
        self.running_live = False

    def push(self, t, handler, a=None, b=None):
        armed_at = self.now
        entry = self._order + 1  # the order the push below gives this entry
        is_timer = handler.__name__ == "on_timer"
        if is_timer:
            self.newest[a] = entry

        def noted(t, a, b):
            self.now = t
            self.running_live = is_timer and entry == self.newest[a]
            if self.running_live:
                self.live_runs.append((t, a))
            elif is_timer:
                self.stale_armed_at.append(armed_at)
                self.stale_runs.append((t, a))
            handler(t, a, b)

        super().push(t, noted, a, b)


def test_timer_entry_is_armed_once_per_deadline():
    # once epochs run an ACK never moves the next send or epoch instant, so
    # no timer entry armed from then on may be left to fire stale
    net = QueueNetwork(forward=(ServiceSpec("det", 4.0),), reverse=(ServiceSpec("det", 10.0),))
    made, sessions = [], []

    def make_engine(*args):
        made.append(_TimerWatch(*args))
        return made[-1]

    def make_session(cfg):
        sessions.append(SourceSession(cfg))
        return sessions[-1]

    with mock.patch.object(simkit, "_Engine", make_engine), mock.patch.object(simkit, "SourceSession", make_session):
        result = run_closed_loop(net, "fixed:2.0", 1, duration=60.0, seed=0)
    assert result.sources[0].fresh_acks > 100
    assert made[0].stale_armed_at  # probes answered early leave stale timeouts
    assert [t for t in made[0].stale_armed_at if t >= sessions[0].epochs_began] == []


def test_no_two_sources_share_a_timer_instant():
    # round trips of about 2 s outlast the 1 s probe timeout, so both sources
    # probe on timeouts; their staggered starts keep their timers apart
    made = []

    def make_engine(*args):
        made.append(_TimerWatch(*args))
        return made[-1]

    with mock.patch.object(simkit, "_Engine", make_engine):
        run_closed_loop(CL_TANDEM, "fixed:0.3", 2, duration=100.0, seed=1)
    runs = made[0].live_runs
    assert {src for _, src in runs} == {0, 1}
    assert len({t for t, _ in runs}) == len(runs)


def test_a_probe_timeout_left_behind_never_runs_a_send():
    # probing ends on an ACK before the last probe's timeout, and a later send
    # falls on that timeout's instant: only the newest entry may run the send
    net = QueueNetwork(forward=(ServiceSpec("det", 4.0),), reverse=(ServiceSpec("det", 4.0),))
    made, live_calls = [], []

    def make_engine(*args):
        made.append(_TimerWatch(*args))
        return made[-1]

    class Watched(SourceSession):
        def on_timer(self, t):
            live_calls.append(made[0].running_live)
            return super().on_timer(t)

    with mock.patch.object(simkit, "_Engine", make_engine), mock.patch.object(simkit, "SourceSession", Watched):
        run_closed_loop(net, "fixed:4.0", 1, duration=20.0, seed=0)
    assert set(made[0].stale_runs) & set(made[0].live_runs)  # the input has such a send
    assert len(live_calls) > 40 and all(live_calls)


class _LifoTies(simkit._Engine):
    """``_Engine`` that runs equal-time events last-in first-out."""

    def push(self, t, handler, a=None, b=None):
        self._order += 1
        heapq.heappush(self.heap, (t, -self._order, handler, a, b))


def test_closed_loop_results_do_not_depend_on_the_tie_rule():
    # random service only: on det chains with commensurate periods a timer
    # can tie with an ACK or an exit, and there the insertion order decides
    fifo = run_closed_loop(CL_TANDEM, "fixed:0.3", 2, duration=100.0, seed=1)
    with mock.patch.object(simkit, "_Engine", _LifoTies):
        lifo = run_closed_loop(CL_TANDEM, "fixed:0.3", 2, duration=100.0, seed=1)
    assert json.dumps(lifo.to_dict()) == json.dumps(fifo.to_dict())


def _floats(value):
    """Every float inside nested dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def test_closed_loop_floats_are_builtin_on_exp_service():
    # exp service times come off a draw stream; no numpy scalar may spread
    # from them into event times, session fields or the result
    sessions = []

    class Recorded(SourceSession):
        def __init__(self, cfg):
            super().__init__(cfg)
            sessions.append(self)

    with mock.patch.object(simkit, "SourceSession", Recorded):
        result = run_closed_loop(CL_TANDEM, "acp_plus", 3, duration=2000.0, seed=1)
    floats = _floats(result.to_dict()) + _floats([s.trace for s in sessions])
    assert len(sessions) == 3 and all(s.trace for s in sessions)
    assert len(floats) > 500
    assert {type(x) for x in floats} == {float}
    # the trace's array("d") columns turn a numpy scalar into a float, so
    # check the fields it is built from directly
    for s in sessions:
        est = s.estimator
        fields = (s.rate, est.rtt_ewma, est.ack_gap_ewma, est._age_area, est._backlog_area)
        assert [type(x) for x in fields] == [float] * len(fields)


@pytest.mark.parametrize(
    "fwd, rev, rate",
    [((2.0,), (10.0,), 1.0), ((4.0, 8.0), (16.0, 20.0), 2.5), ((3.0, 5.0, 7.0), (50.0,), 1.7)],
)
def test_closed_loop_deterministic_pacing_is_exact(fwd, rev, rate):
    # fixed:R on det chains slower than every server: nothing queues, each
    # update takes s_fwd = sum of forward service times to the monitor and
    # its ACK s_rev more back.  The window (270 s) holds whole periods 1/R,
    # so the true age averages s_fwd + 1/(2R) and the source's estimate
    # s_fwd + s_rev + 1/(2R).  The monitor rebuilds each generation instant
    # from the wire timestamp, rounded to the nearest microsecond, so the
    # true age (and the gap) can be off by at most half of one.
    net = QueueNetwork(
        forward=tuple(ServiceSpec("det", r) for r in fwd), reverse=tuple(ServiceSpec("det", r) for r in rev)
    )
    s = run_closed_loop(net, f"fixed:{rate}", 1, duration=300.0, seed=1).sources[0]
    s_fwd, s_rev = sum(1.0 / r for r in fwd), sum(1.0 / r for r in rev)
    assert s.est_avg_age == pytest.approx(s_fwd + s_rev + 0.5 / rate, rel=1e-12, abs=0.0)
    assert s.true_avg_age == pytest.approx(s_fwd + 0.5 / rate, rel=0.0, abs=0.5e-6)
    assert s.est_minus_true_age == pytest.approx(s_rev, rel=0.0, abs=0.5e-6)


def _paced_epochs(run):
    """Run ``run`` with a recording ``SourceSession``; for each epoch after
    the first that opens after its source's first fresh ACK for a paced send,
    return (its trace record, the largest backlog in it, the session calls
    in it)."""
    sessions = []

    class Recording(SourceSession):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.calls = []  # (t, backlog after the call) per call
            self.paced_acked_at = math.inf
            sessions.append(self)

        def on_timer(self, t):
            frame = super().on_timer(t)
            self.calls.append((t, self.estimator.backlog))
            return frame

        def on_datagram(self, t, data):
            frame = super().on_datagram(t, data)
            self.calls.append((t, self.estimator.backlog))
            if self.paced_acked_at == math.inf and self.estimator.highest_acked > self.cfg.probe_count:
                self.paced_acked_at = t
            return frame

    with mock.patch.object(simkit, "SourceSession", Recording), contextlib.suppress(InitializationError):
        run_closed_loop(*run)
    epochs = []
    for session in sessions:
        times, opened = [t for t, _ in session.calls], session.epochs_began
        for k, rec in enumerate(session.trace):
            if k and opened >= session.paced_acked_at:
                calls = session.calls[bisect.bisect_left(times, opened) : bisect.bisect_right(times, rec["t"])]
                epochs.append((rec, max(b for _, b in calls), len(calls)))
            opened = rec["t"]
    return epochs


@settings(max_examples=100, deadline=None)
@given(closed_loop_runs(st.builds("fixed:{}".format, st.floats(0.2, 6.0))))
@example((CL_TANDEM, "fixed:0.5", 2, 300.0, 0, 0.1))
def test_fixed_rate_backlog_is_rate_times_age_less_a_half(run):
    # A source paced at rate R sends at s_k = s_0 + k/R, and after the ACK of
    # send j, while s_m <= t < s_m+1, its backlog is m - j and its age t - s_j.
    # So R * age - backlog = R * (t - s_m), a sawtooth from 0 to 1 whatever
    # send was acknowledged last, and over an epoch (whole periods, from one
    # send to another) R * delta_bar - b_bar is 1/2.  That needs a paced send
    # acknowledged throughout: the epochs after the first that open after the
    # first fresh ACK for one.  Round-off (u = 2**-53) bounds the error by
    # 2u (B + 2) (R T + 2 c + 5), with T the epoch's close instant, B its
    # largest backlog and c the session calls in it (the derivation is in
    # CHANGES.md).
    rate = float(run[1].split(":")[1])
    for rec, backlog, calls in _paced_epochs(run):
        bound = 2 * 2.0**-53 * (backlog + 2) * (rate * rec["t"] + 2 * calls + 5)
        assert abs(rate * rec["delta_bar"] - rec["b_bar"] - 0.5) <= bound, rec


def test_closed_loop_rejects_sources_starting_after_the_warmup():
    # sources start at offsets in [0, probe_timeout); with 30 s that could be
    # after the 1 s warm-up, or after the whole 10 s run, which then measured
    # nothing at all
    cfg = SourceConfig(policy="fixed:0.5", probe_timeout=30.0)
    with pytest.raises(ConfigError, match="probe_timeout"):
        run_closed_loop(MM1_CL, cfg, 2, duration=10.0, seed=1)
    # without a warm-up the starts must fall inside the run
    with pytest.raises(ConfigError, match="probe_timeout"):
        run_closed_loop(MM1_CL, cfg, 2, duration=10.0, seed=1, warmup_frac=0.0)
    # spans that end at the limit are accepted
    for probe_timeout, warmup_frac in ((1.0, 0.1), (10.0, 0.0)):
        at_limit = SourceConfig(policy="fixed:0.5", probe_timeout=probe_timeout)
        run_closed_loop(MM1_CL, at_limit, 2, duration=10.0, seed=1, warmup_frac=warmup_frac)


def test_closed_loop_reports_the_age_estimate_gap():
    r = run_closed_loop(CL_TANDEM, "fixed:0.3", 2, duration=600.0, seed=3)
    for s in r.sources:
        assert s.est_minus_true_age == s.est_avg_age - s.true_avg_age
        assert s.est_minus_true_age > 0.0  # the estimate includes the ACK's trip back
    assert "est_minus_true_age" in r.to_dict()["sources"][0]


# -- config parsing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "record, change",
    [
        (ServiceSpec("exp", 1.0), {"rate": -1.0}),
        (ServiceSpec("exp", 1.0), {"kind": "bogus", "rate": 0.0}),
        (CrossTraffic(0, 1000.0, 100), {"entry": -1}),
        (QueueNetwork((ServiceSpec("exp", 1.0),)), {"forward": ()}),
        (QueueNetwork((ServiceSpec("exp", 1.0),)), {"cross_traffic": (CrossTraffic(1, 1000.0, 100),)}),
        (SourceConfig(), {"probe_timeout": math.nan}),
        (SourceConfig(), {"policy": "bogus"}),
    ],
)
def test_replace_and_make_check_like_the_constructor(record, change):
    cls, fields = type(record), {**record._asdict(), **change}
    with pytest.raises(ValueError) as built:
        cls(**fields)
    for make in (lambda: record._replace(**change), lambda: cls._make(fields.values())):
        with pytest.raises(type(built.value), match=re.escape(str(built.value))):
            make()


def test_network_from_dict_roundtrip():
    doc = {
        "forward": [{"service": "exp", "rate": 1.0}, {"service": "link", "rate": 1e6}],
        "reverse": [{"service": "det", "rate": 5.0}],
        "cross_traffic": [{"entry": 1, "rate_bps": 200000, "packet_bytes": 1040}],
        "update_bytes": 1040,
        "ack_bytes": 64,
    }
    net = QueueNetwork.from_dict(doc)
    assert len(net.forward) == 2 and len(net.reverse) == 1
    assert net.cross_traffic[0].rate_pps == pytest.approx(200000 / (8 * 1040))


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({}, "forward"),
        ({"forward": [{"service": "warp", "rate": 1.0}]}, "forward[0]"),
        ({"forward": [{"service": "exp"}]}, "rate"),
        ({"forward": [{"rate": 1.0}]}, "service"),
        ({"forward": [{"service": "exp", "rate": -1}]}, "forward[0]"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{}]}, "rate_bps"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "update_bytes": -5}, "update_bytes"),
        (
            {
                "forward": [{"service": "exp", "rate": 1.0}],
                "cross_traffic": [{"entry": 3, "rate_bps": 1000, "packet_bytes": 100}],
            },
            "entry",
        ),
        ({"forward": [{"service": "exp", "rate": math.nan}]}, "forward[0]"),
        ({"forward": [{"service": "link", "rate": math.inf}]}, "forward[0]"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": math.nan}]}, "rate_bps"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": math.inf}]}, "rate_bps"),
        ({"forward": 5}, "forward"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "reverse": 3}, "reverse"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": {"rate_bps": 1000}}, "cross_traffic"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"entry": "0", "rate_bps": 1000}]}, "entry"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"entry": 0.5, "rate_bps": 1000}]}, "entry"),
        ({"forward": [{"service": "exp", "rate": 1.0}] * 2, "cross_traffic": [{"entry": True, "rate_bps": 1000}]}, "entry"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": "x"}]}, "rate_bps"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": True}]}, "rate_bps"),
        (
            {"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": 1000, "packet_bytes": True}]},
            "packet_bytes",
        ),
        ({"forward": [{"service": "exp", "rate": 1.0}], "update_bytes": True}, "update_bytes"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "ack_bytes": True}, "ack_bytes"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_trafic": []}, "'cross_trafic'"),
        ({"forward": [{"service": "exp", "rate": 1.0, "rates": 2.0}]}, "'rates'"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "reverse": [{"service": "exp", "rate": 1.0, "x": 0}]}, "reverse[0]"),
        ({"forward": [{"service": "exp", "rate": 1.0}], "cross_traffic": [{"rate_bps": 1000, "packet_size": 100}]}, "'packet_size'"),
    ],
)
def test_network_config_errors_name_fields(doc, needle):
    with pytest.raises(ConfigError) as err:
        QueueNetwork.from_dict(doc)
    assert needle in str(err.value)
