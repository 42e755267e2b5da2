"""Simulator correctness: determinism, conservation laws, analytic anchors."""

import dataclasses
import heapq
import json
import math
import statistics
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from event_oracle import HopEngine, open_loop_events
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agectl import analytics, simkit
from agectl.cli import load_config
from agectl.endpoints import InitializationError, MonitorSession, SourceConfig, SourceSession
from agectl.simkit import (
    ARRIVAL_KINDS,
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
    ],
)
def test_age_time_average_rejects_garbage(gen, dlv, needle):
    # each of these once returned a number or an untyped broadcast error
    with pytest.raises(ValueError, match=needle):
        age_time_average(gen, dlv, 0.0, 5.0)
    # equal delivery times are not a decrease
    assert age_time_average([0.0, 0.5], [1.0, 1.0], 0.0, 2.0) == pytest.approx(1.0)


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
    engine = simkit._Engine((ServiceSpec("det", 1.0),), 0, (0,), 1.0, 4.0)
    for _ in range(2):
        engine.enqueue(0.0, 0, (True, 1040.0, 1, lambda t, src, payload: None, 0, None))
    engine.run()
    assert engine.window_backlogs() == (1 / 3,)


def test_segment_exit_takes_its_order_on_entry():
    # a two-hop det segment entered at t=0 exits at t=2; the exit event was
    # pushed at entry, so it runs before a handler pushed at t=0.5 for t=2
    seen = []
    engine = simkit._Engine((ServiceSpec("det", 1.0),) * 2, 0, (0,), 0.0, 4.0)
    engine.enqueue(0.0, 0, (True, 1040.0, 2, lambda t, src, payload: seen.append(("exit", t)), 0, None))
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
    engine = simkit._Engine(specs, seed, (0,), warmup, duration)
    for k, (t, size) in enumerate(arrivals):
        engine.enqueue(t, 0, (True, size, len(specs), lambda t, k, _: exits.append((k, t)), k, None))
    engine.run()

    service = [simkit._service_fn(spec, substream_seed(seed, f"service/{i}")) for i, spec in enumerate(specs)]
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
            run_closed_loop(net, cfg.policy, 1, duration=duration, seed=0, warmup_frac=0.0, cfg=cfg)
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


@st.composite
def open_loop_runs(draw):
    # a det or link spec comes up to three times in a row, so that nodes share
    # running sums, and a flow may enter inside such a run
    forward = ()
    for spec in draw(st.lists(SERVICES, min_size=1, max_size=3)):
        forward += (spec,) * (1 if spec.kind == "exp" else draw(st.integers(1, 3)))
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
    got, gen, dlv = simkit._open_loop(*run)
    want, want_gen, want_dlv, departures = open_loop_events(*run)
    k = _edge_departures(departures, want.warmup, want.duration)
    slack = _count_slack(run, got, want, k) if k else {}
    for field in dataclasses.fields(AoiMetrics):
        _assert_same_field(field.name, getattr(got, field.name), getattr(want, field.name), slack.get(field.name, 0))
    # a departure at the run's end may likewise leave or stay in the kernel
    assert abs(len(gen) - len(want_gen)) <= k
    n = min(len(gen), len(want_gen))
    assert np.array_equal(gen[:n], want_gen[:n])
    assert dlv[:n] == pytest.approx(want_dlv[:n], rel=1e-9, abs=0.0)


def _open_loop_per_node(net, lam, arrival, duration, seed):
    """The open loop's deliveries, node_departs and node_time_in_system_sum,
    with every packet's update flag carried along and a new cumsum of the
    service times at every node."""
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
        service = simkit._service_times(spec, len(arrive), sizes, service_seed)
        served = np.cumsum(service)
        leave = served + np.fmax.accumulate(arrive - (served - service))
        upd_in, upd_out = arrive[is_update], leave[is_update]
        left = int(np.sum(upd_out <= duration))
        departs.append(left)
        time_sums.append(float(np.sum(upd_out[:left] - upd_in[:left])))
        out = leave <= duration
        arrive, sizes, is_update = leave[out], sizes[out], is_update[out]
    return arrive[is_update], tuple(departs), tuple(time_sums)


@pytest.mark.parametrize("spec, lam", [(ServiceSpec("det", 2.0), 1.2), (ServiceSpec("link", 1e6), 70.0)])
@pytest.mark.parametrize("entries", [(), (0,), (2,), (0, 3, 3)])
def test_identical_nodes_share_running_sums_exactly(spec, lam, entries):
    # a node with the spec of the one before it and no flow entering reads a
    # prefix of that node's running sum; that must be bit for bit the sum
    # it would compute, whether or not a flow enters inside the run
    rate_bps = 8.0 * 1040 * 0.15 * spec.effective_rate(1040)
    flows = tuple(CrossTraffic(entry=e, rate_bps=rate_bps, packet_bytes=1040 - 100 * k) for k, e in enumerate(entries))
    net = QueueNetwork(forward=(spec,) * 5, cross_traffic=flows)
    duration = 2000.0 / lam
    got, _, dlv = simkit._open_loop(net, lam, "poisson", duration, 7, 0.1)
    want_dlv, departs, time_sums = _open_loop_per_node(net, lam, "poisson", duration, 7)
    assert got.node_departs[-1] > 1000  # queues form and most updates arrive
    assert dlv.tobytes() == want_dlv.tobytes()
    assert got.node_departs == departs
    assert got.node_time_in_system_sum == time_sums


# -- sweeps ----------------------------------------------------------------------


def test_open_loop_peak_memory_per_update():
    # at its peak the open loop holds five float arrays of the updates'
    # length: generation instants, a node's arrivals, service times and
    # departures, or age_time_average's three beside its inputs (40 B per
    # update); before its buffers were reused it held about 14 (117 B)
    lam, duration = 0.5, 2.5e5
    run_fixed_rate(TANDEM, lam, duration=1000.0, seed=1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        run_fixed_rate(TANDEM, lam, duration=duration, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (lam * duration) <= 64.0



def test_open_loop_peak_memory_per_update_with_cross_traffic():
    # once cross traffic enters, the open loop also holds the merged packets'
    # sizes and the updates' int64 positions among them (8 B per update):
    # about 88 B per update on the net_a forward chain
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
    assert peak / (lam * duration) <= 96.0


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
    for field in dataclasses.fields(AoiMetrics):
        value = getattr(m, field.name)
        items = value if field.type.startswith("tuple") else (value,)
        assert len(items) == (3 if field.type.startswith("tuple") else 1)
        assert {type(x) for x in items} == {kinds[field.type]}, field.name
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
    _, gen, dlv = simkit._open_loop(net, 1.0, "poisson", duration, 1, 0.0)
    # a window strictly inside the widest gap between two resets holds none
    gap = int(np.argmax(np.diff(dlv)))
    quiet = dlv[gap] + np.array([0.25, 0.75]) * (dlv[gap + 1] - dlv[gap])
    edges = np.sort(np.concatenate([np.linspace(0.0, duration, 11), quiet]))
    assert edges[0] < dlv[0]  # the first window opens before the first delivery
    got = simkit._window_ages(gen, dlv, edges)
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
    # bit for bit, NaN included
    assert [float(x).hex() for x in simkit._window_ages(gen, dlv, edges)] == [float(x).hex() for x in want]


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
    assert all(b >= 0 for b in r.forward_backlogs + r.reverse_backlogs)


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
def closed_loop_runs(draw):
    forward = tuple(draw(st.lists(SERVICES, min_size=1, max_size=3)))
    reverse = tuple(draw(st.lists(SERVICES, min_size=1, max_size=2)))
    flows = st.builds(
        CrossTraffic, st.integers(0, len(forward) - 1), st.floats(500.0, 8000.0), st.integers(64, 1500)
    )
    net = QueueNetwork(forward=forward, reverse=reverse, cross_traffic=tuple(draw(st.lists(flows, max_size=3))))
    return (
        net,
        draw(SOURCE_POLICIES),
        draw(st.integers(1, 3)),
        draw(st.floats(20.0, 200.0)),
        draw(st.integers(0, 2**32)),
        draw(st.sampled_from((0.0, 0.1))),
    )


class _TieWatch(simkit._Engine):
    """``_Engine`` that notes the instant of every event it runs and whether
    that event was a segment exit (an entry ``enqueue`` pushed)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ran = []
        self._in_enqueue = False

    def enqueue(self, t, i, pkt):
        self._in_enqueue = True
        super().enqueue(t, i, pkt)
        self._in_enqueue = False

    def push(self, t, handler, a=None, b=None):
        is_exit = self._in_enqueue

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
def test_closed_loop_matches_hop_by_hop_engine(run):
    got, engine = _closed_loop_outcome(run, _TieWatch)
    # at an instant shared with an exit the two engines break the tie by
    # different rules (test_segment_exit_takes_its_order_on_entry pins ours)
    assume(not engine.exit_tied())
    want, _ = _closed_loop_outcome(run, HopEngine)
    if isinstance(want, str):
        assert got == want
        return
    assert json.dumps(got.to_dict()["sources"]) == json.dumps(want.to_dict()["sources"])
    for field in ("forward_backlogs", "reverse_backlogs"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0), field


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


def test_closed_loop_rejects_sources_starting_after_the_warmup():
    # sources start at offsets in [0, probe_timeout); with 30 s that could be
    # after the 1 s warm-up, or after the whole 10 s run, which then measured
    # nothing at all
    cfg = SourceConfig(policy="fixed:0.5", probe_timeout=30.0)
    with pytest.raises(ConfigError, match="probe_timeout"):
        run_closed_loop(MM1_CL, "fixed:0.5", 2, duration=10.0, seed=1, cfg=cfg)
    # without a warm-up the starts must fall inside the run
    with pytest.raises(ConfigError, match="probe_timeout"):
        run_closed_loop(MM1_CL, "fixed:0.5", 2, duration=10.0, seed=1, warmup_frac=0.0, cfg=cfg)
    # spans that end at the limit are accepted
    for probe_timeout, warmup_frac in ((1.0, 0.1), (10.0, 0.0)):
        at_limit = SourceConfig(policy="fixed:0.5", probe_timeout=probe_timeout)
        run_closed_loop(MM1_CL, "fixed:0.5", 2, duration=10.0, seed=1, warmup_frac=warmup_frac, cfg=at_limit)


def test_closed_loop_reports_the_age_estimate_gap():
    r = run_closed_loop(CL_TANDEM, "fixed:0.3", 2, duration=600.0, seed=3)
    for s in r.sources:
        assert s.est_minus_true_age == s.est_avg_age - s.true_avg_age
        assert s.est_minus_true_age > 0.0  # the estimate includes the ACK's trip back
    assert "est_minus_true_age" in r.to_dict()["sources"][0]


# -- config parsing -----------------------------------------------------------------


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
