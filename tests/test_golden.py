"""Golden digests of source and monitor traces and of engine backlog areas.

Each case hashes the JSON (keys sorted) of every source session's epoch
trace and every monitor's reset trace, and for closed-loop runs the
engine's per-node forward backlogs, so a change meant to keep outputs
byte-identical is checked here and not by hand.  The inputs draw only
PCG64 uniforms (start offsets, losses) and compute in built-in floats:
no exponential draws and no numpy reductions, so the digests do not
depend on the numpy build or the CPU.
"""

import hashlib
import json
from unittest import mock

import pytest

from agectl import simkit, wire
from agectl.endpoints import MonitorSession, SimulatedPath, SourceConfig, SourceSession, run_source
from agectl.simkit import QueueNetwork, ServiceSpec, run_closed_loop


def _digest(sources, monitors) -> str:
    doc = [[s.trace for s in sources], [m.trace for m in monitors]]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _chain(kind, forward, reverse) -> QueueNetwork:
    return QueueNetwork(
        forward=tuple(ServiceSpec(kind, r) for r in forward), reverse=tuple(ServiceSpec(kind, r) for r in reverse)
    )


NET_B_RATES = [1e6, 1e6, 5e6, 5e6, 1e6, 1e6]

CLOSED_LOOP_CASES = {
    # a probe timeout still pending when probing ends falls on a send instant
    "det4-4-fixed4": (_chain("det", [4.0], [4.0]), "fixed:4.0", 1, 20.0, 0),
    # sends at the fixed rate, no epoch closes
    "det1-10-fixed0.5": (_chain("det", [1.0], [10.0]), "fixed:0.5", 1, 20.0, 0),
    "sixhop-acp_plus": (_chain("link", [1e6] * 6, [1e6] * 6), "acp_plus", 3, 60.0, 1),
    "sixhop-lazy": (_chain("link", [1e6] * 6, [1e6] * 6), "lazy", 3, 60.0, 1),
    # one source's send timer ties with the other's ACK, and insertion order
    # decides: an ACK's entry is pushed as its update enters the last
    # forward segment, so it runs after a timer pushed before that
    "det4-10-fixed4-2src": (_chain("det", [4.0], [10.0]), "fixed:4.0", 2, 30.0, 0),
    # a new deadline falls on a probe timeout left pending when probing
    # ended, so a timer entry is pushed at an instant that holds a stale one
    "det4-4-lazy-2src": (_chain("det", [4.0], [4.0]), "lazy", 2, 30.0, 0),
    "det4-4-acp_plus-2src": (_chain("det", [4.0], [4.0]), "acp_plus", 2, 30.0, 0),
    # net_b's links each way, with no cross flow: a queue at node 4 between
    # nodes that never hold one (simkit._queue_free), on both chains
    "netb-acp_plus": (_chain("link", NET_B_RATES, NET_B_RATES), "acp_plus", 3, 60.0, 1),
}

CLOSED_LOOP_DIGESTS = {
    "det4-4-fixed4": "3954838f598a25130f83b6d3fbe4e942d3aea2af6fa190f892cd34b0616d1f3e",
    "det1-10-fixed0.5": "52ab3030c06624335c02c851887a73f2d184fff67c3806602e7964f2f00907dc",
    "sixhop-acp_plus": "225f36da7cb1732fdbcc00419abfa982c9edcf6dfae41e794ff10e8a25912ba9",
    "sixhop-lazy": "19cba2abb78c9144d5b52fe750345f3da33fbdf3bdfdcec2f767789c0d78aa1b",
    "det4-10-fixed4-2src": "46d58257d93d800ea30630e01cc4d714234606c1e47d2d9d9a3dfd857b71cbf9",
    "det4-4-lazy-2src": "dc11dc4a5c9fc82a07cba89304cb52944052b42f7da85fe408e5db1e4aff3c6c",
    "det4-4-acp_plus-2src": "121046ac6694cdb53ecba6295c4f66de3dfcf92e17d2b249c1765520c9582e50",
    "netb-acp_plus": "23f7ba59e065d16363aea8042e7a8fe92540564b20a923d0aba95a4a645a19a5",
}


@pytest.mark.parametrize("case", sorted(CLOSED_LOOP_CASES))
def test_closed_loop_traces_match_golden_digest(case):
    sources, monitors = [], []

    class RecordedSource(SourceSession):
        def __init__(self, cfg):
            super().__init__(cfg)
            sources.append(self)

    class RecordedMonitor(MonitorSession):
        def __init__(self):
            super().__init__()
            monitors.append(self)

    with mock.patch.object(simkit, "SourceSession", RecordedSource), mock.patch.object(
        simkit, "MonitorSession", RecordedMonitor
    ):
        run_closed_loop(*CLOSED_LOOP_CASES[case])
    assert monitors and all(m.trace for m in monitors)
    assert _digest(sources, monitors) == CLOSED_LOOP_DIGESTS[case]


# the engine sums each node's backlog area in built-in floats, one stay at a time
BACKLOG_DIGESTS = {
    "det4-4-fixed4": "d9efddac023a9cdc358dfeda4713fa3abd98a0a7bd390ebd4ed6444c9bfe6e30",
    "det1-10-fixed0.5": "ee8834340ce5fe921e33a59f328ec8e0ca76c100e9733019015f7527f3237ec2",
    "sixhop-acp_plus": "b0e6e107dd74873cbf4ecc120b87214f45f3358dc5b2d6192a37f719e6df290b",
    "sixhop-lazy": "bd3449f45e52d991c6b8f31b4283b9e59b3964d332e5de2744141baa91aae9b2",
    "det4-10-fixed4-2src": "9469483dec44b451e8989c462ebc4d5e8f052b6ae80cb55e5ad0c63bd87da9f4",
    "det4-4-lazy-2src": "4e0791e535db76817dd43afcca9168312d2318ae0c46107ea3b70ab71d4dcf44",
    "det4-4-acp_plus-2src": "eb9da09ae8a0370710c0dccb5852836da56c9f0bc0c52d76ed862befb958a602",
    "netb-acp_plus": "a1d8866aa6439114acad8103d04c2a0aaaf12e2997596aefce88925f4136da0e",
}


@pytest.mark.parametrize("case", sorted(CLOSED_LOOP_CASES))
def test_closed_loop_backlogs_match_golden_digest(case):
    backlogs = run_closed_loop(*CLOSED_LOOP_CASES[case]).forward_backlogs
    assert all(b > 0.0 for b in backlogs)
    assert hashlib.sha256(json.dumps(backlogs).encode()).hexdigest() == BACKLOG_DIGESTS[case]


def test_netb_case_puts_a_queue_between_delays():
    net = CLOSED_LOOP_CASES["netb-acp_plus"][0]
    marks = (False, True, True, True, False, True)
    frame_bytes = wire.HEADER_LEN + SourceConfig().payload_size
    assert simkit._queue_free(net.forward, frame_bytes) == marks == simkit._queue_free(net.reverse, net.ack_bytes)


RUN_SOURCE_DIGESTS = {
    0: "4895142053039bd239e7f4a2122d0039833af3de272b60d76b8385d5b08cbc5f",
    1: "90d12281d547deba13f9ac4c54e025d138209f4d1a724b1d5121c11bbe9ec8c8",
    2: "1028e7896542dc9890946baa592d4e1103f45cdf420a190486f3dfdab6e640fb",
}


@pytest.mark.parametrize("seed", sorted(RUN_SOURCE_DIGESTS))
def test_run_source_traces_match_golden_digest(seed):
    path = SimulatedPath(0.01, 0.02, loss=0.05, seed=seed)
    _, session = run_source(path, SourceConfig(probe_count=3), duration=30.0)
    assert session.trace and path.monitor.trace
    assert _digest([session], [path.monitor]) == RUN_SOURCE_DIGESTS[seed]
