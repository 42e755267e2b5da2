"""Golden digests of source and monitor traces.

Each case hashes the JSON (keys sorted) of every source session's epoch
trace and every monitor's reset trace, so a change meant to keep outputs
byte-identical is checked here and not by hand.  The inputs draw only
PCG64 uniforms (start offsets, losses) and compute in built-in floats:
no exponential draws and no numpy reductions, so the digests do not
depend on the numpy build or the CPU.
"""

import hashlib
import json
from unittest import mock

import pytest

from agectl import simkit
from agectl.endpoints import MonitorSession, SimulatedPath, SourceConfig, SourceSession, run_source
from agectl.simkit import QueueNetwork, ServiceSpec, run_closed_loop


def _digest(sources, monitors) -> str:
    doc = [[s.trace for s in sources], [m.trace for m in monitors]]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _chain(kind, forward, reverse) -> QueueNetwork:
    return QueueNetwork(
        forward=tuple(ServiceSpec(kind, r) for r in forward), reverse=tuple(ServiceSpec(kind, r) for r in reverse)
    )


CLOSED_LOOP_CASES = {
    # a probe timeout still pending when probing ends falls on a send instant
    "det4-4-fixed4": (_chain("det", [4.0], [4.0]), "fixed:4.0", 1, 20.0, 0),
    # sends at the fixed rate, no epoch closes
    "det1-10-fixed0.5": (_chain("det", [1.0], [10.0]), "fixed:0.5", 1, 20.0, 0),
    "sixhop-acp_plus": (_chain("link", [1e6] * 6, [1e6] * 6), "acp_plus", 3, 60.0, 1),
    "sixhop-lazy": (_chain("link", [1e6] * 6, [1e6] * 6), "lazy", 3, 60.0, 1),
}

CLOSED_LOOP_DIGESTS = {
    "det4-4-fixed4": "3954838f598a25130f83b6d3fbe4e942d3aea2af6fa190f892cd34b0616d1f3e",
    "det1-10-fixed0.5": "52ab3030c06624335c02c851887a73f2d184fff67c3806602e7964f2f00907dc",
    "sixhop-acp_plus": "225f36da7cb1732fdbcc00419abfa982c9edcf6dfae41e794ff10e8a25912ba9",
    "sixhop-lazy": "19cba2abb78c9144d5b52fe750345f3da33fbdf3bdfdcec2f767789c0d78aa1b",
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
