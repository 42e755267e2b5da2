"""Event-driven reference for the open-loop simulator.

``open_loop_events`` simulates an open-loop run packet by packet on
``simkit._Engine``, drawing every gap and service time one at a time from
the same substreams ``simkit._open_loop`` uses.  Its figures are summed in
event order, so the array computation should match it to rounding.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from agectl import simkit
from agectl.simkit import AoiMetrics, age_time_average, substream_seed


class _TallyingEngine(simkit._Engine):
    """``_Engine`` that also sums, per node, departed updates and their time there."""

    def __init__(self, specs, seed: int, on_deliver):
        super().__init__(specs, seed, on_deliver)
        self.waiting = [deque() for _ in specs]  # arrival instants of queued updates
        self.time_sum = [0.0] * len(specs)
        self.departs = [0] * len(specs)

    def enqueue(self, t: float, i: int, pkt) -> None:
        if pkt[0]:
            if i > 0:
                self.update_left(t, i - 1)
            self.waiting[i].append(t)
        super().enqueue(t, i, pkt)

    def update_left(self, t: float, i: int) -> None:
        self.time_sum[i] += t - self.waiting[i].popleft()
        self.departs[i] += 1


def open_loop_events(net, lam, arrival, duration, seed, warmup_frac):
    """(AoiMetrics, gen, dlv) of an open-loop run, by discrete events."""
    n_fwd = len(net.forward)
    warmup = warmup_frac * duration
    arrival_draw = simkit._ExpStream(substream_seed(seed, "arrivals")) if arrival == "poisson" else None
    cross_draws = [simkit._ExpStream(substream_seed(seed, f"cross/{i}")) for i in range(len(net.cross_traffic))]
    update_size = float(net.update_bytes)

    gen_log: list[float] = []
    dlv_log: list[float] = []

    # an update carries its generation instant in the payload slot
    def on_source(t, _a, _b):
        engine.enqueue(t, 0, (True, 0, update_size, n_fwd, t))
        gap = arrival_draw.draw() / lam if arrival_draw else 1.0 / lam
        if t + gap <= duration:
            engine.push(t + gap, on_source)

    def on_cross(t, flow_idx, _b):
        flow = net.cross_traffic[flow_idx]
        engine.enqueue(t, flow.entry, (False, -1, float(flow.packet_bytes), n_fwd, None))
        gap = cross_draws[flow_idx].draw() / flow.rate_pps
        if t + gap <= duration:
            engine.push(t + gap, on_cross, flow_idx)

    def on_deliver(t, pkt):
        if pkt[0]:
            engine.update_left(t, n_fwd - 1)
            gen_log.append(pkt[4])
            dlv_log.append(t)

    engine = _TallyingEngine(net.forward, substream_seed(seed, "fwd"), on_deliver)
    engine.push(0.0, on_source)
    for i, flow in enumerate(net.cross_traffic):
        first = cross_draws[i].draw() / flow.rate_pps
        if first <= duration:
            engine.push(first, on_cross, i)

    engine.run(duration, warmup)

    gen = np.asarray(gen_log)
    dlv = np.asarray(dlv_log)
    window = duration - warmup
    in_window = dlv >= warmup
    delivered = int(np.count_nonzero(in_window))
    avg_sys = float(np.mean(dlv[in_window] - gen[in_window])) if delivered else math.nan
    capacity = min(
        net.forward[i].effective_rate(update_size) * (1.0 - net.cross_load(i)) for i in range(n_fwd)
    )
    metrics = AoiMetrics(
        avg_age=age_time_average(gen, dlv, warmup, duration),
        avg_backlog_per_node=engine.window_backlogs(warmup, duration),
        avg_system_time=avg_sys,
        throughput_updates=delivered / window,
        throughput_bps=delivered * 8.0 * net.update_bytes / window,
        delivered=delivered,
        unstable=lam >= capacity,
        duration=duration,
        warmup=warmup,
        node_time_in_system_sum=tuple(engine.time_sum),
        node_departs=tuple(engine.departs),
    )
    return metrics, gen, dlv
