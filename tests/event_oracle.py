"""Hop-by-hop event-driven references for the simulator.

``HopEngine`` is a closed-loop event engine that moves every packet one
node at a time: per-node FIFO queues, one completion event per hop, and
backlog areas summed in event order.  It takes ``simkit._Engine``'s
constructor, ignores ``heads`` and ``delays`` (every node runs the FCFS
recursion), and stands in for it to check the segment walk.  Its service
times come from ``_service_fn``, built from the engine's own
``_exp_draw`` and ``_fixed_service``.

``open_loop_events`` simulates an open-loop run packet by packet on it,
drawing every gap and service time one at a time from the same
substreams ``simkit._open_loop`` uses.  Its figures are summed in event
order, so the array computation should match it to rounding.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from agectl import simkit
from agectl.endpoints import DrawStream
from agectl.simkit import AoiMetrics, age_time_average, substream_seed


def _service_fn(spec, seed: int):
    """Packet size -> service seconds at one node (``exp``: one draw each)."""
    if spec.kind == "exp":
        draw = simkit._exp_draw(spec, seed)
        return lambda size: draw()
    return lambda size: simkit._fixed_service(spec, size)


class HopEngine:
    """Event loop plus per-node queue state; heap entries ``(t, order,
    handler, a, b)`` run as ``handler(t, a, b)``, ties in insertion order."""

    def __init__(self, specs, seed: int, heads, warmup: float, duration: float, delays):
        n = len(specs)
        self.queues = [deque() for _ in range(n)]
        self._service = [_service_fn(s, substream_seed(seed, f"service/{i}")) for i, s in enumerate(specs)]
        self._warmup = warmup
        self._duration = duration
        self.upd_count = [0] * n
        self.area = [0.0] * n
        self.warm_area = [0.0] * n
        self.last_t = [0.0] * n
        self.heap: list = []
        self._order = 0

    def push(self, t: float, handler, a=None, b=None) -> None:
        self._order += 1
        heapq.heappush(self.heap, (t, self._order, handler, a, b))

    def route(self, size: float, head: int, route_end: int) -> tuple[float, int]:
        """No walk to resolve: a packet's route slot holds its size and the
        end of its route, to which it goes one node at a time."""
        return size, route_end

    def _backlog_step(self, t: float, i: int, delta: int) -> None:
        self.area[i] += (t - self.last_t[i]) * self.upd_count[i]
        self.last_t[i] = t
        self.upd_count[i] += delta

    def enqueue(self, t: float, i: int, pkt) -> None:
        if pkt[0]:
            self._backlog_step(t, i, 1)
        queue = self.queues[i]
        queue.append(pkt)
        if len(queue) == 1:
            self.push(t + self._service[i](pkt[4][0]), self._complete, i)

    def _complete(self, t: float, i: int, _b) -> None:
        queue = self.queues[i]
        pkt = queue.popleft()
        if pkt[0]:
            self._backlog_step(t, i, -1)
        if queue:
            self.push(t + self._service[i](queue[0][4][0]), self._complete, i)
        if i + 1 < pkt[4][1]:
            self.enqueue(t, i + 1, pkt)
        elif pkt[1] is not None:
            pkt[1](t, pkt[2], pkt[3])

    def _snapshot_warm(self, t_w: float, _a, _b) -> None:
        for i in range(len(self.queues)):
            self.warm_area[i] = self.area[i] + (t_w - self.last_t[i]) * self.upd_count[i]

    def run(self) -> None:
        heap = self.heap
        # order 0 runs the snapshot before every other event at the warm-up end
        heapq.heappush(heap, (self._warmup, 0, self._snapshot_warm, None, None))
        while heap:
            t, _, handler, a, b = heapq.heappop(heap)
            if t > self._duration:
                break
            handler(t, a, b)
        for i in range(len(self.queues)):
            self._backlog_step(self._duration, i, 0)

    def window_backlogs(self) -> tuple[float, ...]:
        window = self._duration - self._warmup
        return tuple((area - warm) / window for area, warm in zip(self.area, self.warm_area))


class _TallyingEngine(HopEngine):
    """``HopEngine`` that also sums, per node, departed updates and their
    time there, and keeps their departure instants."""

    def __init__(self, specs, seed: int, heads, warmup: float, duration: float, delays):
        super().__init__(specs, seed, heads, warmup, duration, delays)
        self.waiting = [deque() for _ in specs]  # arrival instants of queued updates
        self.time_sum = [0.0] * len(specs)
        self.departs = [0] * len(specs)
        self.depart_times = [[] for _ in specs]

    def enqueue(self, t: float, i: int, pkt) -> None:
        if pkt[0]:
            if i > 0:
                self.update_left(t, i - 1)
            self.waiting[i].append(t)
        super().enqueue(t, i, pkt)

    def update_left(self, t: float, i: int) -> None:
        self.time_sum[i] += t - self.waiting[i].popleft()
        self.departs[i] += 1
        self.depart_times[i].append(t)


def open_loop_events(net, lam, arrival, duration, seed, warmup_frac):
    """(AoiMetrics, gen, dlv, departures) of an open-loop run, by discrete
    events; ``departures`` holds each node's update departure instants."""
    n_fwd = len(net.forward)
    warmup = warmup_frac * duration
    arrival_draw = DrawStream(substream_seed(seed, "arrivals"), 1.0) if arrival == "poisson" else None
    cross_draws = [DrawStream(substream_seed(seed, f"cross/{i}"), 1.0) for i in range(len(net.cross_traffic))]
    update_size = float(net.update_bytes)

    gen_log: list[float] = []
    dlv_log: list[float] = []

    # an update carries its generation instant in the payload slot
    def on_source(t, _a, _b):
        engine.enqueue(t, 0, (True, on_deliver, 0, t, (update_size, n_fwd)))
        gap = arrival_draw.draw() / lam if arrival_draw else 1.0 / lam
        if t + gap <= duration:
            engine.push(t + gap, on_source)

    def on_cross(t, flow_idx, _b):
        flow = net.cross_traffic[flow_idx]
        engine.enqueue(t, flow.entry, (False, None, -1, None, (float(flow.packet_bytes), n_fwd)))
        gap = cross_draws[flow_idx].draw() / flow.rate_pps
        if t + gap <= duration:
            engine.push(t + gap, on_cross, flow_idx)

    def on_deliver(t, _src, gen):
        engine.update_left(t, n_fwd - 1)
        gen_log.append(gen)
        dlv_log.append(t)

    engine = _TallyingEngine(net.forward, substream_seed(seed, "fwd"), (0,), warmup, duration, None)
    engine.push(0.0, on_source)
    for i, flow in enumerate(net.cross_traffic):
        first = cross_draws[i].draw() / flow.rate_pps
        if first <= duration:
            engine.push(first, on_cross, i)

    engine.run()

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
        avg_backlog_per_node=engine.window_backlogs(),
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
    return metrics, gen, dlv, engine.depart_times
