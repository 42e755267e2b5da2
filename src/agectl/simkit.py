"""Deterministic simulation of FCFS queueing chains.

Networks are directed chains of single-server FCFS queues with infinite
buffers (optionally with a reverse chain for acknowledgment traffic) fed
by Poisson, periodic, or closed-loop sources plus Poisson cross-traffic
flows.  A run is a pure function of (configuration, seed): every
stochastic element (arrival process, each server, each cross flow) draws
from its own seeded substream, so edits to one part of a topology do not
perturb the draws of another.

Open-loop runs need no event loop.  Arrival instants are cumulative sums
of the arrival draws; each node merges its through traffic with the
cross flows entering there and applies Lindley's recursion
``D_k = max(A_k, D_{k-1}) + S_k`` in closed form over whole arrays,
its temporaries in the service times' buffer and the departures in the
buffer of their running sum.  FCFS departures never decrease, so the
packets that leave a node by the end of the run are a prefix, taken as
a view, not through a mask.  Until a cross flow enters, every packet is
an update and a run holds at most five float arrays per update:
generation instants, a node's arrivals, service times and departures
(or, at the end, ``age_time_average``'s three beside the generation and
delivery instants).  From the first merge on, a node also holds the
packets' sizes, and the updates are tracked by their positions in
service order, one int64 index built at each merge: a node takes the
updates' departures from its own through that index, and those that
left by the end of the run are the next node's update arrivals as they
are.  Beside the merged arrays that makes three 8-byte arrays per
update: the updates' arrivals, departures and positions.
Closed-loop runs, where the endpoints react to every delivery, apply it
one packet at a time: a packet is walked through its whole FCFS segment
(the nodes up to the next entry point) when it enters, and an event heap
that breaks time ties by insertion order holds one entry for its exit.
A packet carries its arrival handler, so that entry is the walk through
the next segment or, at the end of the route, the arrival itself; cross
traffic ends with no entry.  Each source's timer takes one heap entry
per deadline, not one per endpoint call.  Source k starts at an offset
drawn from its own substream, uniform on [0, probe_timeout), so no two
sources' timers share an instant and no result depends on how the heap
breaks a tie between them; that span must end within the warm-up.

The sink applies the freshest-wins rule: a delivered update resets the
age process only if it is newer than everything delivered before it.
Metrics are computed from the delivery log after the run, excluding a
configurable warm-up window.  Per-node backlog figures count update
packets only (not cross traffic, not ACKs).
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import wire
from .endpoints import DrawStream, MonitorSession, SourceConfig, SourceSession, age_time_average, substream_seed

SERVICE_KINDS = ("exp", "det", "link")
ARRIVAL_KINDS = ("poisson", "periodic")

DEFAULT_UPDATE_BYTES = 1040  # 16-byte header + 1024-byte payload
DEFAULT_ACK_BYTES = 64
DEFAULT_WARMUP_FRAC = 0.10

_SWEEP_BATCHES = 10  # batch means behind each sweep point's interval


class ConfigError(ValueError):
    """Malformed network/run configuration; message names the field."""


def _require_positive(what: str, value) -> None:
    """Reject zero, negative, infinite and NaN values of a rate or span."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be positive and finite, got {value}")


def _require_int(what: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _require_number(what: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list, got {value!r}")
    return value


def _reject_unknown(doc: dict, known: tuple, where: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"{where} has unknown field(s) {', '.join(map(repr, unknown))}")


def _require_warmup_frac(warmup_frac) -> None:
    if isinstance(warmup_frac, bool) or not (isinstance(warmup_frac, (int, float)) and 0.0 <= warmup_frac < 1.0):
        raise ConfigError(f"warmup_frac must be in [0, 1), got {warmup_frac!r}")


def jain_index(values) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]."""
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("jain_index needs at least one value")
    if not all(0.0 <= v < math.inf for v in xs):
        raise ValueError("jain_index values must be non-negative and finite")
    square_sum = sum(v * v for v in xs)
    if square_sum == 0.0:
        raise ValueError("jain_index undefined for all-zero values")
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass(frozen=True)
class ServiceSpec:
    """One FCFS server: exponential(rate), deterministic(1/rate) seconds,
    or a link transmitting at rate bits/s (service time scales with the
    packet size; the other kinds are size-independent)."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ConfigError(f"service kind must be one of {SERVICE_KINDS}, got {self.kind!r}")
        _require_positive("service rate", self.rate)

    def effective_rate(self, packet_bytes: float) -> float:
        """Packets/second this server sustains for the given packet size."""
        if self.kind == "link":
            return self.rate / (8.0 * packet_bytes)
        return self.rate


@dataclass(frozen=True)
class CrossTraffic:
    """Poisson background flow of fixed-size packets entering at a
    forward node and riding the chain to the sink."""

    entry: int
    rate_bps: float
    packet_bytes: int

    def __post_init__(self):
        if self.entry < 0:
            raise ConfigError(f"cross-traffic entry node must be >= 0, got {self.entry}")
        _require_positive("cross-traffic rate_bps", self.rate_bps)
        if self.packet_bytes <= 0:
            raise ConfigError(f"cross-traffic packet_bytes must be positive, got {self.packet_bytes}")

    @property
    def rate_pps(self) -> float:
        return self.rate_bps / (8.0 * self.packet_bytes)


@dataclass(frozen=True)
class QueueNetwork:
    """Forward chain (source to monitor), optional reverse chain for ACKs."""

    forward: tuple[ServiceSpec, ...]
    reverse: tuple[ServiceSpec, ...] = ()
    cross_traffic: tuple[CrossTraffic, ...] = ()
    update_bytes: int = DEFAULT_UPDATE_BYTES
    ack_bytes: int = DEFAULT_ACK_BYTES

    def __post_init__(self):
        if not self.forward:
            raise ConfigError("network needs at least one forward node")
        for flow in self.cross_traffic:
            if flow.entry >= len(self.forward):
                raise ConfigError(
                    f"cross-traffic entry {flow.entry} outside forward chain of {len(self.forward)} nodes"
                )

    @staticmethod
    def from_dict(doc: dict) -> "QueueNetwork":
        """Build a network from a JSON-style dict; errors name the field."""
        if not isinstance(doc, dict):
            raise ConfigError("network config must be an object")
        if "forward" not in doc:
            raise ConfigError("network config missing required field 'forward'")
        _reject_unknown(doc, ("forward", "reverse", "cross_traffic", "update_bytes", "ack_bytes"), "network config")
        forward = tuple(_parse_service(n, f"forward[{i}]") for i, n in enumerate(_list_field(doc, "forward")))
        reverse = tuple(_parse_service(n, f"reverse[{i}]") for i, n in enumerate(_list_field(doc, "reverse")))
        cross = tuple(_parse_cross(c, f"cross_traffic[{i}]") for i, c in enumerate(_list_field(doc, "cross_traffic")))
        kwargs = {}
        for key in ("update_bytes", "ack_bytes"):
            if key in doc:
                _require_int(f"'{key}'", doc[key])
                if doc[key] <= 0:
                    raise ConfigError(f"'{key}' must be positive, got {doc[key]!r}")
                kwargs[key] = doc[key]
        return QueueNetwork(forward=forward, reverse=reverse, cross_traffic=cross, **kwargs)

    def cross_load(self, node_index: int) -> float:
        """Fraction of node capacity consumed by cross flows through it."""
        spec = self.forward[node_index]
        load = 0.0
        for flow in self.cross_traffic:
            if flow.entry <= node_index:
                load += flow.rate_pps / spec.effective_rate(flow.packet_bytes)
        return load


def _parse_service(node, where: str) -> ServiceSpec:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be an object with 'service' and 'rate'")
    try:
        kind = node["service"]
        rate = node["rate"]
    except KeyError as missing:
        raise ConfigError(f"{where} missing required field {missing.args[0]!r}") from None
    _reject_unknown(node, ("service", "rate"), where)
    _require_number(f"{where}.rate", rate)
    try:
        return ServiceSpec(kind=kind, rate=float(rate))
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


def _parse_cross(flow, where: str) -> CrossTraffic:
    if not isinstance(flow, dict):
        raise ConfigError(f"{where} must be an object")
    if "rate_bps" not in flow:
        raise ConfigError(f"{where} missing required field 'rate_bps'")
    _reject_unknown(flow, ("entry", "rate_bps", "packet_bytes"), where)
    entry, rate_bps = flow.get("entry", 0), flow["rate_bps"]
    packet_bytes = flow.get("packet_bytes", DEFAULT_UPDATE_BYTES)
    _require_int(f"{where}.entry", entry)
    _require_number(f"{where}.rate_bps", rate_bps)
    _require_int(f"{where}.packet_bytes", packet_bytes)
    try:
        return CrossTraffic(entry=entry, rate_bps=rate_bps, packet_bytes=packet_bytes)
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


# Packets move through the node array as tuples
#   (is_update, size_bytes, route_end, arrive, src, payload)
# route_end is the index one past the last node of the packet's route, where
# the engine schedules ``arrive(t, src, payload)``; cross traffic has no
# ``arrive`` (and no payload) and leaves the network silently.


class _Engine:
    """Closed-loop event loop over one node array of FCFS servers.

    Heap entries ``(t, order, handler, a, b)`` run as ``handler(t, a, b)``
    in time order, ties in insertion order.  Packets enter only at
    ``heads`` and every route ends at a head or at the array's end, so
    FCFS keeps entry order from one head to the next: ``enqueue`` walks a
    packet through that segment by Lindley's recursion and pushes one
    entry for its exit, ordered among equal-time events by when the
    packet entered.  That entry is the packet's ``arrive`` handler at the
    end of its route (none for cross traffic) and ``enqueue`` for the
    next segment otherwise.  Each update's stay at a node, clipped to
    [warmup, duration], adds to that node's backlog area.

    On ``det`` chains with commensurate periods a timer can tie with an ACK
    or another packet's exit; results there are reproducible only because
    ties break in insertion order."""

    def __init__(self, specs, seed: int, heads, warmup: float, duration: float):
        n = len(specs)
        self._service = [_service_fn(s, substream_seed(seed, f"service/{i}")) for i, s in enumerate(specs)]
        self._segment_end = [min((h for h in heads if h > i), default=n) for i in range(n)]
        self._free = [0.0] * n  # when each server finishes its last packet
        self._warmup = warmup
        self._duration = duration
        self.area = [0.0] * n
        self.heap: list = []
        self._order = 0

    def push(self, t: float, handler: Callable, a=None, b=None) -> None:
        self._order += 1
        heapq.heappush(self.heap, (t, self._order, handler, a, b))

    def enqueue(self, t: float, i: int, pkt) -> None:
        is_update, size, route_end, arrive, src, payload = pkt
        end = self._segment_end[i]
        free, area, service = self._free, self.area, self._service
        warmup, duration = self._warmup, self._duration
        for j in range(i, end):
            busy = free[j]
            leave = free[j] = (busy if busy > t else t) + service[j](size)
            if is_update:
                stay = (leave if leave < duration else duration) - (t if t > warmup else warmup)
                if stay > 0.0:
                    area[j] += stay
            t = leave
        if end < route_end:
            self.push(t, self.enqueue, end, pkt)
        elif arrive is not None:
            self.push(t, arrive, src, payload)

    def run(self) -> None:
        """Drain events up to ``duration``; later events are dropped."""
        heap, pop, duration = self.heap, heapq.heappop, self._duration
        while heap:
            t, _, handler, a, b = pop(heap)
            if t > duration:
                break
            handler(t, a, b)

    def window_backlogs(self) -> tuple[float, ...]:
        window = self._duration - self._warmup
        return tuple(area / window for area in self.area)


def accepted_resets(seqs, gen_times, deliver_times) -> tuple[np.ndarray, np.ndarray]:
    """Filter a delivery log down to its freshest-wins age resets."""
    seqs = np.asarray(seqs, dtype=np.int64)
    gen = np.asarray(gen_times, dtype=float)
    dlv = np.asarray(deliver_times, dtype=float)
    if len(seqs) == 0:
        return gen, dlv
    prev_max = np.maximum.accumulate(np.concatenate(([np.int64(-1)], seqs[:-1])))
    keep = seqs > prev_max
    return gen[keep], dlv[keep]


@dataclass(frozen=True)
class AoiMetrics:
    """Time-average results of one simulated run (warm-up excluded)."""

    avg_age: float
    avg_backlog_per_node: tuple[float, ...]
    avg_system_time: float
    throughput_updates: float
    throughput_bps: float
    delivered: int
    unstable: bool
    duration: float
    warmup: float
    node_time_in_system_sum: tuple[float, ...] = ()
    node_departs: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """All fields but the per-node tallies, which are for tests only."""
        doc = asdict(self)
        del doc["node_time_in_system_sum"], doc["node_departs"]
        return doc


def _renewal_times(rate: float, duration: float, seed: Optional[int]) -> np.ndarray:
    """Instants ``0, g1, g1+g2, ...`` up to ``duration`` of a renewal process.

    The gaps are unit-exponential draws from substream ``seed`` over
    ``rate`` (Poisson), or ``1/rate`` each when ``seed`` is None
    (periodic).  They are added left to right, so every instant is the
    float an event loop adding one gap per event computes.  Each chunk of
    gaps is drawn, scaled and summed in one buffer that starts with the
    last instant of the chunk before; with one chunk, as is usual, the
    result is a view of that buffer.
    """
    gen = None if seed is None else np.random.Generator(np.random.PCG64(seed))
    expected = rate * duration
    chunk = int(expected + 4.0 * math.sqrt(expected)) + 16
    parts = []
    t = 0.0
    while True:
        times = np.empty(chunk + 1)
        times[0] = t
        gaps = times[1:]
        if gen is None:
            gaps.fill(1.0 / rate)
        else:
            gen.standard_exponential(out=gaps)
            gaps /= rate
        np.cumsum(times, out=times)
        end = int(np.searchsorted(times, duration, side="right"))
        parts.append(times[1 if parts else 0 : end])
        if end <= chunk:
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        t = times[-1]


def _service_fn(spec: ServiceSpec, seed: int) -> Callable[[float], float]:
    """Packet size -> service seconds at one node (``exp``: one draw each)."""
    rate = spec.rate
    if spec.kind == "exp":
        draw = DrawStream(seed, 1.0).draw
        return lambda size: draw() / rate
    if spec.kind == "det":
        period = 1.0 / rate
        return lambda size: period
    return lambda size: 8.0 * size / rate


def _service_times(spec: ServiceSpec, count: int, sizes, seed: int) -> np.ndarray:
    """Service time of each of ``count`` packets, in the order the node
    serves them, in a new buffer; ``sizes`` is one size for all or an array."""
    service = np.empty(count)
    if spec.kind == "exp":
        np.random.Generator(np.random.PCG64(seed)).standard_exponential(out=service)
        service /= spec.rate
    elif spec.kind == "det":
        service.fill(1.0 / spec.rate)
    else:
        np.multiply(8.0, sizes, out=service)
        service /= spec.rate
    return service


def _fcfs_node(arrive: np.ndarray, service: np.ndarray, updates, upd_in: np.ndarray, warmup: float, duration: float):
    """Departure instants of one FCFS server, and its update figures.

    Lindley's recursion ``D_k = max(A_k, D_{k-1}) + S_k`` in closed form:
    ``served + fmax.accumulate(arrive - (served - service))`` with
    ``served = cumsum(service)``.  Its temporaries take ``service``'s
    buffer and the departures ``served``'s.  Departures never decrease,
    in floating point too (a running max plus a cumsum of non-negative
    times), so the updates that leave by ``duration`` are a prefix.
    ``updates`` holds the updates' positions in service order, an
    increasing integer index, or is None when every packet is an update;
    ``upd_in`` is their arrival instants.  Returns the departures, the
    updates' departures, how many updates left by ``duration``, their
    summed time in system, and the summed stays of all updates clipped to
    [warmup, duration].
    """
    served = np.cumsum(service)
    np.subtract(served, service, out=service)
    np.subtract(arrive, service, out=service)
    # fmax, faster than maximum, differs from it only on NaN; every value
    # here is finite, as _require_positive rejects non-finite rates and spans
    np.fmax.accumulate(service, out=service)
    leave = np.add(served, service, out=served)
    upd_out = leave if updates is None else leave.take(updates)
    left = int(np.searchsorted(upd_out, duration, side="right"))
    scratch = service[: len(upd_out)]
    time_sum = float(np.sum(np.subtract(upd_out[:left], upd_in[:left], out=scratch[:left])))
    # each stay is min(leave, duration) - max(arrive, warmup), at least 0
    np.maximum(upd_in, warmup, out=scratch)
    np.subtract(upd_out[:left], scratch[:left], out=scratch[:left])
    np.subtract(duration, scratch[left:], out=scratch[left:])
    stay_sum = float(np.sum(np.maximum(scratch, 0.0, out=scratch)))
    return leave, upd_out, left, time_sum, stay_sum


def _open_loop(
    net: QueueNetwork,
    lam: float,
    arrival: str,
    duration: float,
    seed: int,
    warmup_frac: float,
) -> tuple[AoiMetrics, np.ndarray, np.ndarray]:
    _require_positive("lambda", lam)
    _require_positive("duration", duration)
    if arrival not in ARRIVAL_KINDS:
        raise ConfigError(f"arrival must be one of {ARRIVAL_KINDS}, got {arrival!r}")
    _require_warmup_frac(warmup_frac)

    n_fwd = len(net.forward)
    warmup = warmup_frac * duration
    window = duration - warmup
    update_size = float(net.update_bytes)
    fwd_seed = substream_seed(seed, "fwd")
    arrival_seed = substream_seed(seed, "arrivals") if arrival == "poisson" else None
    gen = _renewal_times(lam, duration, arrival_seed)
    cross = [
        (flow, _renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{i}"))[1:])
        for i, flow in enumerate(net.cross_traffic)
    ]

    # packets reaching the current node, in the order it serves them, and the
    # updates among them; until a cross flow enters all of them are updates:
    # no index, one size.  The updates reaching the next node are those that
    # left this one by the end of the run.
    arrive, upd_in = gen, gen
    updates, sizes = None, update_size
    backlogs, time_sums, departs = [], [], []
    for i, spec in enumerate(net.forward):
        entering = [(flow, times) for flow, times in cross if flow.entry == i]
        if entering:
            is_update = np.zeros(len(arrive) + sum(len(times) for _, times in entering), dtype=bool)
            if updates is None:
                is_update[: len(arrive)] = True
                sizes = np.full(len(arrive), update_size)
            else:
                is_update[updates] = True
            # a stable sort keeps through traffic ahead of cross traffic, and
            # flows in index order, at equal instants
            arrive = np.concatenate([arrive] + [times for _, times in entering])
            sizes = np.concatenate(
                [sizes] + [np.full(len(times), float(flow.packet_bytes)) for flow, times in entering]
            )
            order = np.argsort(arrive, kind="stable")
            arrive, sizes = arrive[order], sizes[order]
            updates = np.flatnonzero(is_update[order])
        service_seed = substream_seed(fwd_seed, f"service/{i}")
        # the service times go in unnamed, so their buffer is freed with the node
        leave, upd_out, left, time_sum, stay_sum = _fcfs_node(
            arrive, _service_times(spec, len(arrive), sizes, service_seed), updates, upd_in, warmup, duration
        )
        departs.append(left)
        time_sums.append(time_sum)
        backlogs.append(stay_sum / window)
        arrive, upd_in = leave[: int(np.searchsorted(leave, duration, side="right"))], upd_out[:left]
        if updates is not None:
            updates, sizes = updates[: int(np.searchsorted(updates, len(arrive)))], sizes[: len(arrive)]

    dlv = upd_in
    gen = gen[: len(dlv)]  # FCFS: updates leave the chain in the order they entered
    first = int(np.searchsorted(dlv, warmup, side="left"))  # deliveries in the window are a suffix
    delivered = len(dlv) - first
    avg_sys = float(np.mean(dlv[first:] - gen[first:])) if delivered else math.nan
    capacity = min(
        net.forward[i].effective_rate(update_size) * (1.0 - net.cross_load(i)) for i in range(n_fwd)
    )
    metrics = AoiMetrics(
        avg_age=age_time_average(gen, dlv, warmup, duration),
        avg_backlog_per_node=tuple(backlogs),
        avg_system_time=avg_sys,
        throughput_updates=delivered / window,
        throughput_bps=delivered * 8.0 * net.update_bytes / window,
        delivered=delivered,
        unstable=lam >= capacity,
        duration=duration,
        warmup=warmup,
        node_time_in_system_sum=tuple(time_sums),
        node_departs=tuple(departs),
    )
    return metrics, gen, dlv


def run_fixed_rate(
    net: QueueNetwork,
    lam: float,
    arrival: str = "poisson",
    duration: float = 10_000.0,
    seed: int = 0,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
) -> AoiMetrics:
    """Open-loop run: updates at rate ``lam`` through the forward chain.

    Unstable loads are simulated as requested and flagged in the result;
    the averages then describe the finite horizon only.  In a FCFS chain
    updates cannot overtake each other, so every delivery resets the age.
    """
    return _open_loop(net, lam, arrival, duration, seed, warmup_frac)[0]


@dataclass(frozen=True)
class SweepResult:
    best_lambda: float
    best_age: float
    rows: tuple[tuple[float, float, float], ...]  # (lambda, avg_age, ci_halfwidth)


def _window_ages(gen: np.ndarray, dlv: np.ndarray, edges: np.ndarray) -> list[float]:
    """``age_time_average`` over each window ``[edges[i], edges[i + 1]]``.

    Each call gets only the resets from the one in force at the window's
    start to the last one by its end; the others add nothing to the sum
    but zero-width terms, so only the summation order (round-off)
    separates a result from the call on the whole arrays.
    """
    cut = np.searchsorted(dlv, edges, side="right").tolist()
    return [
        age_time_average(gen[max(i - 1, 0) : j], dlv[max(i - 1, 0) : j], lo, hi)
        for i, j, lo, hi in zip(cut, cut[1:], edges, edges[1:])
    ]


def sweep_lambda(
    net: QueueNetwork,
    grid,
    duration: float,
    seed: int = 0,
    arrival: str = "poisson",
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
) -> SweepResult:
    """Open-loop age curve across a rate grid, with the empirical minimizer.

    The point at position ``idx`` of the grid runs on substream
    ``sweep/{idx}``: it is reproducible while its position holds, whatever
    the other points' rates, but inserting or removing an earlier point
    re-seeds every later one.  The half-width column is a 95% batch-means
    interval.  The minimizer is taken over the points with a defined age;
    if none has one, ``best_lambda`` and ``best_age`` are NaN.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    rows = []
    for idx, lam in enumerate(grid):
        point_seed = substream_seed(seed, f"sweep/{idx}")
        metrics, gen, dlv = _open_loop(net, lam, arrival, duration, point_seed, warmup_frac)
        edges = np.linspace(metrics.warmup, duration, _SWEEP_BATCHES + 1)
        means = [m for m in _window_ages(gen, dlv, edges) if not math.isnan(m)]
        if len(means) >= 2:
            half = 1.96 * float(np.std(means, ddof=1)) / math.sqrt(len(means))
        else:
            half = math.nan
        rows.append((lam, metrics.avg_age, half))
    defined = [row for row in rows if not math.isnan(row[1])]
    best = min(defined, key=lambda r: r[1]) if defined else (math.nan, math.nan)
    return SweepResult(best_lambda=best[0], best_age=best[1], rows=tuple(rows))


# -- closed loop --------------------------------------------------------------


@dataclass(frozen=True)
class SourceStats:
    """Per-source outcome of a closed-loop run (warm-up excluded)."""

    source: int
    est_avg_age: float
    est_avg_backlog: float
    true_avg_age: float
    est_minus_true_age: float  # how far the source's age estimate overshoots
    mean_rate: float
    lambda_final: Optional[float]
    epochs: int
    delivered: int
    throughput_updates: float
    throughput_bps: float
    avg_rtt: Optional[float]
    fresh_acks: int
    stale_acks: int


@dataclass(frozen=True)
class ClosedLoopResult:
    """Outcome of a closed-loop run: per-source stats plus node backlogs."""

    sources: tuple[SourceStats, ...]
    forward_backlogs: tuple[float, ...]
    reverse_backlogs: tuple[float, ...]
    fairness_true_age: Optional[float]
    fairness_est_age: Optional[float]
    duration: float
    warmup: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_closed_loop(
    net: QueueNetwork,
    policy: str = "acp_plus",
    n_sources: int = 1,
    duration: float = 300.0,
    seed: int = 0,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
    cfg: Optional[SourceConfig] = None,
) -> ClosedLoopResult:
    """Run source/monitor endpoint pairs over the simulated network.

    Every source runs the full connection lifecycle (probing, then
    control epochs) with its updates crossing the shared forward chain
    and its ACKs the reverse chain; ACKs occupy the reverse links as
    ``net.ack_bytes``-sized packets.  Per-node backlog figures count
    update packets across all sources.
    """
    if not net.reverse:
        raise ConfigError("closed-loop runs need a reverse chain for ACKs")
    if not isinstance(n_sources, int) or isinstance(n_sources, bool) or n_sources < 1:
        raise ConfigError(f"n_sources must be a positive integer, got {n_sources!r}")
    _require_positive("duration", duration)
    _require_warmup_frac(warmup_frac)
    if cfg is None:
        cfg = SourceConfig(policy=policy)
    elif cfg.policy != policy:
        raise ConfigError(f"cfg.policy {cfg.policy!r} disagrees with policy {policy!r}")
    warmup = warmup_frac * duration
    # sources start at offsets in [0, probe_timeout): inside the warm-up, or
    # inside the run when it has none
    start_limit, limit_name = (warmup, "warm-up end") if warmup else (duration, "duration")
    if cfg.probe_timeout > start_limit:
        raise ConfigError(
            f"probe_timeout {cfg.probe_timeout} s lets a source start after the {limit_name} at {start_limit} s"
        )

    n_fwd = len(net.forward)
    n_all = n_fwd + len(net.reverse)
    sessions = [SourceSession(cfg) for _ in range(n_sources)]
    monitors = [MonitorSession() for _ in range(n_sources)]
    # (instant, phase) of each source's live timer entry, (None, None) once
    # it ran; an entry runs only if both match.  The phase is the session's
    # state, init or run.  Within a phase a source's deadlines never fall (a
    # probe leaves no earlier than the one before, send instants strictly
    # increase), so an entry left behind fires before the armed instant.  But
    # probe timeouts left pending by the ACK that ends probing can fall on a
    # later send's instant: their phase tells them apart.
    armed = [(None, None)] * n_sources
    ack_size = float(net.ack_bytes)
    # 8 B per instant, each read back as a built-in float
    cross_times = [
        array("d", _renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{i}"))[1:].tobytes())
        for i, flow in enumerate(net.cross_traffic)
    ]

    def after_session_call(t: float, src: int, frames) -> None:
        session = sessions[src]
        for frame in frames:
            engine.enqueue(t, 0, (True, float(len(frame)), n_fwd, update_arrives, src, frame))
        deadline, phase = session.next_deadline(), session.state
        if deadline != armed[src][0]:
            armed[src] = (deadline, phase)
            if deadline <= duration:
                engine.push(deadline, on_timer, src, phase)

    def on_start(t: float, src: int, _) -> None:
        after_session_call(t, src, sessions[src].on_start(t))

    def on_timer(t: float, src: int, phase: str) -> None:
        if (t, phase) == armed[src]:
            armed[src] = (None, None)
            after_session_call(t, src, sessions[src].on_timer(t))

    def on_cross(t: float, flow_idx: int, k: int) -> None:
        flow = net.cross_traffic[flow_idx]
        engine.enqueue(t, flow.entry, (False, float(flow.packet_bytes), n_fwd, None, -1, None))
        times = cross_times[flow_idx]
        if k + 1 < len(times):
            engine.push(times[k + 1], on_cross, flow_idx, k + 1)

    def update_arrives(t: float, src: int, frame: bytes) -> None:
        reply = monitors[src].on_datagram(t, frame)
        if reply is not None:
            engine.enqueue(t, n_fwd, (False, ack_size, n_all, ack_arrives, src, reply))

    def ack_arrives(t: float, src: int, frame: bytes) -> None:
        after_session_call(t, src, sessions[src].on_datagram(t, frame))

    heads = {0, n_fwd} | {flow.entry for flow in net.cross_traffic}
    specs = tuple(net.forward) + tuple(net.reverse)
    engine = _Engine(specs, substream_seed(seed, "net"), heads, warmup, duration)
    for src in range(n_sources):
        start = np.random.Generator(np.random.PCG64(substream_seed(seed, f"start/{src}"))).random()
        engine.push(start * cfg.probe_timeout, on_start, src)
    for i, times in enumerate(cross_times):
        if times:
            engine.push(times[0], on_cross, i, 0)

    engine.run()

    window = duration - warmup
    frame_bytes = wire.HEADER_LEN + cfg.payload_size
    stats = []
    for src in range(n_sources):
        session, monitor = sessions[src], monitors[src]
        est_age, est_backlog, mean_rate = session.epoch_averages(warmup)
        true_age = monitor.true_avg_age(warmup, duration)
        delivered = len(monitor.deliver_times) - bisect_left(monitor.deliver_times, warmup)
        stats.append(
            SourceStats(
                source=src,
                est_avg_age=est_age,
                est_avg_backlog=est_backlog,
                true_avg_age=true_age,
                est_minus_true_age=est_age - true_age,
                mean_rate=mean_rate,
                lambda_final=session.lambda_final,
                epochs=session.epoch_index,
                delivered=delivered,
                throughput_updates=delivered / window,
                throughput_bps=delivered * 8.0 * frame_bytes / window,
                avg_rtt=session.avg_rtt,
                fresh_acks=session.fresh_acks,
                stale_acks=session.stale_acks,
            )
        )
    true_ages = [s.true_avg_age for s in stats]
    est_ages = [s.est_avg_age for s in stats]
    backlogs = engine.window_backlogs()
    return ClosedLoopResult(
        sources=tuple(stats),
        forward_backlogs=backlogs[:n_fwd],
        reverse_backlogs=backlogs[n_fwd:],
        fairness_true_age=_maybe_jain(true_ages),
        fairness_est_age=_maybe_jain(est_ages),
        duration=duration,
        warmup=warmup,
    )


def _maybe_jain(values) -> Optional[float]:
    try:
        return jain_index(values)
    except ValueError:
        return None
