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
a view, not through a mask.  A ``det`` or ``link`` node that no cross
flow enters, with the spec of the node before it, reads its running sum
as a prefix of that node's, which puts its departures in its service
times' buffer instead.  Until a cross flow enters, every packet is an
update and a run holds at most five float arrays per update: generation
instants, a node's arrivals, service times, departures and a kept sum
or a scratch (or, at the end, ``age_time_average``'s three beside the
generation and delivery instants).  From the first merge on, a node also
holds the packets' sizes, and the updates are tracked by their positions
in service order, one int64 index built at each merge: a node takes the
updates' departures from its own through that index, and those that left
by the end of the run are the next node's update arrivals as they are.
Beside the merged arrays that makes three 8-byte arrays per update: the
updates' arrivals, departures and positions.
Closed-loop runs, where the endpoints react to every delivery, apply it
one packet at a time: a packet is walked through its whole FCFS segment
(the nodes up to the next entry point) when it enters, and an event heap
that breaks time ties by insertion order holds one entry for its exit
into the next segment.  The walk follows a list of (node, service time)
pairs per packet size and entry point, built from ``_service_fn`` when
that size first enters there; only ``exp`` nodes draw, once per visit.
A packet carries its arrival handler.  An update that ends its route by
the end of the run arrives within the walk: its monitor runs at the exit
instant and its ACK is walked through the reverse chain there, so a
round trip takes two heap entries, the send timer and the ACK's arrival
at the source.  Cross traffic ends with no entry.  A source's timer
takes one heap entry per session call that returned frames (the only
calls that move its deadline), tagged with the source's send count; an
entry runs only if no update was sent since, and the start is the entry
tagged 0.  Source k starts at an offset drawn from its own substream,
uniform on [0, probe_timeout), so no two sources' timers share an
instant and no result depends on how the heap breaks a tie between
them; that span must end within the warm-up.

The sink applies the freshest-wins rule: a delivered update resets the
age process only if it is newer than everything delivered before it.
Metrics are computed from the delivery log after the run, excluding a
configurable warm-up window; a sweep point's batch-means windows share
one pass over the age areas.  Per-node backlog figures count update
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
from .endpoints import age_areas

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
# the engine calls (updates) or schedules (ACKs) ``arrive(t, src, payload)``;
# cross traffic has no ``arrive`` (and no payload) and leaves silently.


class _Engine:
    """Closed-loop event loop over one node array of FCFS servers.

    Heap entries ``(t, order, handler, a, b)`` run as ``handler(t, a, b)``
    in time order, ties in insertion order.  Packets enter only at
    ``heads`` and every route ends at a head or at the array's end, so
    FCFS keeps entry order from one head to the next: ``enqueue`` walks a
    packet through that segment by Lindley's recursion.  If the route
    goes on, it pushes one entry for the exit, ``enqueue`` for the next
    segment, ordered among equal-time events by when the packet entered.
    At the end of the route an update exiting by ``duration`` calls its
    ``arrive`` at once, ahead of the clock; a later one never arrives.
    Any other packet pushes its ``arrive`` (cross traffic has none).
    Each update's stay at a node, clipped to [warmup, duration], adds to
    that node's backlog area.

    The arrival rule: an update's ``arrive`` may enqueue only at a head
    that nothing else enters.  The calls then reach that head in the
    order the updates left their last segment, which is the order their
    exits would have run from the heap, so each monitor and the nodes
    behind that head see what they would if each arrival were an entry
    of its own; only the insertion order of the entries pushed from
    there moves (the tie rule below).  In ``run_closed_loop`` updates
    arrive at the reverse chain's head, which only ACKs enter.

    ``_service`` holds each node's ``_service_fn``, the one definition of
    a service time.  ``_walks`` maps a packet size and a head to the walk
    through that head's segment: one (node, service time) pair per node,
    built from those functions when the size first enters there, with
    None at ``exp`` nodes: only they call their function, drawing once
    per visit in visit order from their own substream.  Updates take a
    loop that adds the backlog areas; every other packet takes one
    without them.

    The tie rule: on ``det`` chains with commensurate periods a timer can
    tie with an ACK or another packet's exit; results there are
    reproducible only because ties break in insertion order.  An ACK's
    entry is pushed when its update enters the last forward segment, so
    the ACK runs after any entry pushed before that."""

    def __init__(self, specs, seed: int, heads, warmup: float, duration: float):
        n = len(specs)
        self._service = [_service_fn(s, substream_seed(seed, f"service/{i}")) for i, s in enumerate(specs)]
        self._draws = [s.kind == "exp" for s in specs]  # nodes that draw once per visit
        self._walks: dict = {}  # (packet size, head) -> [(node, service time or None where it draws)]
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

    def _walk(self, size: float, i: int) -> list:
        # a method of its own: a comprehension inside ``enqueue`` would make
        # the locals it reads closure cells there, slower to read on every hop
        # (before Python 3.12, which inlines comprehensions)
        service, draws = self._service, self._draws
        walk = self._walks[size, i] = [
            (j, None if draws[j] else service[j](size)) for j in range(i, self._segment_end[i])
        ]
        return walk

    def enqueue(self, t: float, i: int, pkt) -> None:
        is_update, size, route_end, arrive, src, payload = pkt
        walk = self._walks.get((size, i))
        if walk is None:  # the first packet of this size to enter here
            walk = self._walk(size, i)
        free, service = self._free, self._service
        if is_update:
            area, warmup, duration = self.area, self._warmup, self._duration
            for j, serve in walk:
                busy = free[j]
                if serve is None:
                    serve = service[j](size)
                leave = free[j] = (busy if busy > t else t) + serve
                stay = (leave if leave < duration else duration) - (t if t > warmup else warmup)
                if stay > 0.0:
                    area[j] += stay
                t = leave
            end = self._segment_end[i]
            if end < route_end:
                self.push(t, self.enqueue, end, pkt)
            elif t <= duration:
                arrive(t, src, payload)
            return
        for j, serve in walk:
            busy = free[j]
            if serve is None:
                serve = service[j](size)
            t = free[j] = (busy if busy > t else t) + serve
        end = self._segment_end[i]
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


def _fcfs_node(arrive: np.ndarray, service: np.ndarray, served, keep, updates, upd_in, warmup: float, duration: float):
    """Departure instants of one FCFS server, and its update figures.

    Lindley's recursion ``D_k = max(A_k, D_{k-1}) + S_k`` in closed form:
    ``served + fmax.accumulate(arrive - (served - service))`` with
    ``served = cumsum(service)``, or a prefix of the one the node before
    kept.  Its temporaries take ``service``'s buffer and the departures
    ``served``'s, or, to ``keep`` it for the next node, ``service``'s and
    the scratch ``arrive``'s, owned and read by then if ``updates`` is an
    index, else a new buffer.  Departures never decrease, in floating point
    too (a running max plus a cumsum of non-negative times), so the updates
    that leave by ``duration`` are a prefix.  ``updates`` holds the updates'
    positions in service order, an increasing integer index, or is None
    when every packet is an update; ``upd_in`` is their arrival instants.
    Returns the departures, the kept ``served`` or None, the updates'
    departures, how many left by ``duration``, their summed time in system,
    and the summed stays of all updates clipped to [warmup, duration].
    """
    served = np.cumsum(service) if served is None else served[: len(arrive)]
    np.subtract(served, service, out=service)
    np.subtract(arrive, service, out=service)
    # fmax, faster than maximum, differs from it only on NaN; every value
    # here is finite, as _require_positive rejects non-finite rates and spans
    np.fmax.accumulate(service, out=service)
    leave = np.add(served, service, out=service if keep else served)
    upd_out = leave if updates is None else leave.take(updates)
    left = int(np.searchsorted(upd_out, duration, side="right"))
    scratch = ((arrive if updates is not None else np.empty(len(arrive))) if keep else service)[: len(upd_out)]
    time_sum = float(np.sum(np.subtract(upd_out[:left], upd_in[:left], out=scratch[:left])))
    # each stay is min(leave, duration) - max(arrive, warmup), at least 0
    np.maximum(upd_in, warmup, out=scratch)
    np.subtract(upd_out[:left], scratch[:left], out=scratch[:left])
    np.subtract(duration, scratch[left:], out=scratch[left:])
    stay_sum = float(np.sum(np.maximum(scratch, 0.0, out=scratch)))
    return leave, served if keep else None, upd_out, left, time_sum, stay_sum


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
    updates, sizes, served = None, update_size, None
    backlogs, time_sums, departs = [], [], []
    entries = tuple(flow.entry for flow in net.cross_traffic)
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
        node_seed = substream_seed(fwd_seed, f"service/{i}")
        keep = spec.kind != "exp" and net.forward[i + 1 : i + 2] == (spec,) and i + 1 not in entries
        # the service times go in unnamed, so their buffer is freed with the node
        leave, served, upd_out, left, time_sum, stay_sum = _fcfs_node(
            arrive, _service_times(spec, len(arrive), sizes, node_seed), served, keep, updates, upd_in, warmup, duration
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

    Bit for bit the call on the resets from the one in force at the
    window's start to the last one by its end: all its areas but the first
    and last are those of the whole run, computed once.  ``dlv`` must not
    decrease, as ``age_time_average`` checks on the whole run.
    """
    areas = age_areas(gen[:-1], dlv[:-1], dlv[1:])
    cut = np.searchsorted(dlv, edges, side="right").tolist()
    ages = []
    for i, j, lo, hi in zip(cut, cut[1:], edges.tolist(), edges[1:].tolist()):
        a = max(i - 1, 0)  # the reset in force at the window's start, or the first
        lo = max(lo, float(dlv[a])) if j > a else hi  # no age before the first reset
        if hi <= lo:
            ages.append(math.nan)
            continue
        window = np.empty(j - a)
        window[:-1] = areas[a : j - 1]
        window[-1] = age_areas(gen[j - 1], dlv[j - 1], hi)
        window[0] = age_areas(gen[a], lo, dlv[a + 1] if j - a > 1 else hi)
        ages.append(float(window.sum()) / (hi - lo))
    return ages


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
    ack_size = float(net.ack_bytes)
    # 8 B per instant, each read back as a built-in float
    cross_times = [
        array("d", _renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{i}"))[1:].tobytes())
        for i, flow in enumerate(net.cross_traffic)
    ]

    # each timer entry is tagged with its source's send count when pushed
    # (``estimator.highest_sent``, which ``SourceSession.sends`` returns)
    # and runs only if no update was sent since
    estimators = [session.estimator for session in sessions]

    def after_session_call(t: float, src: int, frames) -> None:
        # called only with frames: only such a call moves the deadline; the
        # new timer entry goes in before the frames' ACKs, so a send still
        # runs before an ACK that ties with it
        session = sessions[src]
        if session.deadline <= duration:
            push(session.deadline, on_timer, src, estimators[src].highest_sent)
        for frame in frames:
            enqueue(t, 0, (True, float(len(frame)), n_fwd, update_arrives, src, frame))

    def on_timer(t: float, src: int, sends: int) -> None:
        if sends == estimators[src].highest_sent:
            frames = sessions[src].on_timer(t)
            if frames:
                after_session_call(t, src, frames)

    def on_cross(t: float, flow_idx: int, k: int) -> None:
        flow = net.cross_traffic[flow_idx]
        enqueue(t, flow.entry, (False, float(flow.packet_bytes), n_fwd, None, -1, None))
        times = cross_times[flow_idx]
        if k + 1 < len(times):
            push(times[k + 1], on_cross, flow_idx, k + 1)

    def update_arrives(t: float, src: int, frame: bytes) -> None:
        reply = monitors[src].on_datagram(t, frame)
        if reply is not None:
            enqueue(t, n_fwd, (False, ack_size, n_all, ack_arrives, src, reply))

    def ack_arrives(t: float, src: int, frame: bytes) -> None:
        # once epochs have begun an ACK returns no frames
        frames = sessions[src].on_datagram(t, frame)
        if frames:
            after_session_call(t, src, frames)

    heads = {0, n_fwd} | {flow.entry for flow in net.cross_traffic}
    specs = tuple(net.forward) + tuple(net.reverse)
    engine = _Engine(specs, substream_seed(seed, "net"), heads, warmup, duration)
    push, enqueue = engine.push, engine.enqueue
    for src in range(n_sources):
        start = np.random.Generator(np.random.PCG64(substream_seed(seed, f"start/{src}"))).random()
        push(start * cfg.probe_timeout, on_timer, src, 0)
    for i, times in enumerate(cross_times):
        if times:
            push(times[0], on_cross, i, 0)

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
