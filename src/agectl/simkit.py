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
cross flows entering there, drops those flows' instants, and applies
Lindley's recursion ``D_k = max(A_k, D_{k-1}) + S_k`` in closed form
(``_fcfs_node``), one block of ``_BLOCK`` packets at a time: the
service times, their running sum and the recursion's temporaries live in
two buffers of one block, and only the departures are as long as the
run.  A node ``_queue_free`` marks never holds a queue (its docstring has
the rule and the argument): its departures are its arrivals plus
service, with no running sum or max, and no service array when its
packets have one size; past the last node that can queue (``_tail``),
the run carries the updates alone.  FCFS departures never decrease (with
several sizes at a pure delay, unless its service times are within the
instants' rounding error), so the packets that leave a node by the end
of the run are a prefix, taken as a view, not through a mask.  A node's
figures take the arrivals' buffer as scratch once the departures are
out, except at node 0, whose arrivals may be the generation instants.
Until a cross flow enters, every packet is an update and a run holds at
most three float arrays per update: generation instants, a node's
arrivals (or node 0's scratch) and its departures, or, at the end, the
generation and delivery instants and ``clipped_age_areas``'s areas,
which it builds a block at a time.  From the first
merge on, the updates are tracked by their positions in service order,
one int64 index built at each merge, and a node also holds the packets'
sizes if they differ: a node takes the updates' departures from its own
through that index, and those that left by the end of the run are the
next node's update arrivals as they are.  Beside the merged arrays that
makes three 8-byte arrays per update: the updates' arrivals, departures
and positions.
Closed-loop runs, where the endpoints react to every delivery, apply it
one packet at a time: a packet is walked through its whole FCFS segment
(the nodes up to the next entry point) when it enters, and an event heap
that breaks time ties by insertion order holds one entry for its exit
into the next segment.  The walk follows a list of (node, service time,
is a delay) triples built with ``_fixed_service``.  Routes are resolved
per packet kind (updates, ACKs, each cross flow) at the start of the run,
one walk per segment, and each packet carries its route, so no walk is
looked up per packet; only ``exp`` nodes draw (``_exp_draw``), once per
visit.  The open loop's rule holds here on both chains: a node that never
holds a queue is a pure delay, with no max and no server state, and cross
traffic's route ends at the open loop's ``_tail``, past which nothing
reads it.
A packet carries its arrival handler.  An update that ends its route by
the end of the run arrives within the walk: its monitor runs at the exit
instant and its ACK is walked through the reverse chain there, so a
round trip takes two heap entries, the send timer and the ACK's arrival
at the source.  Cross traffic ends with no entry.  A source's timer
takes one heap entry per session call that returned a frame (the only
calls that move its deadline), tagged with the source's send count; an
entry runs only if no update was sent since, and the start is the entry
tagged 0.  Source k starts at an offset drawn from its own substream,
uniform on [0, probe_timeout), so no two sources' timers share an
instant and no result depends on how the heap breaks a tie between them;
that span must end within the warm-up.

The sink applies the freshest-wins rule: a delivered update resets the
age process only if it is newer than everything delivered before it.
Metrics are computed from the delivery log after the run, excluding a
configurable warm-up window.  A sweep point's run average and its
batch-means windows share one pass over the age areas: each window sums
the run's areas in place, with its two end areas put in for the sum.  A
sweep does the per-net set-up once (``_open_plan``) and frees each
point's arrays before the next point runs, so no two points are in memory
at once.  Per-node backlog figures count update
packets only (not cross traffic, not ACKs), so a closed loop reports
them for the forward chain alone.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import ConfigError, _require_int, _require_number, _require_positive, wire
from .endpoints import CheckedRecord, DrawStream, MonitorSession, SourceConfig, SourceSession
from .endpoints import age_time_average  # noqa: F401 (callers bind simkit.age_time_average)
from .endpoints import _BLOCK, clipped_age_areas, substream_seed

SERVICE_KINDS = ("exp", "det", "link")
ARRIVAL_KINDS = ("poisson", "periodic")

DEFAULT_UPDATE_BYTES = 1040  # 16-byte header + 1024-byte payload
DEFAULT_ACK_BYTES = 64
DEFAULT_WARMUP_FRAC = 0.10

_SWEEP_BATCHES = 10  # batch means behind each sweep point's interval


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
    _require_number("warmup_frac", warmup_frac)
    if not 0.0 <= warmup_frac < 1.0:
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


class _ServiceSpec(NamedTuple):
    kind: str
    rate: float


class ServiceSpec(CheckedRecord, _ServiceSpec):
    """One FCFS server: exponential(rate), deterministic(1/rate) seconds,
    or a link transmitting at rate bits/s (service time scales with the
    packet size; the other kinds are size-independent)."""

    __slots__ = ()

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ConfigError(f"service kind must be one of {SERVICE_KINDS}, got {self.kind!r}")
        _require_positive("service rate", self.rate)

    def effective_rate(self, packet_bytes: float) -> float:
        """Packets/second this server sustains for the given packet size."""
        if self.kind == "link":
            return self.rate / (8.0 * packet_bytes)
        return self.rate


class _CrossTraffic(NamedTuple):
    entry: int
    rate_bps: float
    packet_bytes: int


class CrossTraffic(CheckedRecord, _CrossTraffic):
    """Poisson background flow of fixed-size packets entering at a
    forward node and riding the chain to the sink."""

    __slots__ = ()

    def __post_init__(self):
        _require_int("cross-traffic entry", self.entry)
        if self.entry < 0:
            raise ConfigError(f"cross-traffic entry node must be >= 0, got {self.entry}")
        _require_positive("cross-traffic rate_bps", self.rate_bps)
        _require_int("cross-traffic packet_bytes", self.packet_bytes)
        _require_positive("cross-traffic packet_bytes", self.packet_bytes)

    @property
    def rate_pps(self) -> float:
        return self.rate_bps / (8.0 * self.packet_bytes)


class _QueueNetwork(NamedTuple):
    forward: tuple[ServiceSpec, ...]
    reverse: tuple[ServiceSpec, ...] = ()
    cross_traffic: tuple[CrossTraffic, ...] = ()
    update_bytes: int = DEFAULT_UPDATE_BYTES
    ack_bytes: int = DEFAULT_ACK_BYTES


class QueueNetwork(CheckedRecord, _QueueNetwork):
    """Forward chain (source to monitor), optional reverse chain for ACKs."""

    __slots__ = ()

    def __post_init__(self):
        for name, kind in (("forward", ServiceSpec), ("reverse", ServiceSpec), ("cross_traffic", CrossTraffic)):
            members = getattr(self, name)
            if not (isinstance(members, tuple) and all(isinstance(m, kind) for m in members)):
                raise ConfigError(f"{name} must be a tuple of {kind.__name__}, got {members!r}")
        if not self.forward:
            raise ConfigError("network needs at least one forward node")
        for name in ("update_bytes", "ack_bytes"):
            _require_int(name, getattr(self, name))
            _require_positive(name, getattr(self, name))
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
        sizes = {key: doc[key] for key in ("update_bytes", "ack_bytes") if key in doc}
        return QueueNetwork(forward=forward, reverse=reverse, cross_traffic=cross, **sizes)

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
    try:
        return ServiceSpec(kind=kind, rate=rate)
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


def _parse_cross(flow, where: str) -> CrossTraffic:
    if not isinstance(flow, dict):
        raise ConfigError(f"{where} must be an object")
    if "rate_bps" not in flow:
        raise ConfigError(f"{where} missing required field 'rate_bps'")
    _reject_unknown(flow, ("entry", "rate_bps", "packet_bytes"), where)
    try:
        return CrossTraffic(flow.get("entry", 0), flow["rate_bps"], flow.get("packet_bytes", DEFAULT_UPDATE_BYTES))
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


# Packets move through the node array as tuples (is_update, arrive, src,
# payload, route).  ``route`` is what ``_Engine.route`` resolved for the
# packet's size, entry point and route end, where the engine calls (updates)
# or schedules (ACKs) ``arrive(t, src, payload)``; cross traffic has no
# ``arrive`` (and no payload) and leaves silently at the forward chain's ``_tail``.


class _Engine:
    """Closed-loop event loop over one node array of FCFS servers.

    Heap entries ``(t, order, handler, a, b)`` run as ``handler(t, a, b)``
    in time order, ties in insertion order.  Packets enter only at
    ``heads``, so FCFS keeps entry order from one head to the next:
    ``enqueue`` walks a packet by Lindley's recursion through that
    segment, or up to the end of its route if that comes first.  If the
    route goes on, it pushes one entry for the exit, ``enqueue`` for the
    next segment, ordered among equal-time events by when the packet
    entered.
    At the end of the route an update exiting by ``duration`` calls its
    ``arrive`` at once, ahead of the clock; a later one never arrives.
    Any other packet pushes its ``arrive`` (cross traffic has none).
    Each update's stay at a node, clipped to [warmup, duration], adds to
    that node's backlog area; only updates add area, so only the nodes
    they pass hold any.

    The arrival rule: an update's ``arrive`` may enqueue only at a head
    that nothing else enters.  The calls then reach that head in the
    order the updates left their last segment, which is the order their
    exits would have run from the heap, so each monitor and the nodes
    behind that head see what they would if each arrival were an entry
    of its own; only the insertion order of the entries pushed from
    there moves (the tie rule below).  In ``run_closed_loop`` updates
    arrive at the reverse chain's head, which only ACKs enter.

    ``_draws`` holds each ``exp`` node's ``_exp_draw`` and None at every
    other node.  Routes are resolved per packet kind at the start of the
    run: ``route`` gives, for each head on a route, the walk from that
    head to the end of its segment or of the route, whichever comes
    first, that end, and whether the route goes on past it.  A walk is
    one (node, service time, is a delay) triple per node, built by
    ``_walk`` with ``_fixed_service``, with None at ``exp`` nodes: only
    they draw, once per visit in visit order from their own substream.
    Each packet carries its route, so ``enqueue`` reads its walk by the
    head alone.  Updates take a loop that adds the backlog areas; every
    other packet takes one without them.

    ``delays`` marks the nodes that ``_queue_free`` finds can never hold
    a queue; it marks no head, so such a node serves its packets in the
    order the node before it releases them, as that argument needs.
    There ``max(free, t)`` is always ``t``, so the walk gives ``leave = t
    + serve`` and neither reads nor stores the node's ``free``, which
    nothing else reads.  This changes no instant, heap entry or backlog
    area.

    The tie rule: on ``det`` chains with commensurate periods a timer can
    tie with an ACK or another packet's exit; results there are
    reproducible only because ties break in insertion order.  An ACK's
    entry is pushed when its update enters the last forward segment, so
    the ACK runs after any entry pushed before that."""

    def __init__(self, specs, seed: int, heads, warmup: float, duration: float, delays):
        n = len(specs)
        self._specs = specs
        self._draws = [  # per node, its exp draw (once per visit) or None
            _exp_draw(s, substream_seed(seed, f"service/{i}")) if s.kind == "exp" else None for i, s in enumerate(specs)
        ]
        self._delays = delays  # nodes that never hold a queue
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

    def _walk(self, size: float, i: int, end: int) -> list:
        """[(node, service time or None where it draws, is a delay)] from ``i`` up to ``end``."""
        specs, draws, delays = self._specs, self._draws, self._delays
        return [(j, None if draws[j] else _fixed_service(specs[j], size), delays[j]) for j in range(i, end)]

    def route(self, size: float, head: int, route_end: int) -> list:
        """The route of a packet of ``size`` bytes from ``head`` to ``route_end``:
        at each head it enters, (walk, segment end, goes on), and None elsewhere."""
        route = [None] * len(self._free)
        i = head
        while True:
            end = min(self._segment_end[i], route_end)
            route[i] = (self._walk(size, i, end), end, end < route_end)
            if end == route_end:
                return route
            i = end

    def enqueue(self, t: float, i: int, pkt) -> None:
        is_update, arrive, src, payload, route = pkt
        walk, end, goes_on = route[i]
        free, draws = self._free, self._draws
        if is_update:
            area, warmup, duration = self.area, self._warmup, self._duration
            for j, serve, delay in walk:
                if delay:
                    leave = t + serve
                else:
                    busy = free[j]
                    if serve is None:
                        serve = draws[j]()
                    leave = free[j] = (busy if busy > t else t) + serve
                stay = (leave if leave < duration else duration) - (t if t > warmup else warmup)
                if stay > 0.0:
                    area[j] += stay
                t = leave
            if goes_on:
                self.push(t, self.enqueue, end, pkt)
            elif t <= duration:
                arrive(t, src, payload)
            return
        for j, serve, delay in walk:
            if delay:
                t += serve
            else:
                busy = free[j]
                if serve is None:
                    serve = draws[j]()
                t = free[j] = (busy if busy > t else t) + serve
        if goes_on:
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


class AoiMetrics(NamedTuple):
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
        doc = self._asdict()
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


def _exp_draw(spec: ServiceSpec, seed: int) -> Callable[[], float]:
    """Service seconds at an ``exp`` node, one draw per call from substream ``seed``."""
    draw, rate = DrawStream(seed, 1.0).draw, spec.rate
    return lambda: draw() / rate


def _fixed_service(spec: ServiceSpec, size):
    """Service seconds at a ``det`` or ``link`` node of a packet of ``size``
    bytes, or of each of an array of sizes (``det``: one time for all)."""
    return 1.0 / spec.rate if spec.kind == "det" else 8.0 * size / spec.rate


def _queue_free(chain, size: float, cross=()) -> tuple[bool, ...]:
    """Which nodes of a chain can never hold a queue, when packets of
    ``size`` bytes enter at node 0 and the flows in ``cross`` further on.

    Node ``i`` cannot when ``i > 0``, no flow enters there, nodes ``i - 1``
    and ``i`` are both ``det`` or ``link``, and over the packet sizes that
    pass both, the longest service time at ``i`` is no longer than the
    shortest at ``i - 1``, each computed as ``_fixed_service`` does.  Node
    ``i`` serves the packets in the order node ``i - 1`` releases them, so
    with primes marking node ``i - 1``, by induction on k and as rounding
    is monotone, ``A_k = fl(max(A'_k, D'_{k-1}) + S'_k) >= fl(D'_{k-1} +
    S_{k-1}) = D_{k-1}``: every packet finds the server idle, and the FCFS
    recursion gives ``D_k = fl(A_k + S_k)``, a pure delay (Friedman,
    "Reduction methods for tandem queuing systems", Oper. Res. 1965).
    This holds in both loops: the open loop's forward chain carries the
    updates' ``net.update_bytes``; the closed loop's carries the frames'
    ``wire.HEADER_LEN + payload_size`` and its reverse chain the ACKs'
    ``net.ack_bytes``.
    """
    sizes = {float(size)}
    free = [False]
    for i in range(1, len(chain)):
        sizes.update(float(flow.packet_bytes) for flow in cross if flow.entry == i - 1)
        before, spec = chain[i - 1], chain[i]
        free.append(
            "exp" not in (before.kind, spec.kind)
            and all(flow.entry != i for flow in cross)
            and max(_fixed_service(spec, s) for s in sizes) <= min(_fixed_service(before, s) for s in sizes)
        )
    return tuple(free)


def _tail(free) -> int:
    """One past the last node that can queue, of a chain ``_queue_free``
    marked ``free``: past it nothing waits, so only the updates need to go on."""
    return max(i for i, delay in enumerate(free) if not delay) + 1


def _fcfs_node(spec: ServiceSpec, arrive: np.ndarray, sizes, seed: int) -> np.ndarray:
    """Departure instants, in a new array, of one FCFS node that may hold a
    queue, from its packets' arrival instants in the order it serves them;
    ``sizes`` is one size for all or an array, and ``seed`` the node's
    substream, whose ``exp`` draws give the service times in that order.

    Lindley's recursion ``D_k = max(A_k, D_{k-1}) + S_k`` in closed form,
    ``served + fmax.accumulate(arrive - (served - service))`` with ``served
    = cumsum(service)``, one block of ``_BLOCK`` packets at a time.  The
    running sum and the running max go from block to block as the first
    value of the buffer each is accumulated in, so each departure is the
    float the whole-array expression gives.  Departures never decrease, in
    floating point too (a running max plus a cumsum of non-negative times).
    A node ``_queue_free`` marks needs no running sum or max: no packet
    waits there (its docstring has why), so its departures are its arrivals
    plus service.
    """
    n = len(arrive)
    leave = np.empty(n)
    draw = np.random.Generator(np.random.PCG64(seed)).standard_exponential if spec.kind == "exp" else None
    sized = isinstance(sizes, np.ndarray)
    work = np.empty(min(n, _BLOCK) + 1)  # [carry, service times], then the recursion's temporaries
    served = np.empty(len(work))
    total, peak = 0.0, -math.inf
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        block = work[: b - a + 1]
        service = block[1:]
        if draw is None:
            service[:] = _fixed_service(spec, sizes[a:b] if sized else sizes)
        else:
            draw(out=service)
            service /= spec.rate
        block[0] = total
        run = np.cumsum(block, out=served[: len(block)])[1:]
        np.subtract(run, service, out=service)
        np.subtract(arrive[a:b], service, out=service)
        # fmax, faster than maximum, differs from it only on NaN; every value
        # here is finite, as _require_positive rejects non-finite rates and spans
        block[0] = peak
        np.fmax.accumulate(block, out=block)
        np.add(run, service, out=leave[a:b])
        total, peak = run[-1], service[-1]
    return leave


def _update_figures(leave, scratch, updates, upd_in, warmup: float, duration: float):
    """One node's figures for the updates among the packets it served.

    ``updates`` holds the updates' positions in service order, an
    increasing integer index, or is None when every packet is an update;
    ``upd_in`` is their arrival instants, ``leave`` every packet's
    departure.  Departures never decrease, so the updates that leave by
    ``duration`` are a prefix.  The temporaries go in ``scratch``, at least
    as long as ``upd_in`` and possibly its own buffer: each place is read
    before it is written.  Returns the updates' departures, how many left
    by ``duration``, their summed time in system, and the summed stays of
    all updates clipped to [warmup, duration].
    """
    upd_out = leave if updates is None else leave.take(updates)
    left = int(upd_out.searchsorted(duration, "right"))
    early = min(int(upd_in.searchsorted(warmup)), left)  # left by duration, arrived before warmup
    scratch = scratch[: len(upd_out)]
    time_sum = float(np.subtract(upd_out[:left], upd_in[:left], out=scratch[:left]).sum())
    # each stay is min(leave, duration) - max(arrive, warmup), at least 0: for
    # the updates that arrived after warmup and left by duration, their time
    # in system, in place from the sum above
    np.subtract(upd_out[:early], warmup, out=scratch[:early])
    np.maximum(upd_in[left:], warmup, out=scratch[left:])
    np.subtract(duration, scratch[left:], out=scratch[left:])
    stay_sum = float(np.maximum(scratch, 0.0, out=scratch).sum())
    return upd_out, left, time_sum, stay_sum


def _open_plan(net: QueueNetwork) -> tuple[tuple[bool, ...], int, float]:
    """What an open-loop run takes from ``net`` alone, whatever its rate,
    seed and span: its forward chain's ``_queue_free`` marks, their
    ``_tail``, and the update rate from which some node is overloaded."""
    if not isinstance(net, QueueNetwork):
        raise ConfigError(f"net must be a QueueNetwork, got {net!r}")
    free = _queue_free(net.forward, net.update_bytes, net.cross_traffic)
    update_size = float(net.update_bytes)
    capacity = min(spec.effective_rate(update_size) * (1.0 - net.cross_load(i)) for i, spec in enumerate(net.forward))
    return free, _tail(free), capacity


def _open_loop(
    net: QueueNetwork,
    lam: float,
    arrival: str,
    duration: float,
    seed: int,
    warmup_frac: float,
    plan: Optional[tuple] = None,
) -> tuple[AoiMetrics, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One open-loop run: its metrics, the updates' generation and delivery
    instants, and the ``clipped_age_areas`` of those deliveries over
    [warmup, duration] behind ``avg_age``.  ``plan`` is ``_open_plan(net)``,
    if the caller has it."""
    free, tail, capacity = _open_plan(net) if plan is None else plan
    _require_positive("lambda", lam)
    _require_positive("duration", duration)
    if arrival not in ARRIVAL_KINDS:
        raise ConfigError(f"arrival must be one of {ARRIVAL_KINDS}, got {arrival!r}")
    _require_warmup_frac(warmup_frac)

    warmup = warmup_frac * duration
    window = duration - warmup
    update_size = float(net.update_bytes)
    fwd_seed = substream_seed(seed, "fwd")
    arrival_seed = substream_seed(seed, "arrivals") if arrival == "poisson" else None
    gen = _renewal_times(lam, duration, arrival_seed)
    # entry node -> [(instants, packet size)] of the flows entering there, in
    # index order; each node's are dropped once merged
    cross = {}
    for k, flow in enumerate(net.cross_traffic):
        times = _renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{k}"))[1:]
        cross.setdefault(flow.entry, []).append((times, float(flow.packet_bytes)))
        del times

    # packets reaching the current node, in the order it serves them, and the
    # updates among them; until a cross flow enters, and from the tail on, all
    # of them are updates: no index.  Their sizes are one float while all have
    # the updates' size.  The updates reaching the next node are those that
    # left this one by the end of the run.
    arrive, upd_in = gen, gen
    updates, sizes = None, update_size
    backlogs, time_sums, departs = [], [], []
    for i, spec in enumerate(net.forward):
        if i == tail:
            arrive, updates, sizes = upd_in, None, update_size
        if i in cross:
            parts = [(arrive, sizes), *cross.pop(i)]
            through = len(arrive)
            # a stable sort keeps through traffic ahead of cross traffic, and
            # flows in index order, at equal instants
            arrive = np.concatenate([times for times, _ in parts])
            order = arrive.argsort(kind="stable")
            arrive = arrive[order]
            if isinstance(sizes, np.ndarray) or any(size != update_size for _, size in parts[1:]):
                sizes = np.concatenate([np.broadcast_to(size, len(times)) for times, size in parts])[order]
            if updates is None:  # all through packets are updates, and come first
                updates = np.flatnonzero(order < through)
            else:
                is_update = np.zeros(len(arrive), dtype=bool)
                is_update[updates] = True
                updates = np.flatnonzero(is_update[order])
            del parts, order  # freed before the node allocates
        if free[i]:  # a pure delay
            leave = np.add(arrive, _fixed_service(spec, sizes))
        else:
            leave = _fcfs_node(spec, arrive, sizes, substream_seed(fwd_seed, f"service/{i}"))
        # the arrivals' buffer, read by now, is the figures' scratch; but node
        # 0's arrivals may be the generation instants, which the run keeps
        scratch = np.empty(len(arrive)) if arrive is gen else arrive
        upd_out, left, time_sum, stay_sum = _update_figures(leave, scratch, updates, upd_in, warmup, duration)
        del scratch  # freed with the node, before the next one allocates
        departs.append(left)
        time_sums.append(time_sum)
        backlogs.append(stay_sum / window)
        arrive, upd_in = leave[: int(leave.searchsorted(duration, "right"))], upd_out[:left]
        if updates is not None:
            updates = updates[: int(updates.searchsorted(len(arrive)))]
            if isinstance(sizes, np.ndarray):
                sizes = sizes[: len(arrive)]

    dlv = upd_in
    gen = gen[: len(dlv)]  # FCFS: updates leave the chain in the order they entered
    first = int(dlv.searchsorted(warmup))  # deliveries in the window are a suffix
    delivered = len(dlv) - first
    avg_sys = float((dlv[first:] - gen[first:]).mean()) if delivered else math.nan
    areas, start = clipped_age_areas(gen, dlv, warmup, duration)
    metrics = AoiMetrics(
        avg_age=math.nan if areas is None else float(areas.sum()) / (duration - start),
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
    return metrics, gen, dlv, areas


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


class SweepResult(NamedTuple):
    best_lambda: float
    best_age: float
    rows: tuple[tuple[float, float, float], ...]  # (lambda, avg_age, ci_halfwidth)


def _window_ages(gen: np.ndarray, dlv: np.ndarray, areas: Optional[np.ndarray], edges: np.ndarray) -> list[float]:
    """``age_time_average`` over each window ``[edges[i], edges[i + 1]]``.

    Bit for bit the call on the resets from the one in force at the
    window's start to the last one by its end.  ``areas`` is
    ``clipped_age_areas(gen, dlv, edges[0], edges[-1])[0]``: every area of a
    window but its first and last is one of them.  Each window's two end
    areas are computed as ``age_areas`` does, in built-in floats, and put
    in their places in ``areas`` for the sum, then the old values back.
    """
    cut = dlv.searchsorted(edges, "right").tolist()
    ages = []
    for i, j, lo, hi in zip(cut, cut[1:], edges.tolist(), edges[1:].tolist()):
        a = max(i - 1, 0)  # the reset in force at the window's start, or the first
        lo = max(lo, dlv.item(a)) if j > a else hi  # no age before the first reset
        if hi <= lo:
            ages.append(math.nan)
            continue
        d = dlv.item(j - 1)
        last = (hi - d) * ((d + hi) * 0.5 - gen.item(j - 1))
        end = dlv.item(a + 1) if j - a > 1 else hi
        first = (end - lo) * ((lo + end) * 0.5 - gen.item(a))
        saved = areas[a], areas[j - 1]
        areas[j - 1], areas[a] = last, first  # one reset in the window: its first area holds
        ages.append(float(areas[a:j].sum()) / (hi - lo))
        areas[a], areas[j - 1] = saved
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
    try:
        grid = list(grid)
    except TypeError:
        raise ConfigError(f"sweep grid must be a sequence of rates, got {grid!r}") from None
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    plan = _open_plan(net)
    _require_positive("duration", duration)
    _require_warmup_frac(warmup_frac)
    edges = np.linspace(warmup_frac * duration, duration, _SWEEP_BATCHES + 1)
    rows = []
    for idx, lam in enumerate(grid):
        point_seed = substream_seed(seed, f"sweep/{idx}")
        metrics, gen, dlv, areas = _open_loop(net, lam, arrival, duration, point_seed, warmup_frac, plan)
        means = [m for m in _window_ages(gen, dlv, areas, edges) if not math.isnan(m)]
        del gen, dlv, areas  # freed before the next point allocates
        if len(means) >= 2:
            half = 1.96 * float(np.std(means, ddof=1)) / math.sqrt(len(means))
        else:
            half = math.nan
        rows.append((float(lam), metrics.avg_age, half))
    defined = [row for row in rows if not math.isnan(row[1])]
    best = min(defined, key=lambda r: r[1]) if defined else (math.nan, math.nan)
    return SweepResult(best_lambda=best[0], best_age=best[1], rows=tuple(rows))


# -- closed loop --------------------------------------------------------------


class SourceStats(NamedTuple):
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


class ClosedLoopResult(NamedTuple):
    """Outcome of a closed-loop run: per-source stats plus the forward
    nodes' backlogs (updates never enter the reverse chain)."""

    sources: tuple[SourceStats, ...]
    forward_backlogs: tuple[float, ...]
    fairness_true_age: Optional[float]
    fairness_est_age: Optional[float]
    duration: float
    warmup: float

    def to_dict(self) -> dict:
        """The fields, with each source's stats as a dict."""
        return {**self._asdict(), "sources": tuple(s._asdict() for s in self.sources)}


def run_closed_loop(
    net: QueueNetwork,
    source: str | SourceConfig = "acp_plus",
    n_sources: int = 1,
    duration: float = 300.0,
    seed: int = 0,
    warmup_frac: float = DEFAULT_WARMUP_FRAC,
) -> ClosedLoopResult:
    """Run source/monitor endpoint pairs over the simulated network.

    Every source runs the full connection lifecycle (probing, then
    control epochs) with its updates crossing the shared forward chain
    and its ACKs the reverse chain; ACKs occupy the reverse links as
    ``net.ack_bytes``-sized packets.  Per-node backlog figures count
    update packets across all sources.

    ``source`` is a policy name or a ``SourceConfig``.  The updates are frames
    of ``wire.HEADER_LEN + payload_size`` bytes, so a ``net.update_bytes`` of
    any other size is a ConfigError.
    An explicit 1040 cannot be told apart from the default, and passes.
    """
    if not isinstance(net, QueueNetwork):
        raise ConfigError(f"net must be a QueueNetwork, got {net!r}")
    if not net.reverse:
        raise ConfigError("closed-loop runs need a reverse chain for ACKs")
    _require_int("n_sources", n_sources)
    _require_positive("n_sources", n_sources)
    _require_positive("duration", duration)
    _require_warmup_frac(warmup_frac)
    cfg = SourceConfig(policy=source) if isinstance(source, str) else source
    if not isinstance(cfg, SourceConfig):
        raise ConfigError(f"source must be a policy name or a SourceConfig, got {source!r}")
    # every frame a source sends has the same size, which _queue_free reads
    update_size = float(wire.HEADER_LEN + cfg.payload_size)
    if net.update_bytes not in (DEFAULT_UPDATE_BYTES, update_size):
        raise ConfigError(
            f"net.update_bytes {net.update_bytes} would be ignored: the closed loop's updates are frames "
            f"of {wire.HEADER_LEN} + payload_size = {update_size:g} bytes; set payload_size instead"
        )
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
    forward_free = _queue_free(net.forward, update_size, net.cross_traffic)
    tail = _tail(forward_free)  # where cross traffic leaves: nothing reads it further on
    # 8 B per instant, each read back as a built-in float
    cross_times = [
        array("d", _renewal_times(flow.rate_pps, duration, substream_seed(seed, f"cross/{i}"))[1:].tobytes())
        for i, flow in enumerate(net.cross_traffic)
    ]

    heads = {0, n_fwd} | {flow.entry for flow in net.cross_traffic}
    specs = tuple(net.forward) + tuple(net.reverse)
    delays = forward_free + _queue_free(net.reverse, ack_size)
    engine = _Engine(specs, substream_seed(seed, "net"), heads, warmup, duration, delays)
    push, enqueue = engine.push, engine.enqueue
    update_route = engine.route(update_size, 0, n_fwd)
    ack_route = engine.route(ack_size, n_fwd, n_all)
    # (entry, packet) per cross flow, whose packets are all alike
    cross_packets = []
    for flow in net.cross_traffic:
        size = float(flow.packet_bytes)
        cross_packets.append((flow.entry, (False, None, -1, None, engine.route(size, flow.entry, tail))))

    # each timer entry is tagged with its source's send count when pushed
    # (``estimator.highest_sent``, which ``SourceSession.sends`` returns)
    # and runs only if no update was sent since
    estimators = [session.estimator for session in sessions]

    def on_timer(t: float, src: int, sends: int) -> None:
        # a call that returns a frame moved the deadline: its entry goes in before the
        # frame's walk, so a send runs before an ACK that ties with it (as in ack_arrives)
        estimator = estimators[src]
        if sends == estimator.highest_sent:
            session = sessions[src]
            frame = session.on_timer(t)
            if frame is not None:
                if session.deadline <= duration:
                    push(session.deadline, on_timer, src, estimator.highest_sent)
                enqueue(t, 0, (True, update_arrives, src, frame, update_route))

    def on_cross(t: float, flow_idx: int, k: int) -> None:
        entry, pkt = cross_packets[flow_idx]
        enqueue(t, entry, pkt)
        times = cross_times[flow_idx]
        if k + 1 < len(times):
            push(times[k + 1], on_cross, flow_idx, k + 1)

    def update_arrives(t: float, src: int, frame: bytes) -> None:
        reply = monitors[src].on_datagram(t, frame)
        if reply is not None:
            enqueue(t, n_fwd, (False, ack_arrives, src, reply, ack_route))

    def ack_arrives(t: float, src: int, ack: bytes) -> None:
        # once epochs have begun an ACK returns no frame
        session = sessions[src]
        frame = session.on_datagram(t, ack)
        if frame is not None:
            if session.deadline <= duration:
                push(session.deadline, on_timer, src, estimators[src].highest_sent)
            enqueue(t, 0, (True, update_arrives, src, frame, update_route))

    for src in range(n_sources):
        start = np.random.Generator(np.random.PCG64(substream_seed(seed, f"start/{src}"))).random()
        push(start * cfg.probe_timeout, on_timer, src, 0)
    for i, times in enumerate(cross_times):
        if times:
            push(times[0], on_cross, i, 0)

    engine.run()

    window = duration - warmup
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
                throughput_bps=delivered * 8.0 * update_size / window,
                avg_rtt=session.avg_rtt,
                fresh_acks=session.fresh_acks,
                stale_acks=session.stale_acks,
            )
        )
    true_ages = [s.true_avg_age for s in stats]
    est_ages = [s.est_avg_age for s in stats]
    return ClosedLoopResult(
        sources=tuple(stats),
        forward_backlogs=engine.window_backlogs()[:n_fwd],  # updates never enter the reverse chain
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
