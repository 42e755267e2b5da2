"""Per-layer tracing from outside the package.

``Tracer()`` replaces the public entry points of each layer with wrappers
that count calls and accumulate self time (a span's duration minus the
part its child spans cover), and records every engine, source and
monitor object created while it is installed.  Nothing under ``src/`` is
edited; ``uninstall`` puts the originals back.  Spans are aggregated per
name as they close instead of being kept one by one, which is all the
per-layer figures need.

A wrapper's own cost lands in its parent's self time, so traced
nanoseconds per call are upper bounds; ``run.py`` reports the overall
cost as ``trace.overhead_frac``.
"""

from __future__ import annotations

import time
from collections import defaultdict

from agectl import controller, endpoints, estimator, simkit, wire

# (owner, attribute, span name): the calls into each layer
SPANS = (
    (simkit._Engine, "run", "simkit.engine"),
    (simkit, "age_time_average", "simkit.age_time_average"),
    (wire, "encode_update", "wire.encode_update"),
    (wire, "decode_update", "wire.decode_update"),
    (wire, "encode_ack", "wire.encode_ack"),
    (wire, "decode_ack", "wire.decode_ack"),
    (estimator.SourceEstimator, "on_send", "estimator.on_send"),
    (estimator.SourceEstimator, "on_ack", "estimator.on_ack"),
    (estimator.SourceEstimator, "close_epoch", "estimator.close_epoch"),
    (controller.RateController, "decide", "controller.decide"),
    (controller.RateController, "update_rate", "controller.update_rate"),
    (endpoints.SourceSession, "on_timer", "endpoints.source.on_timer"),
    (endpoints.SourceSession, "on_datagram", "endpoints.source.on_datagram"),
    (endpoints.MonitorSession, "on_datagram", "endpoints.monitor.on_datagram"),
    (endpoints.SimulatedPath, "recv", "endpoints.SimulatedPath.recv"),
)

# spans reported as .calls and .ns_per_call (the engine gets its own figures)
PER_CALL = tuple(name for _, _, name in SPANS if name != "simkit.engine")

# classes whose instances the layer figures and invariants read
INSTANCES = (
    (simkit._Engine, "engines"),
    (endpoints.SourceSession, "sources"),
    (endpoints.MonitorSession, "monitors"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.made = {key: [] for _, key in INSTANCES}
        self._stack: list[int] = []  # child time of each open span
        self._undo = []
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        for cls, key in INSTANCES:
            self._replace(cls, "__init__", self._recorder(self.made[key], cls.__init__))

    def _replace(self, owner, attr, fn) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _span(self, name, fn):
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_ns[name] += took - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += took

        return traced

    @staticmethod
    def _recorder(made, init):
        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            made.append(obj)

        return recording_init

    # -- figures ------------------------------------------------------------------

    def _totals(self) -> dict:
        sources, monitors = self.made["sources"], self.made["monitors"]
        epochs = [rec for s in sources for rec in s.trace]
        return {
            "events": sum(e._order for e in self.made["engines"]),  # one per _Engine.push
            "sends": sum(s.sends for s in sources),
            "epochs": sum(s.epoch_index for s in sources),
            "mdec_epochs": sum(1 for rec in epochs if (rec["action"] or "").startswith("MDEC")),
            "fresh_acks": sum(s.fresh_acks for s in sources),
            "stale_acks": sum(s.stale_acks for s in sources),
            "malformed_acks": sum(s.malformed for s in sources),
            "accepted": sum(m.accepted for m in monitors),
            "stale": sum(m.stale for m in monitors),
            "malformed": sum(m.malformed for m in monitors),
        }

    def layer_metrics(self, report: dict, run_s: float) -> tuple[dict, dict]:
        """Per-layer figures of the traced run, and the call counts they rest on."""
        calls, self_ns, tot = self.calls, self.self_ns, self._totals()
        acks = tot["fresh_acks"] + tot["stale_acks"]
        seen = tot["accepted"] + tot["stale"] + tot["malformed"]
        engine_ns = self_ns["simkit.engine"]
        out = {
            "simkit.events": tot["events"],
            "simkit.events_per_update": _ratio(tot["events"], report["updates"]),
            "simkit.engine_self_frac": engine_ns / 1e9 / run_s,
            "simkit.ns_per_event": _ratio(engine_ns, tot["events"]),
            "simkit.fwd_backlog_max": report.get("fwd_backlog_max", 0.0),
            "wire.decodes_per_send": _ratio(calls["wire.decode_update"], tot["sends"]),
            "estimator.fresh_ack_frac": _ratio(tot["fresh_acks"], acks),
            "controller.mdec_frac": _ratio(tot["mdec_epochs"], tot["epochs"]),
            "endpoints.monitor.stale_frac": _ratio(tot["stale"], seen),
            "endpoints.source.stale_ack_frac": _ratio(tot["stale_acks"], acks),
        }
        for name in PER_CALL:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ns_per_call"] = _ratio(self_ns[name], calls[name])
        counts = {name: calls[name] for name in PER_CALL}
        counts.update(tot)
        return out, counts

    def invariant_failures(self, report: dict) -> list[str]:
        """Count identities a wrapper that misses calls would break."""
        c, tot = self.calls, self._totals()
        sends = tot["sends"]
        checks = [
            ("wire.encode_update == estimator.on_send == updates sent",
             c["wire.encode_update"] == c["estimator.on_send"] == sends),
            ("wire.decode_ack == endpoints.source.on_datagram",
             c["wire.decode_ack"] == c["endpoints.source.on_datagram"]),
            ("ACKs decoded - malformed <= estimator.on_ack <= wire.decode_ack",
             c["wire.decode_ack"] - tot["malformed_acks"] <= c["estimator.on_ack"] <= c["wire.decode_ack"]),
            ("endpoints.monitor.on_datagram == monitor accepted + stale + malformed",
             c["endpoints.monitor.on_datagram"] == tot["accepted"] + tot["stale"] + tot["malformed"]),
            ("wire.encode_ack == monitor accepted", c["wire.encode_ack"] == tot["accepted"]),
            # each update the monitor sees is decoded there, and the simulator
            # may decode each sent frame once more on its way in
            ("monitor datagrams <= wire.decode_update <= monitor datagrams + sends",
             c["endpoints.monitor.on_datagram"] <= c["wire.decode_update"] <= c["endpoints.monitor.on_datagram"] + sends),
            ("estimator.close_epoch == epochs closed", c["estimator.close_epoch"] == tot["epochs"]),
            ("controller.update_rate == controller.decide <= epochs",
             c["controller.update_rate"] == c["controller.decide"] <= tot["epochs"]),
            ("engine events >= delivered updates when an engine ran",
             not self.made["engines"] or tot["events"] >= report["updates"]),
        ]
        return [f"trace invariant broken: {what}" for what, held in checks if not held]


def _ratio(num, den) -> float:
    """num/den, or 0.0 for a layer that did no work in this workload."""
    return num / den if den else 0.0
