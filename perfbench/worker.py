"""One benchmark job in a fresh process: set up, run one workload, check it.

``run.py`` starts this script once per job and reads the JSON object it
prints as its last line.  The job loads the generated config with
``cli.load_config``, builds the network with ``QueueNetwork.from_dict``,
notes the host clock at that point (the end of set-up), runs the
workload, and then, outside the timed region, computes the workload's
figures, its correctness gate and a digest of everything it produced.
Right after set-up, between the parts of a workload that has parts
(sweep points, connections) and right after the run it also times a
fixed reference loop, which tells ``run.py`` how fast the host ran
meanwhile; those timings are not part of the run's time.

    python3 perfbench/worker.py --workload tandem_open --config CFG.json [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCE_ITERATIONS = 60_000


def reference_s() -> float:
    """Host time of a fixed pure-Python loop of heap, tuple and dict work,
    the kind of work the simulator does."""
    heap, table = [], {}
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 4099, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        table[i & 1023] = (i, heap[0])
    return time.perf_counter() - start


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- workloads ----------------------------------------------------------------------
#
# Each times the public calls it makes and returns (outputs, seconds); a
# workload made of parts appends a reference timing to ``refs`` after each.


def _timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def run_tandem_open(simkit, doc, net, work, refs):
    return _timed(simkit.run_fixed_rate, net, doc["lambda"], doc["arrival"], doc["duration"], doc["seed"])


def run_sixhop_sweep(simkit, doc, net, work, refs):
    # sweep_lambda returns only (lambda, age, ci) rows; the per-point metrics
    # (delivered count, node backlogs) are read off the function it calls per
    # point, through a pass-through wrapper.
    points, first = [], len(refs)
    inner = simkit._open_loop

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        points.append(out[0])
        refs.append(reference_s())
        return out

    simkit._open_loop = recording
    try:
        result, took = _timed(simkit.sweep_lambda, net, doc["grid"], doc["duration"], doc["seed"])
    finally:
        simkit._open_loop = inner
    return (result, points), took - sum(refs[first:])


def run_sixhop_closed6(simkit, doc, net, work, refs):
    return _timed(simkit.run_closed_loop, net, doc["policy"], doc["n_sources"], doc["duration"], doc["seed"])


def run_lossy_driver(simkit, doc, net, work, refs):
    """One connection per seed in ``doc["seeds"]``, one after another, each
    reduced to its figures before the next starts."""
    from agectl import endpoints

    connections, took = [], 0.0
    sink = work / f"lossy_driver-{doc['seeds'][0]}.jsonl"
    for seed in doc["seeds"]:
        path = endpoints.SimulatedPath(
            tuple(doc["fwd_delay"]), tuple(doc["rev_delay"]), loss=doc["loss"], seed=seed
        )
        with sink.open("w") as handle:

            def write(record):
                handle.write(json.dumps(record) + "\n")
                handle.flush()  # as `agectl source --trace` does

            (summary, session), seconds = _timed(
                endpoints.run_source, path, endpoints.SourceConfig(policy=doc["policy"]), doc["duration"], write
            )
        took += seconds
        connections.append(_lossy_connection(doc, summary, session, path))
        refs.append(reference_s())
    sink.unlink()
    return connections, took


def _lossy_connection(doc, summary, session, path) -> dict:
    monitor = path.monitor
    # both ages over the same window: the control epochs, less the leading
    # warm-up share the simulator also excludes
    first_span = session.epoch_spans[0][0] if session.epoch_spans else 0.0
    start = session.trace[0]["t"] - first_span if session.trace else 0.0
    skip = doc["warmup_frac"] * doc["duration"]
    return {
        "summary": summary,
        "epochs": _digest(list(session.trace)),
        "resets": _digest(monitor.trace),
        "monitor": [monitor.accepted, monitor.stale, monitor.malformed],
        "est_age": session.est_avg_age(skip_time=skip),
        "true_age": monitor.true_avg_age(start + skip, path.now()),
    }


RUNNERS = {
    "tandem_open": run_tandem_open,
    "sixhop_sweep": run_sixhop_sweep,
    "sixhop_closed6": run_sixhop_closed6,
    "lossy_driver": run_lossy_driver,
}


# -- figures, gates and digests (outside the timed region) -------------------------
#
# Each returns (report, failures, digest_doc).  ``report["updates"]`` is the
# count of delivered, age-resetting updates that updates_per_s divides by.
# Gate thresholds are the acceptance suite's (tests/test_acceptance.py).


def check_tandem_open(doc, raw):
    from agectl import analytics

    mu1, mu2 = (node["rate"] for node in doc["net"]["forward"])
    analytic = analytics.aoi_tandem(doc["lambda"], mu1, mu2)
    rel = abs(raw.avg_age - analytic) / analytic
    report = {
        "updates": raw.delivered,
        "true_age_ms": raw.avg_age * 1e3,
        "age_rel_err": rel,
        "fwd_backlog_max": max(raw.avg_backlog_per_node),
    }
    failures = [] if rel <= 0.02 else [f"age {raw.avg_age} is {rel:.2%} off aoi_tandem {analytic} (c01: 2%)"]
    return report, failures, raw.to_dict()


def check_sixhop_sweep(doc, raw):
    result, points = raw
    ages = [row[1] for row in result.rows]
    report = {
        "updates": sum(m.delivered for m in points),
        "true_age_ms": result.best_age * 1e3,
        "fwd_backlog_max": max(max(m.avg_backlog_per_node) for m in points),
    }
    failures = [
        f"grid end age {age} < 1.5x minimum {result.best_age} (c05)"
        for age in (ages[0], ages[-1])
        if not age >= 1.5 * result.best_age
    ]
    return report, failures, {"rows": result.rows, "best": [result.best_lambda, result.best_age]}


def check_sixhop_closed6(doc, raw):
    true_ages = [s.true_avg_age for s in raw.sources]
    est_ages = [s.est_avg_age for s in raw.sources]
    failures = []
    if not all(math.isfinite(a) for a in true_ages + est_ages):
        failures.append(f"non-finite source ages: true {true_ages}, estimated {est_ages}")
    if raw.fairness_true_age is None or not raw.fairness_true_age >= 0.95:
        failures.append(f"Jain index {raw.fairness_true_age} < 0.95 (c09)")
    report = {
        "updates": sum(s.delivered for s in raw.sources),
        "true_age_ms": sum(true_ages) / len(true_ages) * 1e3,
        "est_age_gap_ms": sum(e - t for e, t in zip(est_ages, true_ages)) / len(true_ages) * 1e3,
        "jain_fairness": raw.fairness_true_age,
        "fwd_backlog_max": max(raw.forward_backlogs),
    }
    return report, failures, raw.to_dict()


def check_lossy_driver(doc, raw):
    failures = []
    for i, conn in enumerate(raw):
        if not (math.isfinite(conn["est_age"]) and math.isfinite(conn["true_age"])):
            failures.append(f"connection {i}: non-finite ages: estimated {conn['est_age']}, true {conn['true_age']}")
        if conn["monitor"][0] < 1:
            failures.append(f"connection {i}: monitor accepted no update")
    n = len(raw)
    report = {
        "updates": sum(conn["monitor"][0] for conn in raw),
        "true_age_ms": sum(conn["true_age"] for conn in raw) / n * 1e3,
        "est_age_gap_ms": sum(conn["est_age"] - conn["true_age"] for conn in raw) / n * 1e3,
    }
    return report, failures, raw


CHECKS = {
    "tandem_open": check_tandem_open,
    "sixhop_sweep": check_sixhop_sweep,
    "sixhop_closed6": check_sixhop_closed6,
    "lossy_driver": check_lossy_driver,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--trace", action="store_true", help="wrap every layer call and report per-layer figures")
    parser.add_argument("--setup-only", action="store_true", help="stop at the end of set-up")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import numpy
    from agectl import cli, simkit

    t1 = time.perf_counter()
    doc, _raw = cli.load_config(str(args.config))
    t2 = time.perf_counter()
    net = simkit.QueueNetwork.from_dict(doc["net"]) if "net" in doc else None
    t3 = time.perf_counter()
    out = {
        "setup_end": time.monotonic(),
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "from_dict_s": t3 - t2,
        "numpy": numpy.__version__,
        "reference_s": [reference_s()],
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/tracer.py, next to this file

        tracer = Tracer()
    try:
        raw, out["run_s"] = RUNNERS[args.workload](simkit, doc, net, args.config.parent, out["reference_s"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["reference_s"].append(reference_s())
    report, failures, digest_doc = CHECKS[args.workload](doc, raw)
    if tracer is not None:
        out["layers"], out["calls"] = tracer.layer_metrics(report, out["run_s"])
        failures += tracer.invariant_failures(report)
    out.update(
        report=report,
        failures=failures,
        digest=_digest(digest_doc),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
