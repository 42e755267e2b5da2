"""The benchmark's per-layer tracer (perfbench/tracer.py) still hooks the package.

The tracer wraps layer entry points by name from outside ``src/``; a
refactor that renames one or calls it another way would leave the traced
benchmark counting nothing.  Its own count identities catch that here.
"""

import importlib.util
from pathlib import Path

from agectl.endpoints import SimulatedPath, SourceConfig, run_source
from agectl.simkit import QueueNetwork, ServiceSpec, run_closed_loop

TRACER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

NET = QueueNetwork(
    forward=(ServiceSpec("exp", 1.0), ServiceSpec("exp", 1.0)),
    reverse=(ServiceSpec("exp", 16.25), ServiceSpec("exp", 16.25)),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing, run):
    """Run ``run`` (which returns its delivered updates) under its own
    Tracer; the tracer's count identities must hold for that run alone."""
    tracer = tracing.Tracer()
    try:
        updates = run()
    finally:
        tracer.uninstall()
    assert tracer.invariant_failures({"updates": updates}) == []
    return tracer


def closed_loop_updates():
    result = run_closed_loop(NET, "acp_plus", 2, duration=300.0, seed=1)
    return sum(s.delivered for s in result.sources)


def simulated_path_updates():
    path = SimulatedPath(fwd_delay=("exp", 0.01), rev_delay=("exp", 0.01), loss=0.05, seed=3)
    run_source(path, SourceConfig(policy="acp_plus", probe_count=3), duration=20.0)
    return path.monitor.accepted


def test_tracer_hooks_every_layer_and_uninstalls():
    tracing = load_tracer()
    hooked = [(owner, attr) for owner, attr, _ in tracing.SPANS]
    hooked += [(cls, "__init__") for cls, _ in tracing.INSTANCES]
    originals = [getattr(owner, attr) for owner, attr in hooked]

    # one report per run: "engine events >= delivered updates" is about the
    # engine's own updates, so the path's must not count towards it
    engine = traced(tracing, closed_loop_updates)
    path = traced(tracing, simulated_path_updates)

    assert len(engine.made["engines"]) == 1 and len(engine.made["sources"]) == 2
    assert not path.made["engines"] and len(path.made["sources"]) == 1
    for name in tracing.PER_CALL:
        if name.startswith(("wire.", "endpoints.")):
            assert engine.calls[name] + path.calls[name] > 0, name
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(hooked, originals))
