"""Every public entry checks its inputs: one property over a table of entries.

Each argument in turn gets a garbage value (a bool, a string, None, NaN,
±inf, zero, a negative number, a float where an int is wanted, a list).
The call must raise ``ConfigError`` (``StabilityError`` for an analytic
rate outside the stability region), or return what the valid equivalent
returns: an accepted int at a float argument runs as that float.  Any
other exception, such as a ``TypeError`` deep in a run, fails.
"""

import math

from hypothesis import given, note, settings
from hypothesis import strategies as st

from agectl import ConfigError, wire
from agectl.analytics import StabilityError, aoi_dm1, aoi_md1, aoi_mm1, aoi_tandem, optimal_lambda
from agectl.controller import RateController
from agectl.endpoints import SimulatedPath, SourceConfig, age_time_average, require_monitor_limits, run_source
from agectl.estimator import SourceEstimator
from agectl.simkit import CrossTraffic, QueueNetwork, ServiceSpec, run_closed_loop, run_fixed_rate, sweep_lambda

GARBAGE = st.one_of(
    st.booleans(),
    st.text(alphabet="0123456789.-x", max_size=4),  # cannot spell a policy, kind or arrival
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0]),
    st.integers(-(10**6), -1),
    st.floats(-1e6, -1e-9),
    st.floats(0.5, 4.0),  # a float where an int is wanted, and at a float argument a valid value
    st.lists(st.integers(0, 3), max_size=2),
)


# What an accepted garbage value must be equivalent to, by the argument's kind;
# an AssertionError marks a value that must have been rejected.


def _int(value):
    assert type(value) is int, value
    return value


def _float(value):
    assert type(value) in (int, float) and math.isfinite(value), value
    return float(value)


def _never(value):
    raise AssertionError(f"accepted {value!r}")


def _or_none(kind):
    return lambda value: None if value is None else kind(value)


def _rates(value):
    assert isinstance(value, list), value
    return [_float(rate) for rate in value]


def _round_trip(**path_kwargs):
    """An update's ACK over a ``SimulatedPath``: (frame or None if lost, arrival instant)."""
    path = SimulatedPath(**path_kwargs)
    path.send(wire.encode_update(1, 0))
    return path.recv(10.0)


def _source(cfg, duration):
    """The summary of a live-driver run over a fresh ``SimulatedPath``."""
    return run_source(SimulatedPath(), cfg, duration)[0]


def _controller(initial_rate, updates_per_epoch):
    ctl = RateController(initial_rate, updates_per_epoch)
    return ctl.rate, ctl.epoch_length()


def _estimator(alpha):
    est = SourceEstimator(alpha)
    for k, (sent, acked) in enumerate(((0.0, 0.5), (1.0, 2.0)), start=1):
        est.on_send(sent, round(sent * 1e6))
        est.on_ack(acked, k, round(sent * 1e6))
    return est.rtt_ewma


EXP = ServiceSpec("exp", 1.0)
NET = QueueNetwork((EXP,), (ServiceSpec("exp", 10.0),))
OPEN = {"net": (NET, _never), "arrival": ("poisson", _never), "duration": (20.0, _float), "seed": (1, _int),
        "warmup_frac": (0.1, _float)}

# entry -> (callable, {argument: (valid value, equivalent of an accepted value)})
ENTRIES = {
    "ServiceSpec": (ServiceSpec, {"kind": ("exp", _never), "rate": (1.0, _float)}),
    "CrossTraffic": (CrossTraffic, {"entry": (0, _int), "rate_bps": (1e3, _float), "packet_bytes": (100, _int)}),
    "QueueNetwork": (QueueNetwork, {
        "forward": ((EXP,), _never), "reverse": ((EXP,), _never), "cross_traffic": ((CrossTraffic(0, 1e3, 100),), _never),
        "update_bytes": (1040, _int), "ack_bytes": (64, _int),
    }),
    "SourceConfig": (SourceConfig, {
        "policy": ("acp_plus", _never), "payload_size": (1024, _int), "probe_count": (10, _int),
        "probe_timeout": (1.0, _float), "updates_per_epoch": (10, _int), "alpha": (0.25, _float),
    }),
    "run_fixed_rate": (run_fixed_rate, {**OPEN, "lam": (0.5, _float)}),
    "sweep_lambda": (sweep_lambda, {**OPEN, "grid": ([0.5], _rates)}),
    "run_closed_loop": (lambda **kw: run_closed_loop(**kw).to_dict(), {
        "net": (NET, _never), "policy": ("acp_plus", _never), "n_sources": (1, _int), "duration": (10.0, _float),
        "seed": (1, _int), "warmup_frac": (0.1, _float), "cfg": (None, _or_none(_never)),
    }),
    "SimulatedPath": (_round_trip, {
        "fwd_delay": (0.01, _float), "rev_delay": (0.01, _float), "loss": (0.0, _float), "seed": (1, _int),
    }),
    "SimulatedPath exp mean": (lambda mean: _round_trip(fwd_delay=("exp", mean)), {"mean": (0.01, _float)}),
    "run_source": (_source, {"cfg": (SourceConfig(), _never), "duration": (1.0, _float)}),
    "RateController": (_controller, {"initial_rate": (1.0, _float), "updates_per_epoch": (10, _int)}),
    "SourceEstimator": (_estimator, {"alpha": (0.25, _float)}),
    "require_monitor_limits": (require_monitor_limits, {
        "duration": (None, _or_none(_float)), "max_updates": (None, _or_none(_int)),
    }),
    "aoi_mm1": (aoi_mm1, {"lam": (0.5, _float), "mu": (1.0, _float)}),
    "aoi_tandem": (aoi_tandem, {"lam": (0.5, _float), "mu1": (1.0, _float), "mu2": (2.0, _float)}),
    "aoi_dm1": (aoi_dm1, {"lam": (0.5, _float), "mu": (1.0, _float)}),
    "aoi_md1": (aoi_md1, {"lam": (0.5, _float), "mu": (1.0, _float)}),
    "age_time_average": (lambda lo, hi: age_time_average([0.0, 1.0], [1.0, 2.0], lo, hi), {
        "lo": (0.0, _float), "hi": (3.0, _float),
    }),
    "optimal_lambda": (lambda lo, hi: optimal_lambda(lambda lam: aoi_mm1(lam, 1.0), lo, hi), {
        "lo": (0.1, _float), "hi": (0.9, _float),
    }),
}


@settings(max_examples=100, deadline=None)
@given(bad=GARBAGE)
def test_every_entry_rejects_garbage_with_a_typed_error_or_runs_its_valid_equivalent(bad):
    for name, (entry, args) in ENTRIES.items():
        valid = {arg: value for arg, (value, _) in args.items()}
        for arg, (_, equivalent) in args.items():
            note(f"{name} with {arg}={bad!r}")  # the last note names the failing call
            try:
                got = entry(**{**valid, arg: bad})
            except (ConfigError, StabilityError):
                continue
            want = entry(**{**valid, arg: equivalent(bad)})
            assert got == want or repr(got) == repr(want), (name, arg, bad)


# An int too large for a float is a valid int (a seed may be one) but no
# number: int arguments take it, so it is not among GARBAGE.
HUGE = 10**400


def test_an_int_too_large_for_a_float_is_a_config_error():
    calls = {
        "ServiceSpec": lambda: ServiceSpec("exp", HUGE),
        "run_fixed_rate": lambda: run_fixed_rate(NET, HUGE, duration=20.0),
        "aoi_mm1 lam": lambda: aoi_mm1(HUGE, 1.0),
        "aoi_mm1 mu": lambda: aoi_mm1(0.5, HUGE),
    }
    for name, call in calls.items():
        try:
            call()
        except ConfigError as err:
            assert "too large for a float" in str(err), name
        else:
            raise AssertionError(f"{name} accepted an int of 401 digits")
