"""Command-line surface: live endpoints, simulations, sweeps, analytics.

Commands
--------
  monitor   serve a monitor on a UDP port, writing age resets as JSONL
  source    run a source against a monitor (acp_plus / lazy / fixed:R)
  sim       run a simulation config (fixed_rate or closed_loop), JSON out
  sweep     open-loop rate sweep over a network config, CSV out
  analyze   closed-form age values, curves, and optima (mm1 / tandem)

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every
simulation output is accompanied by a ``<output>.manifest.json`` run
manifest (command, config digest, seed, version, timestamps); the
manifest is written after the outputs, so a missing manifest marks an
incomplete run.  Identical config and seed reproduce byte-identical
simulation outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__, simkit, wire
from .endpoints import InitializationError, SourceConfig, UdpLink, require_duration, require_monitor_limits
from .endpoints import run_monitor, run_source

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

MAX_GRID_POINTS = 1_000_000

# top-level fields of a sim config by mode; sweep reads files of either mode
MODE_KEYS = {
    "fixed_rate": ("lambda", "arrival"),
    "closed_loop": ("policy", "n_sources", "payload_size", "probe_count", "probe_timeout", "alpha", "eta"),
}
COMMON_KEYS = ("mode", "net", "duration", "seed", "warmup_frac")
CONFIG_KEYS = COMMON_KEYS + MODE_KEYS["fixed_rate"] + MODE_KEYS["closed_loop"]


class UsageError(Exception):
    """Bad command-line input detected after argparse."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InitializationError as err:
        print(f"error: initialization failed: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as err:  # ConfigError and StabilityError are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:  # numpy raises it for a run too large to allocate
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agectl",
        description="Age-control transport endpoints, queueing simulator, and age analytics.",
    )
    parser.add_argument("--version", action="version", version=f"agectl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monitor", help="listen for updates and acknowledge the fresh ones")
    p.add_argument("--bind", default="0.0.0.0:9750", metavar="HOST:PORT")
    p.add_argument("--trace", type=Path, default=None, help="JSONL age-reset trace path")
    p.add_argument("--duration", type=float, default=None, help="stop after this many seconds")
    p.add_argument("--max-updates", type=int, default=None, help="stop after accepting this many")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("source", help="send updates to a monitor under a rate policy")
    defaults = SourceConfig()
    p.add_argument("--peer", required=True, metavar="HOST:PORT")
    p.add_argument("--policy", default=defaults.policy, help="acp_plus, lazy, or fixed:<rate>")
    p.add_argument("--payload-size", type=int, default=defaults.payload_size)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--trace", type=Path, default=None, help="JSONL per-epoch trace path")
    p.add_argument("--probes", type=int, default=defaults.probe_count, help="initialization probe count")
    p.add_argument("--probe-timeout", type=float, default=defaults.probe_timeout)
    p.add_argument("--eta", type=int, default=defaults.updates_per_epoch, help="updates per control epoch")
    p.add_argument("--alpha", type=float, default=defaults.alpha, help="EWMA weight")
    p.set_defaults(func=cmd_source)

    p = sub.add_parser("sim", help="run a simulation config")
    p.add_argument("--config", required=True, help="config path or bundled name (e.g. net_a)")
    p.add_argument("--out", type=Path, required=True, help="metrics JSON output path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("sweep", help="open-loop rate sweep, CSV out")
    p.add_argument("--config", required=True, help="config path or bundled name")
    p.add_argument("--grid", required=True, metavar="LO:HI:STEP")
    p.add_argument("--out", type=Path, required=True, help="CSV output path")
    p.add_argument("--duration", type=float, default=None, help="override config duration")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="closed-form age values and optima")
    asub = p.add_subparsers(dest="analysis", required=True)

    a = asub.add_parser("mm1", help="single-queue age")
    a.add_argument("--mu", type=float, required=True)
    a.add_argument("--lambda", dest="lam", type=float, default=None)
    a.add_argument("--sweep", metavar="LO:HI:STEP", default=None)
    a.add_argument("--out", type=Path, default=None, help="CSV path for sweeps (default stdout)")
    a.set_defaults(func=cmd_analyze_mm1)

    a = asub.add_parser("tandem", help="two-queue tandem age")
    a.add_argument("--mu1", type=float, required=True)
    a.add_argument("--mu2", type=float, required=True)
    a.add_argument("--lambda", dest="lam", type=float, default=None)
    a.add_argument("--sweep", metavar="LO:HI:STEP", default=None)
    a.add_argument("--out", type=Path, default=None)
    a.set_defaults(func=cmd_analyze_tandem)

    a = asub.add_parser("optimum", help="age-minimizing rate")
    group = a.add_mutually_exclusive_group(required=True)
    group.add_argument("--mm1", action="store_true")
    group.add_argument("--tandem", action="store_true")
    a.add_argument("--mu", type=float, default=None, help="service rate (mm1)")
    a.add_argument("--mu1", type=float, default=None)
    a.add_argument("--mu2", type=float, default=None)
    a.add_argument("--lo", type=float, default=None, help="search bracket low end")
    a.add_argument("--hi", type=float, default=None, help="search bracket high end")
    a.set_defaults(func=cmd_analyze_optimum)

    return parser


# -- helpers -----------------------------------------------------------------


def parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"address must be HOST:PORT, got {text!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise UsageError(f"port must be an integer, got {port!r}") from None
    if not 0 < port_num < 65536:
        raise UsageError(f"port must be in 1..65535, got {port_num}")
    return host, port_num


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise UsageError(f"grid values must be finite, got {text!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        raise UsageError(f"grid needs 0 < lo <= hi and step > 0 (rates are positive), got {text!r}")
    if lo + step == lo or hi + step == hi:
        raise UsageError(f"grid step is lost to rounding at its ends, got {text!r}")
    span = (hi - lo) / step
    if span >= MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    # a span within round-off of a whole number of steps ends exactly at hi
    steps = round(span) if math.isclose(span, round(span), rel_tol=1e-9) else math.floor(span)
    return [float(f"{lo + k * step:.12g}") for k in range(steps + 1)]


def load_config(name_or_path: str) -> tuple[dict, bytes]:
    """Load a config from disk or from the bundled set; returns (doc, raw)."""
    path = Path(name_or_path)
    if path.exists():
        raw = path.read_bytes()
    else:
        candidate = name_or_path if name_or_path.endswith(".json") else f"{name_or_path}.json"
        bundle = resources.files("agectl").joinpath("configs", candidate)
        if not bundle.is_file():
            raise UsageError(
                f"config {name_or_path!r} is neither a file nor a bundled config "
                f"(bundled: {', '.join(sorted(bundled_config_names()))})"
            )
        raw = bundle.read_bytes()
    try:
        doc = json.loads(raw, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:  # bad bytes, nesting too deep
        raise simkit.ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise simkit.ConfigError("config root must be a JSON object")
    return doc, raw


def _reject_constant(name: str):
    raise simkit.ConfigError(f"config holds the non-finite number {name}")


def bundled_config_names() -> list[str]:
    root = resources.files("agectl").joinpath("configs")
    return [p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json")]


def write_manifest(out_path: Path, command: str, raw_config: bytes, seed, started: str) -> Path:
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest = {
        "command": command,
        "config_digest": hashlib.sha256(raw_config).hexdigest(),
        "seed": seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _now_iso(),
        "outputs": [str(out_path)],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _finite_or_null(value):
    """``value`` with each non-finite float in it, nested in dicts, lists and
    tuples too, replaced by None: JSON has no NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _dumps(doc, **kwargs) -> str:
    """Strict JSON of ``doc``, an undefined figure written as ``null``."""
    return json.dumps(_finite_or_null(doc), allow_nan=False, **kwargs)


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _seed(args, doc: dict) -> int:
    """The run seed: ``--seed`` if given, else the config's, else 0; the run checks it."""
    return args.seed if args.seed is not None else doc.get("seed", 0)


def _require(doc: dict, key: str, kinds=object):
    """``doc[key]``, present and an instance of ``kinds``; the runs check their numbers."""
    if key not in doc:
        raise simkit.ConfigError(f"config missing required field {key!r}")
    if not isinstance(doc[key], kinds):
        raise simkit.ConfigError(f"config.{key} has wrong type: {doc[key]!r}")
    return doc[key]


# -- endpoint commands ---------------------------------------------------------


def _serve(link, trace: Path | None, drive):
    """Return ``drive(trace_writer)``, the writer appending JSONL records to
    ``trace`` (None without one), or None on Ctrl-C: no summary follows.
    The trace and ``link`` are closed however the run ends, also when the
    trace cannot be opened."""
    with contextlib.closing(link), (contextlib.nullcontext() if trace is None else trace.open("w")) as handle:

        def write(record: dict) -> None:
            handle.write(json.dumps(record) + "\n")
            handle.flush()

        try:
            return drive(None if handle is None else write)
        except KeyboardInterrupt:
            return None


def cmd_monitor(args) -> int:
    host, port = parse_addr(args.bind)
    try:
        require_monitor_limits(args.duration, args.max_updates)
    except ValueError as err:
        raise UsageError(str(err)) from None
    link = UdpLink.listen(host, port)
    print(f"monitor listening on {host}:{port}", file=sys.stderr)
    session = _serve(
        link, args.trace, lambda write: run_monitor(link, args.duration, args.max_updates, trace_writer=write)
    )
    if session is not None:
        counts = {"accepted": session.accepted, "stale": session.stale, "malformed": session.malformed}
        print(json.dumps(counts))
    return EXIT_OK


def cmd_source(args) -> int:
    host, port = parse_addr(args.peer)
    try:
        cfg = SourceConfig(
            policy=args.policy,
            payload_size=args.payload_size,
            probe_count=args.probes,
            probe_timeout=args.probe_timeout,
            updates_per_epoch=args.eta,
            alpha=args.alpha,
        )
        require_duration(args.duration)
    except ValueError as err:
        raise UsageError(str(err)) from None
    link = UdpLink.connect(host, port)
    ran = _serve(link, args.trace, lambda write: run_source(link, cfg, args.duration, trace_writer=write))
    if ran is not None:
        print(_dumps(ran[0], sort_keys=True))
    return EXIT_OK


# -- simulation commands --------------------------------------------------------


def cmd_sim(args) -> int:
    doc, raw = load_config(args.config)
    started = _now_iso()
    mode = _require(doc, "mode", str)
    if mode not in MODE_KEYS:
        raise simkit.ConfigError(f"mode must be 'fixed_rate' or 'closed_loop', got {mode!r}")
    # a field of the other mode would be ignored, so it is rejected as unknown
    simkit._reject_unknown(doc, COMMON_KEYS + MODE_KEYS[mode], f"config of mode {mode!r}")
    net_doc = _require(doc, "net", dict)
    if mode == "closed_loop" and "update_bytes" in net_doc:
        raise simkit.ConfigError(
            f"net.update_bytes has no effect in mode 'closed_loop', whose updates are frames of "
            f"{wire.HEADER_LEN} + payload_size bytes; set payload_size instead"
        )
    net = simkit.QueueNetwork.from_dict(net_doc)
    seed = _seed(args, doc)
    duration = _require(doc, "duration")
    warmup_frac = doc.get("warmup_frac", simkit.DEFAULT_WARMUP_FRAC)

    if mode == "fixed_rate":
        lam = _require(doc, "lambda")
        arrival = doc.get("arrival", "poisson")
        metrics = simkit.run_fixed_rate(net, lam, arrival, duration, seed, warmup_frac)
        payload = {"mode": mode, "lambda": lam, "arrival": arrival, "seed": seed,
                   "metrics": metrics.to_dict()}
    else:
        policy = doc.get("policy", "acp_plus")
        n_sources = doc.get("n_sources", 1)  # run_closed_loop checks it
        cfg_kwargs = {k: doc[k] for k in ("payload_size", "probe_count", "probe_timeout", "alpha") if k in doc}
        if "eta" in doc:
            cfg_kwargs["updates_per_epoch"] = doc["eta"]
        source = SourceConfig(policy=policy, **cfg_kwargs)
        result = simkit.run_closed_loop(net, source, n_sources, duration, seed, warmup_frac)
        payload = {"mode": mode, "policy": policy, "n_sources": n_sources, "seed": seed,
                   "result": result.to_dict()}

    args.out.write_text(_dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest_path = write_manifest(args.out, "sim", raw, seed, started)
    print(f"wrote {args.out} (manifest {manifest_path})", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.duration is not None:
        try:
            require_duration(args.duration)
        except ValueError as err:
            raise UsageError(str(err)) from None
    doc, raw = load_config(args.config)
    simkit._reject_unknown(doc, CONFIG_KEYS, "config")
    started = _now_iso()
    grid = parse_grid(args.grid)
    net = simkit.QueueNetwork.from_dict(_require(doc, "net", dict))
    seed = _seed(args, doc)
    duration = args.duration if args.duration is not None else _require(doc, "duration")
    arrival = doc.get("arrival", "poisson")
    warmup_frac = doc.get("warmup_frac", simkit.DEFAULT_WARMUP_FRAC)
    result = simkit.sweep_lambda(net, grid, duration, seed, arrival, warmup_frac)
    lines = ["lambda,avg_age,ci_halfwidth"]
    lines += [f"{lam!r},{age!r},{ci!r}" for lam, age, ci in result.rows]
    args.out.write_text("\n".join(lines) + "\n")
    manifest_path = write_manifest(args.out, "sweep", raw, seed, started)
    print(f"best lambda {result.best_lambda} (age {result.best_age})", file=sys.stderr)
    print(f"wrote {args.out} (manifest {manifest_path})", file=sys.stderr)
    return EXIT_OK


# -- analytics commands (the only ones that import analytics) ----------------------


def cmd_analyze_mm1(args) -> int:
    from . import analytics

    return _age_value_or_curve(args, "mm1", lambda lam: analytics.aoi_mm1(lam, args.mu))


def cmd_analyze_tandem(args) -> int:
    from . import analytics

    return _age_value_or_curve(args, "tandem", lambda lam: analytics.aoi_tandem(lam, args.mu1, args.mu2))


def _age_value_or_curve(args, analysis: str, age_fn) -> int:
    """Print ``age_fn`` at ``--lambda``, or write its ``--sweep`` curve as CSV
    to ``--out`` (default stdout)."""
    from . import analytics

    if (args.lam is None) == (args.sweep is None):
        raise UsageError(f"analyze {analysis} needs exactly one of --lambda or --sweep")
    if args.lam is not None:
        print(age_fn(args.lam))
        return EXIT_OK
    rows = analytics.age_curve(age_fn, parse_grid(args.sweep))
    lines = ["lambda,avg_age"] + [f"{lam!r},{age!r}" for lam, age in rows]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return EXIT_OK


def cmd_analyze_optimum(args) -> int:
    from . import analytics

    if args.mm1:
        if args.mu is None:
            raise UsageError("analyze optimum --mm1 needs --mu")
        mu_min = args.mu
        age_fn = lambda lam: analytics.aoi_mm1(lam, args.mu)  # noqa: E731
    else:
        if args.mu1 is None or args.mu2 is None:
            raise UsageError("analyze optimum --tandem needs --mu1 and --mu2")
        mu_min = min(args.mu1, args.mu2)
        age_fn = lambda lam: analytics.aoi_tandem(lam, args.mu1, args.mu2)  # noqa: E731
    lo = args.lo if args.lo is not None else 0.01 * mu_min
    hi = args.hi if args.hi is not None else 0.99 * mu_min
    best_lam, best_age = analytics.optimal_lambda(age_fn, lo, hi)
    print(json.dumps({"lambda_star": best_lam, "age_star": best_age}))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
