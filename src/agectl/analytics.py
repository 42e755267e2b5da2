"""Closed-form age-of-information for M/M/1, D/M/1, M/D/1 and two-queue tandem systems.

Updates arrive Poisson(lam) and pass through one or two FCFS servers
with exponential service; the monitor tracks the freshest delivered
update.  ``aoi_mm1`` is the classic single-queue mean age.  For the
tandem, the mean age assembles from the per-stage wait/service
cross-moments with the inter-arrival time:

    age = lam * (E[X^2]/2 + E[X*T])
    E[X^2]/2        = 1/lam^2
    E[X*S_k]        = 1/(lam*mu_k)
    E[X*W_1]        = lam / (mu1^2 (mu1 - lam))
    E[X*W_2]        = lam / (mu2^2 (mu2 - lam))
                      + lam / (mu1 mu2 (mu1 + mu2 - lam))

Published variants of this result disagree with each other on the lam
powers of the last two terms (one variant is asymmetric in the service
rates, another carries a coupling term that is dimensionally not a
time).  The cross-moments above are the ones validated here by
instrumented Monte Carlo simulation of the tandem (see tests): each
listed moment matches its empirical estimate to well under 1%, and the
assembled age matches long tandem runs to within Monte Carlo noise.
The result is symmetric in (mu1, mu2) and homogeneous of degree -1
under simultaneous rate scaling, as it must be.  ``aoi_tandem_alt``
keeps the rejected asymmetric variant for comparison only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ConfigError, _require_number

# stability margin: parameters this close to saturation are rejected rather
# than returning astronomically large ages of no numeric value
MIN_STABILITY_GAP = 1e-9

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class StabilityError(ValueError):
    """Arrival rate outside the open stability region (0, min service rate)."""


@dataclass(frozen=True)
class TandemParams:
    """Arrival and per-stage service rates of a two-queue tandem."""

    lam: float
    mu1: float
    mu2: float

    def validate(self) -> None:
        _check_stable(self.lam, self.mu1)
        _check_stable(self.lam, self.mu2)


def _check_stable(lam: float, mu: float) -> None:
    """A non-number is a ConfigError; a number outside the stability region a StabilityError."""
    for what, rate in (("arrival rate", lam), ("service rate", mu)):
        _require_number(what, rate)
        if not (math.isfinite(rate) and rate > 0.0):
            raise StabilityError(f"{what} must be positive and finite, got {rate}")
    if mu - lam < MIN_STABILITY_GAP:
        raise StabilityError(f"unstable: arrival rate {lam} too close to service rate {mu}")


def aoi_mm1(lam: float, mu: float) -> float:
    """Mean age for a single M/M/1 queue; requires 0 < lam < mu."""
    _check_stable(lam, mu)
    return 1.0 / lam + 1.0 / mu + lam**2 / (mu**2 * (mu - lam))


def aoi_tandem(lam: float, mu1: float, mu2: float) -> float:
    """Mean age for two M/M/1 queues in tandem; requires 0 < lam < min(mu1, mu2)."""
    _check_stable(lam, mu1)
    _check_stable(lam, mu2)
    return (
        1.0 / lam
        + 1.0 / mu1
        + 1.0 / mu2
        + lam**2 / (mu1**2 * (mu1 - lam))
        + lam**2 / (mu2**2 * (mu2 - lam))
        + lam**2 / (mu1 * mu2 * (mu1 + mu2 - lam))
    )


def aoi_tandem_alt(lam: float, mu1: float, mu2: float) -> float:
    """Rejected asymmetric tandem variant, kept only for comparison.

    Differs from ``aoi_tandem`` by a missing lam factor in the second
    stage's wait term; simulation rules it out (and it breaks the
    required symmetry in the service rates).
    """
    _check_stable(lam, mu1)
    _check_stable(lam, mu2)
    return (
        1.0 / lam
        + 1.0 / mu1
        + 1.0 / mu2
        + lam**2 / (mu1**2 * (mu1 - lam))
        + lam / (mu2**2 * (mu2 - lam))
        + lam**2 / (mu1 * mu2 * (mu1 + mu2 - lam))
    )


def aoi_dm1(lam: float, mu: float) -> float:
    """Mean age for periodic updates (one every 1/lam) into one exponential
    server (D/M/1); requires 0 < lam < mu.

    From Kaul, Yates and Gruteser (INFOCOM 2012):
    ``(1/mu) (1/(2 rho) + 1/(1 - beta))`` with ``rho = lam/mu`` and beta
    the root in [0, 1) of ``beta = exp(-(1 - beta)/rho)``.  Newton's method
    finds it from 0: ``beta - exp(-(1 - beta)/rho)`` is concave and
    increasing below the root, so the iterates rise to it and stop there.
    """
    _check_stable(lam, mu)
    rho = lam / mu
    beta = 0.0
    while True:
        e = math.exp(-(1.0 - beta) / rho)
        nxt = beta - (beta - e) / (1.0 - e / rho)
        if not nxt > beta:
            return (1.0 / (2.0 * rho) + 1.0 / (1.0 - beta)) / mu
        beta = nxt


def aoi_md1(lam: float, mu: float) -> float:
    """Mean age for Poisson updates into one server of fixed service time 1/mu
    (M/D/1), from Kaul, Yates and Gruteser (INFOCOM 2012); requires 0 < lam < mu."""
    _check_stable(lam, mu)
    rho = lam / mu
    return (0.5 / (1.0 - rho) + 0.5 + (1.0 - rho) * math.exp(rho) / rho) / mu


def mean_system_time_mm1(lam: float, mu: float) -> float:
    """Mean time an update spends in one M/M/1 stage (wait + service)."""
    _check_stable(lam, mu)
    return 1.0 / (mu - lam)


def optimal_lambda(age_fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimizer of a unimodal age curve over [lo, hi].

    Returns (rate, age at that rate) once the bracket is narrower than
    1e-6 of the rate.  The bounds must be numbers with ``lo < hi``, else
    ConfigError, and lie inside the stability region of ``age_fn``;
    evaluation outside it raises StabilityError, which is propagated.
    """
    _require_number("lo", lo)
    _require_number("hi", hi)
    if not lo < hi:
        raise ConfigError(f"need lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    # probe the endpoints up front so out-of-domain bounds fail loudly
    age_fn(a)
    age_fn(b)
    c = b - (b - a) / GOLDEN_RATIO
    d = a + (b - a) / GOLDEN_RATIO
    fc, fd = age_fn(c), age_fn(d)
    while (b - a) > 1e-6 * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / GOLDEN_RATIO
            fc = age_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / GOLDEN_RATIO
            fd = age_fn(d)
    best = (a + b) / 2.0
    return best, age_fn(best)


def age_curve(age_fn, grid) -> list[tuple[float, float]]:
    """Evaluate an age function over a rate grid, for export/plotting."""
    return [(lam, age_fn(lam)) for lam in grid]
