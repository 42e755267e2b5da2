"""Closed-form age values, symmetry/limits, and the optimum search."""

import math
import random

import pytest

from agectl.analytics import (
    StabilityError,
    TandemParams,
    age_curve,
    aoi_dm1,
    aoi_md1,
    aoi_mm1,
    aoi_tandem,
    aoi_tandem_alt,
    mean_system_time_mm1,
    optimal_lambda,
)


def test_mm1_hand_value():
    # 1/0.5 + 1 + 0.25/0.5
    assert aoi_mm1(0.5, 1.0) == pytest.approx(3.5)


def test_mm1_small_rate_blowup():
    assert aoi_mm1(1e-9, 1.0) > 1e8


def test_mm1_optimum_location():
    lam_star, age_star = optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.05, 0.95)
    assert 0.51 <= lam_star <= 0.55
    # updates per mean system time at the optimum
    assert 1.10 <= lam_star / (1.0 - lam_star) <= 1.15
    assert age_star == pytest.approx(aoi_mm1(lam_star, 1.0))


def test_golden_section_matches_dense_grid():
    lam_star, _ = optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.05, 0.95)
    grid = [0.05 + i * 1e-4 for i in range(9000)]
    best = min(grid, key=lambda l: aoi_mm1(l, 1.0))
    assert lam_star == pytest.approx(best, abs=2e-4)


def test_tandem_symmetry_random_triples():
    rng = random.Random(0x7A2)
    for _ in range(100):
        mu1 = rng.uniform(0.2, 8.0)
        mu2 = rng.uniform(0.2, 8.0)
        lam = rng.uniform(0.01, 0.95) * min(mu1, mu2)
        a = aoi_tandem(lam, mu1, mu2)
        b = aoi_tandem(lam, mu2, mu1)
        assert abs(a - b) / a <= 1e-12


def test_tandem_fast_second_server_limit():
    assert abs(aoi_tandem(0.5, 1.0, 1e6) - aoi_mm1(0.5, 1.0)) <= 1e-3


def test_tandem_floor():
    rng = random.Random(5)
    for _ in range(50):
        mu1 = rng.uniform(0.5, 4.0)
        mu2 = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.05, 0.9) * min(mu1, mu2)
        assert aoi_tandem(lam, mu1, mu2) >= 1.0 / lam + 1.0 / mu1 + 1.0 / mu2


def test_tandem_boundary_divergence():
    mid = aoi_tandem(0.45, 1.0, 1.0)
    assert aoi_tandem(1e-6, 1.0, 1.0) > 100 * mid
    assert aoi_tandem(1.0 - 1e-6, 1.0, 1.0) > 100 * mid


def test_homogeneity_in_rate_scaling():
    for c in (0.5, 2.0, 7.0):
        assert aoi_tandem(0.4 * c, 1.0 * c, 1.5 * c) == pytest.approx(
            aoi_tandem(0.4, 1.0, 1.5) / c, rel=1e-12
        )
        assert aoi_mm1(0.4 * c, 1.0 * c) == pytest.approx(aoi_mm1(0.4, 1.0) / c, rel=1e-12)


def test_optimum_scale_invariance():
    base, _ = optimal_lambda(lambda l: aoi_tandem(l, 1.0, 2.0), 0.01, 0.95)
    scaled, _ = optimal_lambda(lambda l: aoi_tandem(l, 3.0, 6.0), 0.03, 2.85)
    assert scaled == pytest.approx(3.0 * base, rel=1e-4)


def test_tandem_equal_rate_updates_per_system_time():
    lam_star, _ = optimal_lambda(lambda l: aoi_tandem(l, 1.0, 1.0), 0.05, 0.95)
    per_system_time = lam_star * (1.0 / (1.0 - lam_star) + 1.0 / (1.0 - lam_star))
    assert 1.5 <= per_system_time <= 1.7


def test_faster_second_server_lowers_packets_per_system_time():
    # as the second server speeds up the figure falls toward the
    # single-queue value
    values = []
    for mu2 in (1.0, 1.5, 2.0, 5.0, 100.0):
        lam_star, _ = optimal_lambda(lambda l: aoi_tandem(l, 1.0, mu2), 0.02, 0.95)
        sys_time = 1.0 / (1.0 - lam_star) + 1.0 / (mu2 - lam_star)
        values.append(lam_star * sys_time)
    assert all(a > b for a, b in zip(values, values[1:]))
    mm1_star, _ = optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.05, 0.95)
    single_queue_value = mm1_star / (1.0 - mm1_star)
    assert values[-1] == pytest.approx(single_queue_value, rel=1e-2)


def test_alt_variant_differs_and_is_asymmetric():
    lam, mu1, mu2 = 0.5, 1.0, 2.0
    assert aoi_tandem_alt(lam, mu1, mu2) != pytest.approx(aoi_tandem(lam, mu1, mu2))
    assert aoi_tandem_alt(lam, mu1, mu2) != pytest.approx(aoi_tandem_alt(lam, mu2, mu1))


def _dm1_by_bisection(lam: float, mu: float) -> float:
    """The D/M/1 age with beta found by bisection: below the root in [0, 1)
    ``beta < exp(-(1 - beta)/rho)``, between it and 1 the reverse."""
    rho = lam / mu
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid < math.exp(-(1.0 - mid) / rho):
            lo = mid
        else:
            hi = mid
    return (1.0 / (2.0 * rho) + 1.0 / (1.0 - lo)) / mu


@pytest.mark.parametrize("rho", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_dm1_matches_a_bisection_root(rho):
    assert aoi_dm1(rho, 1.0) == pytest.approx(_dm1_by_bisection(rho, 1.0), rel=1e-12)


def test_dm1_limits_and_scaling():
    # light load: nothing waits, so the age is half a period plus a service
    assert aoi_dm1(1e-3, 1.0) == pytest.approx(0.5e3 + 1.0, rel=1e-12)
    # periodic arrivals wait less than Poisson ones at every load
    assert all(aoi_dm1(lam, 1.0) < aoi_mm1(lam, 1.0) for lam in (0.05, 0.3, 0.6, 0.9, 0.99))
    # homogeneous of degree -1 under rate scaling
    assert aoi_dm1(37.0, 100.0) * 100.0 == pytest.approx(aoi_dm1(0.37, 1.0), rel=1e-12)
    # the optimum: 2.253 at lambda = 0.517 for mu = 1
    lam_star, age_star = optimal_lambda(lambda l: aoi_dm1(l, 1.0), 0.05, 0.95)
    assert lam_star == pytest.approx(0.5169, abs=1e-3)
    assert age_star == pytest.approx(2.2526, abs=1e-4)


def test_md1_hand_value_and_scaling():
    # rho = 1/2: 1/(2 (1 - rho)) + 1/2 + (1 - rho) e^rho / rho = 3/2 + e^(1/2)
    assert aoi_md1(0.5, 1.0) == pytest.approx(1.5 + math.exp(0.5), rel=1e-12)
    # light load: nothing waits, so the age is a mean gap plus a service
    assert aoi_md1(1e-3, 1.0) == pytest.approx(1e3 + 1.0, rel=1e-5)
    # fixed service waits less than exponential service at every load
    assert all(aoi_md1(lam, 1.0) < aoi_mm1(lam, 1.0) for lam in (0.05, 0.3, 0.6, 0.9, 0.99))
    assert aoi_md1(37.0, 100.0) * 100.0 == pytest.approx(aoi_md1(0.37, 1.0), rel=1e-12)


def test_domain_errors():
    with pytest.raises(StabilityError):
        aoi_mm1(1.0, 1.0)
    with pytest.raises(StabilityError):
        aoi_mm1(-0.1, 1.0)
    with pytest.raises(StabilityError):
        aoi_tandem(0.9, 1.0, 0.5)
    with pytest.raises(StabilityError):
        aoi_mm1(1.0 - 1e-12, 1.0)  # too close to saturation
    for lam, mu in ((0.5, math.nan), (0.5, math.inf), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(StabilityError):
            aoi_mm1(lam, mu)
    with pytest.raises(StabilityError):
        aoi_tandem(0.5, 1.0, math.nan)
    for lam, mu in ((1.0, 1.0), (0.0, 1.0), (0.5, math.inf), (math.nan, 1.0)):
        for age_fn in (aoi_dm1, aoi_md1):
            with pytest.raises(StabilityError):
                age_fn(lam, mu)
    with pytest.raises(StabilityError):
        optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.5, 1.5)
    with pytest.raises(ValueError):
        optimal_lambda(lambda l: aoi_mm1(l, 1.0), 0.9, 0.1)


def test_params_validation():
    TandemParams(lam=0.5, mu1=1.0, mu2=2.0).validate()
    with pytest.raises(StabilityError):
        TandemParams(lam=1.5, mu1=1.0, mu2=2.0).validate()


def test_mean_system_time():
    assert mean_system_time_mm1(0.5, 1.0) == pytest.approx(2.0)


def test_age_curve_shape():
    grid = [0.05 * k for k in range(1, 19)]
    curve = age_curve(lambda l: aoi_mm1(l, 1.0), grid)
    ages = [a for _, a in curve]
    best = min(range(len(ages)), key=ages.__getitem__)
    assert 0 < best < len(ages) - 1  # interior minimum
    # unimodal: decreasing then increasing
    assert all(a > b for a, b in zip(ages[: best + 1], ages[1 : best + 1]))
    assert all(b < c for b, c in zip(ages[best:], ages[best + 1 :]))
    assert math.isfinite(min(ages))
