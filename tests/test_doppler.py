"""Velocity detunings and Maxwellian quadrature."""

import math

import numpy as np
import pytest

from eitmol.analytic import population_rho22
from eitmol.constants import SPEED_OF_LIGHT
from eitmol.doppler import (
    CO_PROPAGATING,
    COUNTER_PROPAGATING,
    MAX_SPAN,
    MIN_U_P,
    Ensemble,
    QuadratureSpec,
    doubled_rule,
    faddeeva,
    node_plan,
    plasma_dispersion,
    velocity_detunings,
    weighted_sum,
)
from eitmol.system import CascadeSystem
from eitmol.units import angular_from_mhz, angular_from_wavenumber

OM1 = angular_from_wavenumber(15642.636)
OM2 = angular_from_wavenumber(17053.954)


def test_rest_frame_recovers_laser_detunings():
    d1, d2 = velocity_detunings(10.0, -20.0, OM1, OM2, 0.0,
                                COUNTER_PROPAGATING)
    assert d1 == 10.0 and d2 == -20.0


def test_counter_propagating_signs_and_ratio():
    d1, d2 = velocity_detunings(0.0, 0.0, OM1, OM2, 100.0,
                                COUNTER_PROPAGATING)
    assert d1 < 0 and d2 > 0
    assert abs(d1) / abs(d2) == pytest.approx(OM1 / OM2, rel=1e-12)


def test_co_propagating_flips_coupling_shift():
    _, d2_counter = velocity_detunings(0.0, 0.0, OM1, OM2, 100.0,
                                       COUNTER_PROPAGATING)
    _, d2_co = velocity_detunings(0.0, 0.0, OM1, OM2, 100.0, CO_PROPAGATING)
    assert d2_co == -d2_counter


def test_full_form_keeps_detuning_recoil_term():
    # (1 - vz/c) delta1 on top of the main -vz/c omega shift
    delta1 = angular_from_mhz(500.0)
    vz = 800.0
    d1, _ = velocity_detunings(delta1, 0.0, OM1 + delta1, OM2, vz,
                               COUNTER_PROPAGATING)
    beta = vz / SPEED_OF_LIGHT
    assert d1 == pytest.approx((1 - beta) * delta1 - beta * OM1, rel=1e-14)


def test_most_probable_speed():
    ens = Ensemble(temperature_k=1000.0, mass_amu=14.0)
    assert ens.u_p == pytest.approx(1089.85, rel=1e-4)


def test_ensemble_from_measured_width():
    ens = Ensemble.from_doppler_fwhm(2600.0, 15642.636)
    # FWHM = 2 sqrt(ln 2) k u_p: invert and check round trip
    k = 2 * np.pi * 100.0 * 15642.636
    fwhm = 2 * np.sqrt(np.log(2)) * k * ens.u_p / (2 * np.pi * 1e6)
    assert fwhm == pytest.approx(2600.0, rel=1e-12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=50)       # even
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=31)       # too few
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError):
            QuadratureSpec(span=bad)
        with pytest.raises(ValueError):
            QuadratureSpec(refinement_tolerance=bad)
    # an integral float would construct and fail later inside np.linspace
    for bad in (201.0, 201.5, "201"):
        with pytest.raises(ValueError, match="node_count"):
            QuadratureSpec(node_count=bad)
    assert QuadratureSpec(node_count=np.int64(201)).node_count == 201


def test_span_beyond_weight_underflow_rejected(li2_ensemble):
    """Up to MAX_SPAN the Maxwellian factor exp(-(vz/u_p)^2) of the
    outermost node is nonzero; beyond it it underflows to 0 and the span is
    rejected."""
    assert math.exp(-27.3**2) == 0.0 < MAX_SPAN - 27.28 < 0.01
    plan = node_plan(li2_ensemble, QuadratureSpec(51, MAX_SPAN))
    assert np.exp(-(plan.nodes[[0, -1]] / li2_ensemble.u_p) ** 2).min() > 0.0
    for bad in (float(np.nextafter(MAX_SPAN, 30.0)), 27.3, 1e4, 1e306):
        with pytest.raises(ValueError, match="span"):
            QuadratureSpec(span=bad)


def test_thermal_speed_at_or_above_light_rejected():
    """The detunings are first order in vz/c: u_p must stay below c."""
    below = float(np.nextafter(SPEED_OF_LIGHT, 0.0))
    assert Ensemble(0.0, 0.0, u_p_override=below).u_p == below
    for bad in (SPEED_OF_LIGHT, 1e300):
        with pytest.raises(ValueError, match="speed of light"):
            Ensemble(0.0, 0.0, u_p_override=bad)
    for temperature in (1e30, 1e200):
        with pytest.raises(ValueError, match="speed of light"):
            Ensemble(temperature_k=temperature, mass_amu=14.0)
    with pytest.raises(ValueError, match="speed of light"):
        Ensemble.from_doppler_fwhm(1e300, 15642.636)


def test_thermal_speed_below_the_closed_form_floor_rejected():
    """Far below MIN_U_P the closed form's poles leave the float range, so
    u_p is bounded from below: by an override, by T and m, or by a width."""
    assert Ensemble(0.0, 0.0, u_p_override=MIN_U_P).u_p == MIN_U_P
    below = float(np.nextafter(MIN_U_P, 0.0))
    for make in (lambda: Ensemble(0.0, 0.0, u_p_override=below),
                 lambda: Ensemble(temperature_k=1e-300, mass_amu=14.0),
                 lambda: Ensemble(temperature_k=1000.0, mass_amu=1e300),
                 lambda: Ensemble.from_doppler_fwhm(1e-300, 15642.636)):
        with pytest.raises(ValueError, match=r"must be >= 1e-09 m/s"):
            make()


def test_weights_normalized(li2_ensemble):
    q = QuadratureSpec(node_count=201)
    plan = node_plan(li2_ensemble, q)
    unverified = node_plan(li2_ensemble, q, verified=False)
    for _, w in (unverified.coarse, plan.coarse, plan.fine):
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)


def test_nonpositive_doppler_width_rejected():
    for fwhm in (0.0, -2600.0):
        with pytest.raises(ValueError):
            Ensemble.from_doppler_fwhm(fwhm, 15642.636)


def test_nonfinite_ensemble_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Ensemble(temperature_k=bad, mass_amu=14.0)
        with pytest.raises(ValueError):
            Ensemble(temperature_k=1000.0, mass_amu=bad)
        with pytest.raises(ValueError):
            Ensemble(temperature_k=0.0, mass_amu=0.0, u_p_override=bad)


def test_weighted_sum_rows_do_not_depend_on_the_block():
    """A block reduction equals the row-by-row one bit for bit, also on the
    every-second-node slice that the coarse rule reduces, and each row is
    within the O(eps * n) bound of the exactly rounded sum."""
    rng = np.random.default_rng(7)
    block = rng.standard_normal((14, 21, 8001))
    w = rng.random(8001)
    for values, weights in ((block, w), (block[..., ::2], w[::2])):
        whole = weighted_sum(values, weights)
        assert whole.shape == (14, 21)
        rows = np.array([[weighted_sum(values[i, j], weights)
                          for j in range(21)] for i in range(14)])
        assert np.array_equal(whole, rows)
        for i, j in ((0, 0), (7, 11), (13, 20)):
            terms = values[i, j] * weights
            bound = terms.size * np.finfo(float).eps * np.sum(np.abs(terms))
            assert abs(whole[i, j] - math.fsum(terms)) <= bound


def averages(plan, values):
    """The coarse and the doubled-rule average of ``values`` on a verified
    plan's nodes (last axis)."""
    return [weighted_sum(values[..., sl], w)
            for sl, w in (plan.coarse, plan.fine)]


def maxwellian_rule(ens, nodes):
    """The N-node velocity rule written out: trapezoid weights times the
    Maxwellian, normalized."""
    u = ens.u_p
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] = w[-1] = 0.5 * (nodes[1] - nodes[0])
    w *= np.exp(-((nodes / u) ** 2)) / (math.sqrt(math.pi) * u)
    return w / w.sum()


def test_average_evaluates_observable_once_on_doubled_nodes(li2_ensemble):
    """A verified plan's nodes are those of the doubled rule; its fine rule
    is that rule and its coarse rule every second node, which is the N-node
    rule of ``q``.  Unverified, the nodes are those of ``q``."""
    q = QuadratureSpec(node_count=201)
    u = li2_ensemble.u_p
    vz_fine = np.linspace(-q.span * u, q.span * u, 2 * q.node_count - 1)
    plan = node_plan(li2_ensemble, q)
    assert np.array_equal(plan.nodes, vz_fine)
    assert plan.fine[0] == slice(None)
    assert np.array_equal(plan.fine[1], maxwellian_rule(li2_ensemble,
                                                        vz_fine))
    vz = np.linspace(-q.span * u, q.span * u, q.node_count)
    w = maxwellian_rule(li2_ensemble, vz)
    assert plan.coarse[0] == slice(None, None, 2)
    assert plan.nodes[plan.coarse[0]] == pytest.approx(vz, rel=0, abs=1e-12)
    assert plan.coarse[1] == pytest.approx(w, rel=1e-12)
    unverified = node_plan(li2_ensemble, q, verified=False)
    assert unverified.fine is None
    assert np.array_equal(unverified.nodes, vz)
    assert np.array_equal(unverified.coarse[1], w)


def test_doubled_rule_with_another_density():
    """The builder on its own, with a uniform density on [0, 1]: weights
    summing to 1, the doubled rule's every second node equal to the
    unverified rule's nodes bit for bit, and <x^2> = 1/3 on both rules, the
    doubled one closer."""
    fine_rule = doubled_rule(0.0, 1.0, 51, np.ones_like)
    rule = doubled_rule(0.0, 1.0, 51, np.ones_like, verified=False)
    assert rule.fine is None and rule.nodes.size == 51
    assert fine_rule.nodes.size == 101
    assert np.array_equal(fine_rule.nodes[::2], rule.nodes)
    assert np.array_equal(fine_rule.coarse[1], rule.coarse[1])
    for _, w in (rule.coarse, fine_rule.fine):
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    coarse, fine = averages(fine_rule, fine_rule.nodes**2)
    assert weighted_sum(rule.nodes**2, rule.coarse[1]) == pytest.approx(
        coarse, rel=1e-15)
    assert abs(fine - 1.0 / 3.0) < abs(coarse - 1.0 / 3.0) < 1e-3


def test_average_of_unity(li2_ensemble):
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=201))
    for avg in averages(plan, np.ones_like(plan.nodes)):
        assert avg == pytest.approx(1.0, abs=1e-8)


def test_average_of_odd_observable_vanishes(li2_ensemble):
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=201))
    for power in (1, 3):
        for avg in averages(plan, plan.nodes**power):
            assert abs(avg) <= 1e-8 * li2_ensemble.u_p**power


def test_second_moment_is_half_u_p_squared(li2_ensemble):
    """<vz^2> = u_p^2 / 2 for the Maxwellian exp(-(vz/u_p)^2)."""
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=51))
    for avg in averages(plan, plan.nodes**2):
        assert avg == pytest.approx(0.5 * li2_ensemble.u_p**2, rel=1e-3)


def test_doppler_dominated_profile_is_gaussian(li2_ensemble):
    """Two-level line with gamma << k u_p: averaged profile has the pure
    Doppler FWHM 2 sqrt(ln 2) k u_p within 2%."""
    # gamma/(k u_p) ~ 0.01: Doppler dominated, but the Lorentzian core is
    # still wider than the velocity node spacing so the quadrature resolves it
    sys = CascadeSystem(omega21_cm=15642.636, omega32_cm=17053.954,
                        gamma2=120.0, gamma3=120.0, b2=0.1, b3=0.2,
                        transit_rate=12.0, refill_rate=12.0,
                        J1=15, J2=14, J3=14)
    k1 = OM1 / SPEED_OF_LIGHT
    q = QuadratureSpec(node_count=4001)
    plan = node_plan(li2_ensemble, q)
    deltas = np.linspace(-3.0, 3.0, 121) * k1 * li2_ensemble.u_p
    d1 = deltas[:, None] \
        - (plan.nodes / SPEED_OF_LIGHT) * (OM1 + deltas[:, None])
    signal, fine = averages(plan, population_rho22(sys, 0.01, 0.0, d1, 0.0))
    assert np.max(np.abs(fine - signal)) \
        <= q.refinement_tolerance * np.max(signal)
    half = signal.max() / 2.0
    above = np.where(signal >= half)[0]
    i, j = above[0], above[-1]
    left = np.interp(half, [signal[i - 1], signal[i]], [deltas[i - 1], deltas[i]])
    right = np.interp(half, [signal[j + 1], signal[j]], [deltas[j + 1], deltas[j]])
    expected = 2.0 * np.sqrt(np.log(2.0)) * k1 * li2_ensemble.u_p
    assert right - left == pytest.approx(expected, rel=0.02)


def test_unresolved_feature_fails_the_refinement_check(li2_ensemble):
    """A Lorentzian far narrower than the node spacing moves the average by
    more than the refinement tolerance on node doubling."""
    width = 0.05 * li2_ensemble.u_p / 100.0  # ~0.5 m/s
    q = QuadratureSpec(node_count=51)
    plan = node_plan(li2_ensemble, q)
    coarse, fine = averages(plan, width**2 / (plan.nodes**2 + width**2))
    assert abs(fine - coarse) > q.refinement_tolerance * max(coarse, fine)


def test_faddeeva_matches_scipy():
    """Weideman's N = 32 rational approximation against scipy's w(z)."""
    from scipy.special import wofz

    z = (np.linspace(-20.0, 20.0, 401)[:, None]
         + 1j * np.geomspace(1e-5, 5.0, 120)[None, :])
    assert np.max(np.abs(faddeeva(z) / wofz(z) - 1.0)) <= 1e-12


@pytest.mark.parametrize("z", [0.3 + 0.2j, 2.0 + 1.0j, -1.1 - 0.05j,
                               -0.5 - 2.0j])
def test_plasma_dispersion_is_maxwellian_average_of_a_pole(z):
    """Z(z) = (1/sqrt(pi)) int exp(-t^2)/(t - z) dt on both sides of the
    real axis."""
    from scipy.integrate import quad

    def part(f):
        return quad(lambda t: f(np.exp(-t * t) / (t - z)), -np.inf, np.inf,
                    epsabs=1e-13, limit=400)[0]

    ref = (part(np.real) + 1j * part(np.imag)) / np.sqrt(np.pi)
    assert abs(plasma_dispersion(z) - ref) <= 1e-10 * abs(ref)
