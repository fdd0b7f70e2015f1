"""Closed-form steady-state populations: reductions, scaling, symmetry."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitmol import analytic, spectrum
from eitmol.analytic import (
    channel_populations,
    coupling_saturation_factor,
    doppler_averaged_populations,
    population_rho22,
    population_rho33,
)
from eitmol.config import preset_config
from eitmol.doppler import (
    CO_PROPAGATING,
    COUNTER_PROPAGATING,
    Ensemble,
    QuadratureSpec,
    graded_rule,
    node_plan,
    velocity_detunings,
)
from eitmol.sublevels import build_channels
from eitmol.system import CascadeSystem, DriveParams
from eitmol.units import angular_from_mhz


def drv(sys, g1=0.05, g2=0.0, d1=0.0, d2=0.0):
    return DriveParams(g1, g2, d1, d2)


def two_level_lorentzian(sys, g1, d1):
    """Hand reduction of the g2 = 0 limit of the intermediate population."""
    G21 = sys.G21
    return (g1**2 * sys.rho11_init * G21
            / (2.0 * sys.G2 * (d1**2 + G21**2)))


def test_zero_probe_gives_zero(li2):
    assert population_rho22(li2, 0.0, 300.0, 0.0, 0.0) == 0.0
    assert population_rho33(li2, 0.0, 300.0, 0.0, 0.0) == 0.0


def test_zero_coupling_gives_zero_upper_population(li2):
    assert population_rho33(li2, 0.05, 0.0, 37.0, 0.0) == 0.0


@pytest.mark.parametrize("d1", [-700.0, -55.0, 0.0, 13.0, 444.0])
def test_two_level_reduction_at_zero_coupling(li2, d1):
    g1 = 0.05
    got = population_rho22(li2, g1, 0.0, d1, 123.0)
    assert got == pytest.approx(two_level_lorentzian(li2, g1, d1), rel=1e-12)


def test_eit_dip_suppresses_resonant_population(li2):
    weak = population_rho22(li2, 0.05, 0.0, 0.0, 0.0)
    strong = population_rho22(li2, 0.05, 2000.0, 0.0, 0.0)
    assert strong < 0.01 * weak


def test_rho22_decreasing_in_g2_above_threshold(li2):
    threshold = 2.0 * np.sqrt(li2.G21 * li2.G31)
    g2s = np.linspace(1.2 * threshold, 40 * threshold, 25)
    vals = [population_rho22(li2, 0.05, g2, 0.0, 0.0)
            for g2 in g2s]
    assert np.all(np.diff(vals) < 0)


def test_probe_scaling_is_exactly_quadratic(li2):
    for kernel in (population_rho22, population_rho33):
        base = kernel(li2, 0.04, 700.0, 250.0, 0.0)
        doubled = kernel(li2, 0.08, 700.0, 250.0, 0.0)
        assert doubled == 4.0 * base


def test_symmetry_at_resonant_coupling(li2):
    for d1 in (45.0, 333.0, 2100.0):
        for kernel in (population_rho22, population_rho33):
            plus = kernel(li2, 0.05, 900.0, d1, 0.0)
            minus = kernel(li2, 0.05, 900.0, -d1, 0.0)
            assert plus == pytest.approx(minus, rel=1e-12)


def test_autler_townes_maxima_near_half_coupling_rabi(li2):
    # dense 1-D scan of the upper-level population over probe detuning
    g2 = 2000.0
    d1 = np.linspace(-2.0 * g2, 2.0 * g2, 80001)
    r33 = population_rho33(li2, 0.05, g2, d1, 0.0)
    locmax = np.where((r33[1:-1] > r33[:-2]) & (r33[1:-1] >= r33[2:]))[0] + 1
    assert locmax.size == 2
    lo, hi = sorted(d1[locmax])
    assert lo == pytest.approx(-g2 / 2.0, rel=0.01)
    assert hi == pytest.approx(+g2 / 2.0, rel=0.01)
    # local minimum sits between the maxima at line center
    mid = r33[np.abs(d1) < 1.0].min()
    assert mid < r33[locmax].min()


def test_system_owns_the_transit_broadened_rates(li2):
    """G21...G3 are the raw rates plus transit, and a new transit rate moves
    all five by exactly that much."""
    w = li2.transit_rate
    assert w > 0.0
    assert li2.G21 == 0.5 * li2.gamma2 + li2.gamma12_col + w
    assert li2.G31 == 0.5 * li2.gamma3 + li2.gamma13_col + w
    assert li2.G32 == 0.5 * (li2.gamma2 + li2.gamma3) + li2.gamma23_col + w
    assert li2.G2 == li2.gamma2 + w
    assert li2.G3 == li2.gamma3 + w
    names = ("G21", "G31", "G32", "G2", "G3")
    moved = replace(li2, transit_rate=w + 10.0)
    for name in names:
        assert getattr(moved, name) == pytest.approx(
            getattr(li2, name) + 10.0, rel=1e-15), name
    still = replace(li2, transit_rate=0.0, refill_rate=0.0)
    assert [getattr(still, n) for n in names] == [
        0.5 * li2.gamma2 + li2.gamma12_col,
        0.5 * li2.gamma3 + li2.gamma13_col,
        0.5 * (li2.gamma2 + li2.gamma3) + li2.gamma23_col,
        li2.gamma2, li2.gamma3]


def coupling_terms(sys, d):
    """(A, D, c) of ``analytic._coupling_terms`` for one drive."""
    return analytic._coupling_terms(sys, d.g2, d.delta2**2 + sys.G32**2)


def test_helper_factors_drop_coupling_terms(li2):
    d = drv(li2, g2=0.0, d2=0.0)
    A, D, c = coupling_terms(li2, d)
    assert coupling_saturation_factor(li2, d) == A
    assert A == pytest.approx(li2.G32**2, rel=1e-14)
    assert D == pytest.approx(li2.G32**2 * li2.G2, rel=1e-14)
    assert c == 0.0


def test_denominator_two_evaluation_paths_agree(li2):
    d = drv(li2, g2=1234.5, d2=-321.0)
    # from the raw fields, transit added by hand
    w = li2.transit_rate
    G32 = 0.5 * (li2.gamma2 + li2.gamma3) + li2.gamma23_col + w
    G3 = li2.gamma3 + w
    direct = ((d.delta2**2 + G32**2 + d.g2**2 * G32 / (2 * G3))
              * (li2.gamma2 + w)
              + 0.5 * d.g2**2 * G32 * (1.0 - li2.W32 / G3))
    A, D, c = coupling_terms(li2, d)
    assert D == pytest.approx(direct, rel=1e-14)
    assert D == pytest.approx(coupling_saturation_factor(li2, d) * li2.G2
                              + 2.0 * c * G32, rel=1e-14)
    assert c == pytest.approx(d.g2**2 / 4.0 * (1.0 - li2.W32 / G3),
                              rel=1e-14)


def test_closed_system_denominator_simplifies():
    # W32 = gamma3 + w is reachable within b3 <= 1 only at w = 0, b3 = 1
    closed = CascadeSystem(
        omega21_cm=15642.636, omega32_cm=17053.954,
        gamma2=55.0, gamma3=60.0, b2=0.1, b3=1.0,
        transit_rate=0.0, refill_rate=0.0, J1=15, J2=14, J3=14)
    assert closed.is_closed
    d = DriveParams(g1=0.05, g2=800.0, delta1=0.0, delta2=150.0)
    A, D, c = coupling_terms(closed, d)
    assert c == 0.0
    assert D == pytest.approx(A * closed.gamma2, rel=1e-12)


def test_nan_inputs_rejected(li2):
    with pytest.raises(ValueError):
        DriveParams(g1=float("nan"), g2=0.0, delta1=0.0, delta2=0.0)
    with pytest.raises(ValueError):
        DriveParams(g1=0.1, g2=0.0, delta1=float("nan"), delta2=0.0)


@pytest.mark.parametrize("of, name, value, message", [
    ("system", "omega21_cm", 0.0, "omega21_cm must be finite and > 0"),
    ("system", "omega32_cm", float("inf"), "omega32_cm must be finite"),
    ("system", "gamma2", -1.0, "gamma2 must be finite and >= 0"),
    ("system", "refill_rate", float("inf"), "refill_rate must be finite"),
    ("system", "b3", 1.5, "b3 must lie in [0, 1]"),
    ("lasers", "power_coupling_w", -1e-3, "power_coupling_w must be finite"
     " and >= 0"),
    ("lasers", "waist_probe_m", 0.0, "waist_probe_m must be finite and > 0"),
    ("drive", "g2", -1.0, "Rabi frequencies must be >= 0"),
])
def test_constructors_reject_a_value_outside_its_domain(li2, li2_lasers, of,
                                                        name, value, message):
    base = {"system": li2, "lasers": li2_lasers,
            "drive": DriveParams(g1=0.1, g2=800.0, delta1=0.0, delta2=0.0)}
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(base[of], **{name: value})


_rates = st.floats(min_value=0.1, max_value=500.0)
_dets = st.floats(min_value=-5000.0, max_value=5000.0)
_couplings = st.floats(min_value=0.0, max_value=5000.0)


@settings(max_examples=200, deadline=None)
@given(gamma2=_rates, gamma3=_rates, b2=st.floats(0.0, 1.0),
       b3=st.floats(0.0, 1.0), w=st.floats(0.1, 100.0),
       g2=_couplings, d1=_dets, d2=_dets)
def test_populations_never_negative(gamma2, gamma3, b2, b3, w, g2, d1, d2):
    sys = CascadeSystem(omega21_cm=15000.0, omega32_cm=17000.0,
                        gamma2=gamma2, gamma3=gamma3, b2=b2, b3=b3,
                        transit_rate=w, refill_rate=w,
                        J1=15, J2=14, J3=14)
    r22 = population_rho22(sys, 0.01, g2, d1, d2)
    r33 = population_rho33(sys, 0.01, g2, d1, d2)
    floor = -1e-12 * max(abs(r22), abs(r33), 1e-300)
    assert r22 >= floor
    assert r33 >= floor


# closed-form Maxwellian average -----------------------------------------------

def averaging_inputs(sys, ensemble, delta1_mhz, delta2_mhz):
    """Detunings and their slopes in t = vz/u_p, as the scan engine builds
    them."""
    d1 = angular_from_mhz(np.asarray(delta1_mhz, float))
    d2 = angular_from_mhz(delta2_mhz)
    b1, b2 = velocity_detunings(0.0, 0.0, sys.omega21_angular + d1,
                                sys.omega32_angular + d2, ensemble.u_p,
                                ensemble.geometry)
    return d1, d2, b1, b2


def trapezoid_populations(sys, ensemble, g1, g2, d1, d2, nodes=8001):
    """Unverified trapezoid averages of both populations, per channel."""
    vz, (_, w), _ = node_plan(ensemble, QuadratureSpec(node_count=nodes),
                              verified=False)
    big_d1, big_d2 = velocity_detunings(
        d1[:, None], d2, sys.omega21_angular + d1[:, None],
        sys.omega32_angular + d2, vz[None, :], ensemble.geometry)
    return [np.array([kernel(sys, a, b, big_d1, big_d2) @ w
                      for a, b in zip(g1, g2)])
            for kernel in (population_rho22, population_rho33)]


@pytest.mark.parametrize("preset", ["li2_fig3b", "li2_fig4", "li2_fig6a",
                                    "li2_fig6b"])
def test_closed_form_matches_trapezoid_on_coupled_presets(preset):
    """The |M|-summed closed-form averages agree with an 8001-node
    trapezoid to 1e-6 of peak, for both populations."""
    cfg = preset_config(preset)
    sys, ens = cfg.system, cfg.ensemble
    cs = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    g1 = np.array([ch.g1 for ch in cs])
    g2 = np.array([ch.g2 for ch in cs])
    mult = np.array([ch.multiplicity for ch in cs])
    d1, d2, b1, b2 = averaging_inputs(sys, ens, cfg.scan.delta1_mhz[::16],
                                      cfg.scan.delta2_mhz)
    closed = doppler_averaged_populations(sys, g1, g2, d1, d2, b1, b2)
    trap = trapezoid_populations(sys, ens, g1, g2, d1, d2)
    for c, t in zip(closed, trap):
        summed_c, summed_t = mult @ c, mult @ t
        peak = np.max(np.abs(summed_t))
        assert peak > 0.0
        assert np.max(np.abs(summed_c - summed_t)) <= 1e-6 * peak


def graded_populations(sys, ensemble, g1, g2, d1, d2, span):
    """Both rules of ``doppler.graded_rule`` applied to each channel's
    ``channel_populations`` on the nodes graded toward its poles at each
    point: (coarse, fine), each a (signal, channel, point) table."""
    d1, d2, b1, b2 = averaging_inputs(sys, ensemble, d1, d2)
    out = np.zeros((2, 2, len(g1), d1.size))
    for i in range(len(g1)):
        poles = np.stack(np.broadcast_arrays(*analytic._poles(
            sys, g2[i], d1, d2, b1, b2)[0]), axis=-1)
        rule = graded_rule(poles, span)
        row = rule.owner[:, None]
        table = channel_populations(sys, [g1[i]], [g2[i]],
                                    d1[row] + b1[row] * rule.nodes,
                                    d2 + b2 * rule.nodes)[:, 0]
        out[:, :, i] = rule.averages(table)
    return out


@pytest.mark.parametrize("preset", ["li2_fig3a", "li2_fig3b", "li2_fig4",
                                    "li2_fig6a", "li2_fig6b"])
def test_closed_form_matches_graded_rule_on_presets(preset):
    """On every preset's scan, every 8th point, the |M|-summed closed-form
    averages agree with the graded Kronrod-15 rule to 1e-8 of peak, and
    with its Gauss-7 rule to 1e-5."""
    cfg = preset_config(preset)
    sys, ens = cfg.system, cfg.ensemble
    cs = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    g1 = np.array([ch.g1 for ch in cs])
    g2 = np.array([ch.g2 for ch in cs])
    mult = np.array([ch.multiplicity for ch in cs])
    grid = cfg.scan.delta1_mhz[::8]
    d1, d2, b1, b2 = averaging_inputs(sys, ens, grid, cfg.scan.delta2_mhz)
    closed = mult @ doppler_averaged_populations(sys, g1, g2, d1, d2, b1, b2)
    coarse, fine = (mult @ rule for rule in graded_populations(
        sys, ens, g1, g2, grid, cfg.scan.delta2_mhz, cfg.quadrature.span))
    for c, f, g in zip(closed, fine, coarse):
        peak = np.max(np.abs(c))
        if peak == 0.0:     # rho33 with the coupling off
            continue
        assert np.max(np.abs(c - f)) <= 1e-8 * peak
        assert np.max(np.abs(g - f)) <= 1e-5 * peak


@settings(max_examples=60, deadline=None)
@given(gamma2=_rates, gamma3=_rates, dephasing=st.floats(0.0, 500.0),
       transit=_rates, u_p=st.floats(3.0, 2000.0), g2=_couplings,
       delta2=_dets, omega32=st.floats(12000.0, 20000.0),
       geometry=st.sampled_from([COUNTER_PROPAGATING, CO_PROPAGATING]))
def test_closed_form_matches_graded_rule_on_random_systems(
        gamma2, gamma3, dephasing, transit, u_p, g2, delta2, omega32,
        geometry):
    """Random rates, thermal speeds, couplings and beam geometries: the
    closed form agrees with the graded Kronrod-15 rule over +-6 u_p, where
    the Maxwellian's tail is below 1e-16, to 1e-8 of each channel's peak
    over a scan of +-4 Doppler widths, with the coupling off and on."""
    sys = CascadeSystem(omega21_cm=15000.0, omega32_cm=omega32,
                        gamma2=gamma2, gamma3=gamma3, b2=0.1, b3=0.2,
                        gamma12_col=dephasing, transit_rate=transit,
                        refill_rate=transit, J1=15, J2=14, J3=14)
    ens = Ensemble(0.0, 0.0, geometry, u_p_override=u_p)
    width = abs(averaging_inputs(sys, ens, 0.0, 0.0)[2])    # |b1|, Mrad/s
    grid = np.linspace(-4.0, 4.0, 31) * width / (2.0 * np.pi)   # MHz
    g1, g2s = [1.0, 1.0], [0.0, g2]
    d1, d2, b1, b2 = averaging_inputs(sys, ens, grid, delta2)
    closed = doppler_averaged_populations(sys, g1, g2s, d1, d2, b1, b2)
    fine = graded_populations(sys, ens, g1, g2s, grid, delta2, 6.0)[1]
    peak = np.max(np.abs(closed), axis=-1, keepdims=True)
    assert np.all(np.abs(closed - fine) <= 1e-8 * peak)


def test_closed_form_uses_lower_half_plane_poles(li2, li2_ensemble):
    """With the coupling on, poles below the real axis carry a sizeable
    share of the average, and the closed form still matches the trapezoid.
    (With the coupling off only the pole above the axis has a residue, so a
    coupling-off check cannot see a wrong lower-half-plane branch.)"""
    g1, g2 = np.array([10.0]), np.array([800.0])
    d1, d2, b1, b2 = averaging_inputs(li2, li2_ensemble,
                                      np.linspace(-1500.0, 1500.0, 31), 300.0)
    z, weight = analytic._pole_weights(li2, g2[:, None], d1, d2, b1, b2)
    lower = z.imag < 0.0
    assert lower.sum(axis=0).min() >= 1
    d2z = d2 + b2 * z
    two_photon, coupling = analytic._factors(li2, d1 + b1 * z, d2z)
    frac = analytic._rho22_numerator(li2, g2[:, None], d2z, two_photon,
                                     coupling) * weight
    share = (np.abs(np.sum(np.where(lower, frac, 0.0), axis=0))
             / np.abs(np.sum(frac, axis=0)))
    assert share.max() > 0.1

    closed = doppler_averaged_populations(li2, g1, g2, d1, d2, b1, b2)
    trap = trapezoid_populations(li2, li2_ensemble, g1, g2, d1, d2)
    for c, t in zip(closed, trap):
        assert np.max(np.abs(c - t)) <= 1e-6 * np.max(np.abs(t))


def test_closed_form_skips_rho33_without_coupling(li2, li2_ensemble):
    """rho33 stays +0.0 in a g2 = 0 channel; rho22 reduces to the Voigt
    average of the two-level Lorentzian."""
    d1, d2, b1, b2 = averaging_inputs(li2, li2_ensemble,
                                      np.linspace(-3000.0, 3000.0, 41), 0.0)
    r22, r33 = doppler_averaged_populations(
        li2, [10.0, 10.0], [0.0, 500.0], d1, d2, b1, b2)
    assert np.all(r33[0] == 0.0) and not np.any(np.signbit(r33[0]))
    assert np.all(r33[1] > 0.0)
    trap = trapezoid_populations(li2, li2_ensemble, [10.0], [0.0], d1, d2)
    assert np.max(np.abs(r22[0] - trap[0][0])) <= 1e-6 * np.max(trap[0][0])
    unasked, _ = doppler_averaged_populations(
        li2, [10.0], [500.0], d1, d2, b1, b2, rho22=False)
    assert np.all(unasked == 0.0)


def test_closed_form_with_equal_wavenumbers(li2, li2_ensemble):
    """Counter-propagating beams of equal wavenumber make the two-photon
    detuning velocity independent at delta1 = delta2: one root of the probe
    response goes to infinity and the closed form must drop it."""
    from dataclasses import replace

    sys = replace(li2, omega32_cm=li2.omega21_cm)
    g1, g2 = np.array([10.0, 10.0]), np.array([0.0, 800.0])
    d1, d2, b1, b2 = averaging_inputs(sys, li2_ensemble,
                                      np.linspace(-600.0, 600.0, 25), 0.0)
    assert np.any(b1 + b2 == 0.0)
    closed = doppler_averaged_populations(sys, g1, g2, d1, d2, b1, b2)
    trap = trapezoid_populations(sys, li2_ensemble, g1, g2, d1, d2)
    for c, t in zip(closed, trap):
        assert np.all(np.isfinite(c))
        assert np.max(np.abs(c - t)) <= 1e-6 * np.max(np.abs(t))


def is_plus_zero(a):
    """Every element is +0.0: equal to zero, and without a sign bit."""
    return bool(np.all(a == 0.0) and not np.any(np.signbit(a)))


def test_channel_populations_match_the_single_channel_kernels():
    """The shared-factor kernel's table gives, channel by channel, the bits
    of population_rho22/33 on li2_fig3b's channels (one of them with
    g2 = 0) plus two channels that share an existing g2; it leaves +0.0 in
    rho33 at g2 = 0 and in every row it is not asked for."""
    cfg = preset_config("li2_fig3b")
    sys, ens = cfg.system, cfg.ensemble
    cs = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    g1 = [ch.g1 for ch in cs]
    g2 = [ch.g2 for ch in cs]
    assert 0.0 in g2
    shared = max(g2)
    g1 += [0.5 * g1[g2.index(shared)], 3.0]
    g2 += [shared, shared]
    d1 = angular_from_mhz(np.linspace(-900.0, 900.0, 7))[:, None]
    d2 = angular_from_mhz(cfg.scan.delta2_mhz)
    vz = node_plan(ens, QuadratureSpec(node_count=101), verified=False).nodes
    big_d1, big_d2 = velocity_detunings(
        d1, d2, sys.omega21_angular + d1, sys.omega32_angular + d2,
        vz[None, :], ens.geometry)

    table = channel_populations(sys, g1, g2, big_d1, big_d2)
    assert table.shape == (2, len(g1), *big_d1.shape)
    for i in range(len(g1)):
        assert np.array_equal(
            table[0, i], population_rho22(sys, g1[i], g2[i], big_d1, big_d2))
        assert np.array_equal(
            table[1, i], population_rho33(sys, g1[i], g2[i], big_d1, big_d2))
        assert np.any(table[0, i] != 0.0)
        assert is_plus_zero(table[1, i]) == (g2[i] == 0.0)

    no22 = channel_populations(sys, g1, g2, big_d1, big_d2, rho22=False)
    assert is_plus_zero(no22[0]) and np.array_equal(no22[1], table[1])
    no33 = channel_populations(sys, g1, g2, big_d1, big_d2, rho33=False)
    assert is_plus_zero(no33[1]) and np.array_equal(no33[0], table[0])


def test_unrequested_rows_are_plus_zero(li2):
    """A row the kernel is not asked for is +0.0, though the populations
    it would hold are negative zero or NaN where the factors are."""
    d1 = angular_from_mhz(np.array([-10.0, 0.0, np.nan]))
    for rho22, rho33 in ((True, False), (False, True), (False, False)):
        table = channel_populations(li2, [0.0, 2.0], [300.0, 0.0], d1, 0.0,
                                    rho22, rho33)
        assert is_plus_zero(table[[not rho22, not rho33]])


# the real-arithmetic kernel against the complex formulas --------------------

def complex_populations(sys, g1, g2, d1, d2):
    """rho22 and rho33 of one channel by the module docstring's complex
    formulas, from the factors the closed form uses."""
    two_photon, coupling = analytic._factors(sys, d1, d2)
    P = (d1 + 1j * sys.G21) * two_photon - g2**2 / 4.0
    D = analytic._coupling_terms(sys, g2, d2**2 + sys.G32**2)[1]
    n22 = analytic._rho22_numerator(sys, g2, d2, two_photon, coupling)
    n33 = analytic._rho33_numerator(sys, two_photon, coupling)
    return (analytic._rho22_from(sys, g1, D, n22 / P),
            analytic._rho33_from(sys, g1, g2, D, np.imag(n33 / P)))


def assert_kernel_matches_complex_form(sys, g1, g2, d1, d2):
    """Each population of the ``channel_populations`` table within 1e-13 of
    its peak of the complex form (exactly, where that underflows to zero),
    computed without a floating-point warning; rho33 at g2 = 0 is +0.0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = channel_populations(sys, g1, g2, d1, d2)
    assert table.shape[:2] == (2, len(g1))
    for i, (r22, r33) in enumerate(table.swapaxes(0, 1)):
        ref22, ref33 = complex_populations(sys, g1[i], g2[i], d1, d2)
        pairs = [(r22, ref22)]
        if g2[i] == 0.0:
            assert is_plus_zero(r33)
        else:
            pairs.append((r33, ref33))
        for got, ref in pairs:
            peak = np.max(np.abs(ref))
            assert np.isfinite(peak)
            assert np.max(np.abs(got - ref)) <= 1e-13 * peak


@pytest.mark.parametrize("preset", ["li2_fig3a", "li2_fig3b", "li2_fig4",
                                    "li2_fig6a", "li2_fig6b"])
def test_real_kernel_matches_complex_form_on_spot_check_points(spy, preset):
    """On the velocity nodes a verified scan spot-checks (the points its
    ``simulate`` picks, the graded rule's nodes of every distinct g2 there),
    every channel of every preset."""
    cfg = preset_config(preset)
    sys, ens = cfg.system, cfg.ensemble
    channels = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                              cfg.lasers.field_probe,
                              cfg.lasers.field_coupling)
    picked = spy(spectrum, "_spot_check_points")
    spectrum.simulate(sys, cfg.lasers, ens, channels, cfg.scan,
                      cfg.quadrature)
    [(_, idx)] = picked
    d1, d2, b1, b2 = averaging_inputs(sys, ens, cfg.scan.delta1_mhz[idx],
                                      cfg.scan.delta2_mhz)
    g2 = np.unique([ch.g2 for ch in channels])[:, None]
    poles = np.stack(np.broadcast_arrays(*analytic._poles(
        sys, g2, d1, d2, b1, b2)[0]), axis=-1)
    rule = graded_rule(poles.reshape(-1, 3), cfg.quadrature.span)
    # each panel's nodes, at the point of its row, for every channel
    point = rule.owner[:, None] % idx.size
    assert_kernel_matches_complex_form(
        sys, [ch.g1 for ch in channels], [ch.g2 for ch in channels],
        d1[point] + b1[point] * rule.nodes, d2 + b2 * rule.nodes)


@pytest.mark.parametrize("rate", ["gamma2", "gamma3", "transit_rate",
                                  "refill_rate", "gamma12_col", "gamma13_col",
                                  "gamma23_col"])
def test_real_kernel_matches_complex_form_with_a_rate_at_its_cap(li2, rate):
    """One rate at config's 1e75 Mrad/s cap: 1/P is formed before it meets
    a numerator, so nothing overflows and the kernel keeps its accuracy."""
    sys = replace(li2, **{rate: 1e75})
    d1 = angular_from_mhz(np.linspace(-3000.0, 3000.0, 61))[:, None]
    d2 = angular_from_mhz(np.linspace(-2000.0, 2000.0, 41))[None, :]
    assert_kernel_matches_complex_form(sys, [10.0, 10.0, 3.0],
                                       [0.0, 800.0, 4000.0], d1, d2)


def test_closed_form_shares_repeated_couplings_bit_for_bit(li2, li2_ensemble):
    """Channels that repeat a g2 (zero included) get the very bits each
    would get averaged on its own, with and without rho22."""
    g1 = np.array([10.0, 20.0, 10.0, 5.0, 7.0, 3.0])
    g2 = np.array([800.0, 0.0, 800.0, 300.0, 0.0, 800.0])
    d1, d2, b1, b2 = averaging_inputs(li2, li2_ensemble,
                                      np.linspace(-1500.0, 1500.0, 31), 300.0)
    for rho22 in (True, False):
        r22, r33 = doppler_averaged_populations(li2, g1, g2, d1, d2, b1, b2,
                                                rho22=rho22)
        for i in range(g1.size):
            one22, one33 = doppler_averaged_populations(
                li2, g1[i:i + 1], g2[i:i + 1], d1, d2, b1, b2, rho22=rho22)
            assert np.array_equal(r22[i], one22[0])
            assert np.array_equal(r33[i], one33[0])


def test_closed_form_rho33_of_a_preset_keeps_each_channel_alone():
    """li2_fig4's 15 channels, the g2 = 0 channel of |M| = 0 next to 14
    coupled ones, with both signals: rho33 is summed for every g2, g2 = 0
    included, without a gather.  Each channel's row has the bits of that
    channel averaged alone, the g2 = 0 row is +0.0, and no floating-point
    warning is raised."""
    cfg = preset_config("li2_fig4")
    sys = cfg.system
    cs = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    g1 = np.array([ch.g1 for ch in cs])
    g2 = np.array([ch.g2 for ch in cs])
    assert g2[0] == 0.0 and np.all(g2[1:] != 0.0)
    d1, d2, b1, b2 = averaging_inputs(sys, cfg.ensemble,
                                      cfg.scan.delta1_mhz[::10],
                                      cfg.scan.delta2_mhz)
    with np.errstate(all="raise"):
        r33 = doppler_averaged_populations(sys, g1, g2, d1, d2, b1, b2)[1]
        for i in range(g1.size):
            alone = doppler_averaged_populations(sys, g1[i:i + 1],
                                                 g2[i:i + 1], d1, d2, b1,
                                                 b2)[1, 0]
            assert np.array_equal(r33[i], alone)
    assert is_plus_zero(r33[0])
    assert np.all(r33[1:] > 0.0)


@pytest.mark.parametrize("g2, distinct", [
    ([0.0] * 15, 1),                        # li2_fig3a: coupling off
    ([800.0, 0.0, 800.0, 300.0, 0.0], 3),
    ([100.0, 200.0, 300.0], 3),
])
def test_closed_form_evaluates_z_once_per_distinct_coupling(
        monkeypatch, li2, li2_ensemble, g2, distinct):
    """Z is evaluated on the two probe-response poles at every point of
    each distinct g2, and on the normalization's upper pole once per g2:
    its conjugate's value is the conjugate of that one."""
    seen = []
    real = analytic.plasma_dispersion

    def counted(z):
        seen.append(np.size(z))
        return real(z)

    monkeypatch.setattr(analytic, "plasma_dispersion", counted)
    n = 23
    d1, d2, b1, b2 = averaging_inputs(li2, li2_ensemble,
                                      np.linspace(-1500.0, 1500.0, n), 300.0)
    doppler_averaged_populations(li2, np.full(len(g2), 10.0), g2, d1, d2,
                                 b1, b2)
    assert sum(seen) == 2 * distinct * n + distinct
