"""The 9x9 direct steady-state solve and its bookkeeping identities."""

import numpy as np
import pytest

from eitmol.analytic import population_rho22, population_rho33
from eitmol.bloch import _assemble_grid, populations_grid, solve_steady_state
from eitmol.errors import SingularSystem
from eitmol.system import CascadeSystem, DriveParams


def drv(sys, g1=0.05, g2=0.0, d1=0.0, d2=0.0):
    return DriveParams(g1, g2, d1, d2)


def test_no_fields_leaves_replenished_ground_state(li2):
    state = solve_steady_state(li2, drv(li2, g1=0.0, g2=0.0))
    assert state.rho11 == pytest.approx(li2.rho11_init, rel=1e-12)
    assert state.rho22 == pytest.approx(0.0, abs=1e-15)
    assert state.rho33 == pytest.approx(0.0, abs=1e-15)
    assert state.rho21 == 0 and state.rho31 == 0 and state.rho32 == 0


def test_upper_population_row_coefficients(li2):
    row = _assemble_grid(li2, 3.0, 77.0, 11.0, -5.0)[2]  # d rho33/dt
    expected = np.zeros(9)
    expected[2] = -(li2.gamma3 + li2.transit_rate)
    expected[8] = -77.0
    assert np.allclose(row, expected, rtol=0, atol=0)


def test_population_row_sums_reproduce_total_loss(li2):
    """Summing the three population rows must cancel all field terms and
    leave transit loss plus the open-decay leaks."""
    m = _assemble_grid(li2, 3.0, 500.0, 100.0, -50.0)
    total = m[0] + m[1] + m[2]
    w = li2.transit_rate
    expected = np.zeros(9)
    expected[0] = -w
    expected[1] = -w - (1.0 - li2.b2) * li2.gamma2
    expected[2] = -w - (1.0 - li2.b3) * li2.gamma3
    assert np.allclose(total, expected, rtol=1e-14, atol=1e-12)


def test_one_velocity_class_is_the_grid_with_the_systems_ground_state(li2):
    """refill = 2 x transit gives rho11_init = 2 to the single solve as to
    the batched one, and doubles both populations."""
    import dataclasses

    doubled = dataclasses.replace(li2, refill_rate=2.0 * li2.transit_rate)
    one = solve_steady_state(doubled, DriveParams(2.0, 300.0, 0.0, 0.0))
    r22, r33 = populations_grid(doubled, 2.0, 300.0, 0.0, 0.0)
    assert (one.rho22, one.rho33) == (r22, r33)
    single = solve_steady_state(li2, DriveParams(2.0, 300.0, 0.0, 0.0))
    assert one.rho22 == pytest.approx(2.0 * single.rho22, rel=1e-12)
    assert one.rho33 == pytest.approx(2.0 * single.rho33, rel=1e-12)


def test_population_bookkeeping_in_steady_state(li2):
    lam = li2.refill_rate * li2.rho11_init
    for g1, g2, d1, d2 in [(3.0, 500.0, 0.0, 0.0), (10.0, 50.0, 30.0, -400.0),
                           (0.5, 3000.0, 1500.0, 700.0)]:
        s = solve_steady_state(li2, drv(li2, g1=g1, g2=g2, d1=d1, d2=d2))
        total = s.rho11 + s.rho22 + s.rho33
        balance = (li2.transit_rate * total
                   + (1.0 - li2.b2) * li2.gamma2 * s.rho22
                   + (1.0 - li2.b3) * li2.gamma3 * s.rho33)
        assert balance == pytest.approx(lam, rel=1e-10)


def test_positivity_and_boundedness(li2):
    s = solve_steady_state(li2, drv(li2, g1=200.0, g2=2000.0))
    assert s.rho11 >= -1e-12 and s.rho22 >= -1e-12 and s.rho33 >= -1e-12
    assert max(s.rho11, s.rho22, s.rho33) <= li2.rho11_init * (1 + 1e-12)


def test_weak_probe_two_level_match(li2):
    g1 = 1e-3 * li2.gamma2
    w = li2.transit_rate
    G21 = li2.gamma21 + w
    for d1 in (0.0, 50.0, -321.0):
        s = solve_steady_state(li2, drv(li2, g1=g1, g2=0.0, d1=d1))
        lorentz = (g1**2 * li2.rho11_init * G21
                   / (2.0 * (li2.gamma2 + w) * (d1**2 + G21**2)))
        assert s.rho22 == pytest.approx(lorentz, rel=1e-6)


def test_agreement_with_analytic_scales_as_probe_squared(li2):
    """Relative deviation from the lowest-order-in-probe solution must fall
    off as g1^2: log-log slope 2 +- 0.1."""
    ratios = np.array([1e-3, 3e-3, 1e-2, 3e-2])
    devs = []
    for r in ratios:
        g1 = r * li2.gamma2
        worst = 0.0
        for d1 in (-250.0, 0.0, 250.0):
            for g2 in (10.0, 1000.0):
                a22 = population_rho22(li2, g1, g2, d1, 0.0)
                a33 = population_rho33(li2, g1, g2, d1, 0.0)
                s = solve_steady_state(li2, drv(li2, g1=g1, g2=g2, d1=d1))
                worst = max(worst, abs(a22 - s.rho22) / s.rho22,
                            abs(a33 - s.rho33) / s.rho33)
        devs.append(worst)
    slope = np.polyfit(np.log(ratios), np.log(devs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_batched_grid_matches_scalar_solves(li2):
    d1 = np.array([-300.0, 0.0, 150.0])
    d2 = np.array([40.0, 0.0, -40.0])
    r22, r33 = populations_grid(li2, 2.0, 800.0, d1[:, None], d2[None, :])
    for i in range(3):
        for j in range(3):
            s = solve_steady_state(li2, drv(li2, 2.0, 800.0, d1[i], d2[j]))
            assert r22[i, j] == pytest.approx(s.rho22, rel=1e-12)
            assert r33[i, j] == pytest.approx(s.rho33, rel=1e-12)


def test_zero_transit_rate_is_singular():
    sys = CascadeSystem(omega21_cm=15000.0, omega32_cm=17000.0,
                        gamma2=55.0, gamma3=60.0, b2=0.1, b3=0.2,
                        transit_rate=0.0, refill_rate=0.0,
                        J1=15, J2=14, J3=14)
    with pytest.raises(SingularSystem):
        solve_steady_state(sys, DriveParams(0.1, 10.0, 0.0, 0.0))


def test_batched_solve_rejects_nonfinite_residual(li2):
    """A NaN detuning gives a NaN residual, which must not pass the check."""
    with pytest.raises(SingularSystem, match="residual nan"):
        populations_grid(li2, 2.0, 800.0, np.array([0.0, np.nan]), 0.0)
