"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np
import pytest

from eitmol import analytic
from eitmol.analytic import population_rho22
from eitmol.bloch import solve_steady_state
from eitmol.cli import (
    ORACLE_CHECK_TOL,
    ORACLE_COUPLINGS,
    ORACLE_DETUNINGS,
    ORACLE_PROBE,
    main,
    oracle_deviation,
)
from eitmol.config import preset_config
from eitmol.features import extract_features, profile_fwhm
from eitmol.fitting import FitProblem, fit, synthetic_target
from eitmol.spectrum import ScanConfig, per_m_components, simulate
from eitmol.sublevels import ChannelSet, build_channels
from eitmol.system import CascadeSystem, DriveParams


def channels_for(cfg, mu_coupling=None, power_coupling=None):
    lasers = cfg.lasers
    if power_coupling is not None:
        lasers = dataclasses.replace(lasers, power_coupling_w=power_coupling)
    return build_channels(cfg.system, cfg.mu_probe_au,
                          mu_coupling or cfg.mu_coupling_au,
                          lasers.field_probe, lasers.field_coupling)


def run_preset(name, scan_kw=None, **channel_kw):
    cfg = preset_config(name)
    cs = channels_for(cfg, **channel_kw)
    scan = cfg.scan
    if scan_kw:
        base = dict(delta1_mhz=scan.delta1_mhz, delta2_mhz=scan.delta2_mhz,
                    channels=scan.channels, doppler_on=scan.doppler_on,
                    m_sum_on=scan.m_sum_on, engine=scan.engine)
        base.update(scan_kw)
        scan = ScanConfig(**base)
    spec = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs, scan,
                    quadrature=cfg.quadrature, threads=4)
    return cfg, spec


def test_criterion_1_dip_position_law():
    """Simulated EIT dip positions for detuned coupling match the modified
    two-photon law at the reported figures: -385 and -917 MHz, +-10 MHz."""
    results = {}
    for name, delta2, target in [("li2_fig6a", 420.0, -385.0),
                                 ("li2_fig6b", 1000.0, -917.0)]:
        t0 = time.time()
        cfg, spec = run_preset(name)
        elapsed = time.time() - t0
        f = extract_features(spec, "rho22")
        results[delta2] = (f.dip_position, elapsed)
        assert f.dip_position == pytest.approx(target, abs=10.0)
        assert elapsed < 60.0
    print(f"\nPASS criterion 1: dip at {results[420.0][0]:.1f} MHz"
          f" (target -385+-10, {results[420.0][1]:.1f} s) and"
          f" {results[1000.0][0]:.1f} MHz (target -917+-10,"
          f" {results[1000.0][1]:.1f} s)")


def test_criterion_2_oracle_equivalence():
    """Weak-probe analytic populations match the 9x9 steady-state solve to
    1e-4 over a 5x5x5 (D1, D2, g2) grid; deviation scales as g1^2."""
    t0 = time.time()
    cfg = preset_config("li2_fig4")
    sys = cfg.system
    gam = sys.gamma2
    # the 5x5x5 (D1, D2, g2) grid at g1 = 1e-3 gamma2 of `eitmol oracle-check`
    assert (ORACLE_DETUNINGS.size, ORACLE_COUPLINGS.size) == (5, 5)
    assert ORACLE_PROBE == 1e-3 and ORACLE_CHECK_TOL == 1e-4
    worst = oracle_deviation(sys)
    assert worst <= 1e-4

    ratios = np.array([1e-3, 3e-3, 1e-2, 3e-2])
    devs = []
    for r in ratios:
        g1r = r * gam
        m = 0.0
        for d1 in (-5.0 * gam, 0.0, 5.0 * gam):
            for g2 in (0.2 * gam, 20.0 * gam):
                s = solve_steady_state(
                    sys, DriveParams(g1r, g2, d1, 0.0))
                a22 = population_rho22(sys, g1r, g2, d1, 0.0)
                m = max(m, abs(a22 - s.rho22) / s.rho22)
        devs.append(m)
    slope = np.polyfit(np.log(ratios), np.log(devs), 1)[0]
    elapsed = time.time() - t0
    assert slope == pytest.approx(2.0, abs=0.1)
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: max deviation {worst:.2e} (<= 1e-4),"
          f" slope {slope:.3f} (2 +- 0.1), {elapsed:.1f} s")


def test_criterion_3_doppler_width():
    """Coupling-off intermediate-level spectrum at 1000 K / 14 amu has a
    width within 15% of the measured 2.6 GHz."""
    t0 = time.time()
    cfg, spec = run_preset("li2_fig3a")
    _, fwhm = profile_fwhm(spec.delta1_mhz, spec.signals["rho22"])
    elapsed = time.time() - t0
    assert abs(fwhm - 2600.0) / 2600.0 <= 0.15
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: coupling-off FWHM {fwhm:.0f} MHz"
          f" ({abs(fwhm - 2600) / 26:.1f}% from 2.6 GHz, <= 15%),"
          f" {elapsed:.1f} s")


def test_criterion_4_fit_round_trip():
    """Synthetic upper-level spectrum at mu = 1.45 au with 1% seeded noise:
    the fit recovers mu within 2% in at most 2000 evaluations."""
    t0 = time.time()
    cfg = preset_config("li2_fig4")
    grid = np.linspace(-1200.0, 1200.0, 201)
    cs = channels_for(cfg)
    scan = ScanConfig(delta1_mhz=grid, delta2_mhz=0.0, channels=("rho33",),
                      doppler_on=True)
    truth = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs, scan,
                     quadrature=cfg.quadrature, threads=4)
    target = synthetic_target(truth, "rho33", 0.01, seed=20240817)
    fp = FitProblem(
        target_delta1_mhz=grid,
        target_signal=target,
        channel="rho33",
        free=("mu_coupling", "amplitude_scale"),
        bounds={"mu_coupling": (0.8, 2.5), "amplitude_scale": (0.1, 10.0)},
        system=cfg.system,
        lasers=cfg.lasers,
        ensemble=cfg.ensemble,
        mu_probe_au=cfg.mu_probe_au,
        mu_coupling_au=cfg.mu_coupling_au,
        delta2_mhz=0.0,
        doppler_on=True,
        quadrature=cfg.quadrature,
    )
    result = fit(fp, {"mu_coupling": 1.2, "amplitude_scale": 0.8})
    elapsed = time.time() - t0
    mu = result.best_params["mu_coupling"]
    assert result.converged
    assert result.evaluations <= 2000
    assert mu == pytest.approx(1.45, rel=0.02)
    assert elapsed < 600.0

    # second half of the workflow: the fitted dipole must forward-predict
    # the transparency dip of the intermediate level at line center
    cs_fit = channels_for(cfg, mu_coupling=mu)
    scan22 = ScanConfig(delta1_mhz=np.linspace(-3000.0, 3000.0, 601),
                        delta2_mhz=0.0, channels=("rho22",), doppler_on=True)
    spec22 = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs_fit, scan22,
                      quadrature=cfg.quadrature, threads=4)
    f22 = extract_features(spec22, "rho22")
    assert f22.dip_position == pytest.approx(0.0, abs=15.0)
    assert f22.dip_depth_fraction > 0.3
    print(f"\nPASS criterion 4: recovered mu = {mu:.4f} au"
          f" ({abs(mu - 1.45) / 1.45 * 100:.2f}% from 1.45, <= 2%),"
          f" {result.evaluations} evaluations, {elapsed:.0f} s;"
          f" forward-predicted transparency dip at"
          f" {f22.dip_position:.1f} MHz, depth {f22.dip_depth_fraction:.2f}")


def test_criterion_5_power_scaling():
    """Stronger coupling makes the transparency dip deeper and wider, and
    the Doppler-free single-channel splitting grows as sqrt(power)."""
    cfg = preset_config("li2_fig4")
    depths = []
    widths = []
    for power in (0.03, 0.12, 0.48):
        cfg_i, spec = run_preset(
            "li2_fig4",
            scan_kw=dict(delta1_mhz=np.linspace(-3000.0, 3000.0, 601),
                         channels=("rho22",)),
            power_coupling=power)
        f = extract_features(spec, "rho22")
        depths.append(f.dip_depth_fraction)
        widths.append(f.dip_fwhm)
    assert depths[0] < depths[1] < depths[2]
    assert widths[0] < widths[1] < widths[2]

    splittings = {}
    for power in (0.12, 0.48):
        cs = channels_for(cfg, power_coupling=power)
        one = ChannelSet(channels=(cs.channel(14),), g1_bare=cs.g1_bare,
                         g2_bare=cs.g2_bare)
        g2_mhz = cs.channel(14).g2 / (2.0 * np.pi)
        scan = ScanConfig(
            delta1_mhz=np.linspace(-1.6 * g2_mhz, 1.6 * g2_mhz, 2001),
            channels=("rho33",), doppler_on=False)
        spec = simulate(cfg.system, cfg.lasers, None, one, scan)
        splittings[power] = extract_features(spec, "rho33").at_splitting
    ratio = splittings[0.48] / splittings[0.12]
    assert ratio == pytest.approx(2.0, rel=0.10)
    print(f"\nPASS criterion 5: dip depths {[f'{d:.2f}' for d in depths]} and"
          f" widths {[f'{w:.0f}' for w in widths]} MHz increase with power;"
          f" splitting ratio 480/120 mW = {ratio:.3f} (2 +- 10%)")


def test_criterion_6_m_structure():
    """The detuned preset resolves into exactly 14 upper-level components
    with splittings proportional to |M|, and the summed transparency dip
    never falls below the decoupled M = 0 two-level contribution."""
    cfg = preset_config("li2_fig6b")
    cs = channels_for(cfg)
    scan = ScanConfig(delta1_mhz=np.linspace(-2200.0, 600.0, 1401),
                      delta2_mhz=1000.0, channels=("rho33",), doppler_on=True)
    comps = per_m_components(cfg.system, cfg.lasers, cfg.ensemble, cs, scan,
                             quadrature=cfg.quadrature, threads=4)
    nonzero = [c for c in comps if c.signals["rho33"].max() > 0.0]
    assert len(nonzero) == 14

    splittings = {}
    for comp in nonzero:
        m = comp.metadata["component.abs_m"]
        try:
            splittings[m] = extract_features(comp, "rho33").at_splitting
        except Exception:
            continue  # smallest |M| doublets may not resolve on this grid
    ratio = splittings[14] / splittings[7]
    assert ratio == pytest.approx(2.0, rel=0.10)
    ordered = [splittings[m] for m in sorted(splittings)]
    assert len(ordered) >= 10
    assert all(a < b for a, b in zip(ordered, ordered[1:]))

    # dip floor of the summed transparency spectrum at double resonance
    cfg4 = preset_config("li2_fig4")
    cs4 = channels_for(cfg4)
    grid = np.linspace(-40.0, 40.0, 5)
    scan4 = ScanConfig(delta1_mhz=grid, delta2_mhz=0.0, channels=("rho22",),
                       doppler_on=True)
    summed = simulate(cfg4.system, cfg4.lasers, cfg4.ensemble, cs4, scan4,
                      quadrature=cfg4.quadrature)
    m0_only = ChannelSet(channels=(cs4.channel(0),), g1_bare=cs4.g1_bare,
                         g2_bare=cs4.g2_bare)
    m0 = simulate(cfg4.system, cfg4.lasers, cfg4.ensemble, m0_only, scan4,
                  quadrature=cfg4.quadrature)
    mid = grid.size // 2
    assert m0.signals["rho22"][mid] > 0.0
    assert summed.signals["rho22"][mid] >= m0.signals["rho22"][mid]
    print(f"\nPASS criterion 6: 14 nonzero components, splitting ratio"
          f" |M|=14/7 = {ratio:.3f} (2 +- 10%), dip floor"
          f" {summed.signals['rho22'][mid]:.3e} >= M=0 value"
          f" {m0.signals['rho22'][mid]:.3e} > 0")


def test_criterion_7_closed_system_limit():
    """When upper-level decay exactly feeds all its loss, the population
    denominator collapses to the closed-system expression to 1e-12."""
    closed = CascadeSystem(
        omega21_cm=15642.636, omega32_cm=17053.954,
        gamma2=1e3 / 18.0, gamma3=1e3 / 16.15,
        b2=0.1, b3=1.0, transit_rate=0.0, refill_rate=0.0,
        J1=15, J2=14, J3=14)
    assert closed.is_closed
    worst = 0.0
    for g2 in (0.0, 55.0, 1234.5, 8000.0):
        for d2 in (0.0, -321.0, 2500.0):
            drv = DriveParams(g1=0.05, g2=g2, delta1=11.0, delta2=d2)
            a, d, _ = analytic._coupling_terms(closed, drv.g2,
                                               drv.delta2**2 + closed.G32**2)
            simplified = a * closed.G2
            worst = max(worst, abs(d - simplified) / simplified)
    assert worst <= 1e-12
    print(f"\nPASS criterion 7: closed-limit denominator deviation"
          f" {worst:.2e} (<= 1e-12)")


def test_criterion_8_thread_reproducibility(tmp_path):
    """--threads 1 and --threads 8 produce byte-identical CSV output."""
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = main(["simulate", "--config", "li2_fig3b",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs[threads] = (out / "li2_fig3b.csv").read_bytes()
    assert outputs[1] == outputs[8]
    print(f"\nPASS criterion 8: {len(outputs[1])} CSV bytes identical for"
          " --threads 1 and --threads 8")
