"""Scan engine behavior, engine cross-checks, and serialization."""

import json

import numpy as np
import pytest

from eitmol import analytic, spectrum
from eitmol.config import preset_config
from eitmol.errors import (
    FewerThanTwoPeaks,
    QuadratureNotConverged,
    UnphysicalSignal,
)
from eitmol.features import extract_features, profile_fwhm
from eitmol.spectrum import (
    ScanConfig,
    per_m_components,
    simulate,
    spectrum_csv_text,
    spectrum_json_dict,
    write_spectrum,
)
from eitmol.sublevels import build_channels
from eitmol.doppler import QuadratureSpec, node_plan


def scan(grid, **kw):
    return ScanConfig(delta1_mhz=np.asarray(grid, float), **kw)


def weak_probe_channels(li2, li2_lasers, mu_coupling=1.45):
    """Channel set with the probe scaled deep into the weak-probe regime."""
    return build_channels(li2, 1e-5, mu_coupling, li2_lasers.field_probe,
                          li2_lasers.field_coupling)


def test_grid_must_increase():
    with pytest.raises(ValueError):
        scan([0.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        scan([0.0, 1.0], channels=("rho44",))
    with pytest.raises(ValueError):
        scan([0.0, 1.0], engine="magic")


def test_coupling_off_gives_doppler_profile_and_dark_upper_level(
        li2, li2_lasers, li2_ensemble, fast_quadrature):
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe, 0.0)
    sp = simulate(li2, li2_lasers, li2_ensemble, cs,
                  scan(np.linspace(-3000, 3000, 241)),
                  quadrature=fast_quadrature)
    assert np.all(sp.signal_rho33 == 0.0)
    # single smooth Doppler-dominated profile, peaked at line center
    with pytest.raises(FewerThanTwoPeaks):
        extract_features(sp, "rho22")
    pos, fwhm = profile_fwhm(sp.delta1_mhz, sp.signal_rho22)
    assert pos == pytest.approx(0.0, abs=15.0)
    assert 2000.0 < fwhm < 3600.0


def test_weak_coupling_single_oodr_peak(li2, li2_lasers, li2_ensemble,
                                        fast_quadrature):
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                        li2_lasers.field_coupling * np.sqrt(0.001 / 0.48))
    sp = simulate(li2, li2_lasers, li2_ensemble, cs,
                  scan(np.linspace(-1200, 1200, 301), channels=("rho33",)),
                  quadrature=fast_quadrature)
    with pytest.raises(FewerThanTwoPeaks):
        extract_features(sp, "rho33")
    pos, fwhm = profile_fwhm(sp.delta1_mhz, sp.signal_rho33)
    assert pos == pytest.approx(0.0, abs=10.0)
    assert fwhm < 400.0  # far below the Doppler width: velocity selective


def test_strong_coupling_dip_and_splitting(li2, li2_lasers, li2_ensemble,
                                           li2_channels, fast_quadrature):
    sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                  scan(np.linspace(-3000, 3000, 601)),
                  quadrature=fast_quadrature)
    f22 = extract_features(sp, "rho22")
    assert f22.dip_position == pytest.approx(0.0, abs=15.0)
    assert f22.dip_depth_fraction > 0.3
    f33 = extract_features(sp, "rho33")
    assert f33.at_splitting > 100.0


def test_single_channel_autler_townes_splitting_matches_rabi(li2,
                                                             li2_channels):
    """Doppler-free, strongest |M| channel: splitting ~ g2 within 10%."""
    from eitmol.sublevels import ChannelSet

    ch = li2_channels.channel(14)
    assert ch.g2 > 10.0 * li2.gamma32  # strong-coupling regime
    one = ChannelSet(channels=(ch,), g1_bare=li2_channels.g1_bare,
                     g2_bare=li2_channels.g2_bare)
    g2_mhz = ch.g2 / (2.0 * np.pi)
    grid = np.linspace(-1.5 * g2_mhz, 1.5 * g2_mhz, 1501)
    sp = simulate(li2, None, None, one, scan(grid, doppler_on=False,
                                             channels=("rho33",)))
    f = extract_features(sp, "rho33")
    assert f.at_splitting == pytest.approx(g2_mhz, rel=0.10)


def test_components_sum_to_simulated_spectrum(li2, li2_lasers, li2_ensemble,
                                              li2_channels):
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    grid = np.linspace(-800, 800, 81)
    sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                  quadrature=q)
    comps = per_m_components(li2, li2_lasers, li2_ensemble, li2_channels,
                             scan(grid), quadrature=q)
    assert len(comps) == 15
    total22 = np.zeros_like(grid)
    total33 = np.zeros_like(grid)
    for c in comps:
        total22 += c.signal_rho22
        total33 += c.signal_rho33
    assert np.allclose(total22, sp.signal_rho22, rtol=1e-12, atol=0)
    assert np.allclose(total33, sp.signal_rho33, rtol=1e-12, atol=0)


def test_m_sum_off_simulates_the_bare_channel_alone(li2, li2_lasers,
                                                   li2_ensemble,
                                                   li2_channels):
    from eitmol.sublevels import ChannelSet

    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    grid = np.linspace(-800, 800, 41)
    off = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                   scan(grid, m_sum_on=False), quadrature=q)
    bare = ChannelSet(channels=(li2_channels.bare_channel(),),
                      g1_bare=li2_channels.g1_bare,
                      g2_bare=li2_channels.g2_bare)
    alone = simulate(li2, li2_lasers, li2_ensemble, bare, scan(grid),
                     quadrature=q)
    assert np.array_equal(off.signal_rho22, alone.signal_rho22)
    assert np.array_equal(off.signal_rho33, alone.signal_rho33)
    assert "# scan.m_sum_on = False" in spectrum_csv_text(off).splitlines()
    # the bare pseudo-channel is no |M| component
    with pytest.raises(ValueError, match="m_sum_on"):
        per_m_components(li2, li2_lasers, li2_ensemble, li2_channels,
                         scan(grid, m_sum_on=False), quadrature=q)


def test_components_metadata_and_upper_level_count(li2, li2_lasers,
                                                   li2_ensemble,
                                                   li2_channels):
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    grid = np.linspace(-600, 200, 41)
    comps = per_m_components(li2, li2_lasers, li2_ensemble, li2_channels,
                             scan(grid, delta2_mhz=420.0), quadrature=q)
    ms = [c.metadata["component.abs_m"] for c in comps]
    assert ms == list(range(15))
    nonzero33 = [c for c in comps if c.signal_rho33.max() > 0]
    assert len(nonzero33) == 14


def counting_rho33(monkeypatch):
    """Route the per-channel rho33 step of the population kernels (the
    trapezoid's ``channel_populations`` and the closed form) through a
    recorder of the g2 value of every channel it is formed for."""
    calls = []
    real = analytic._rho33_from

    def counted(sys, g1, g2, *args, **kw):
        calls.extend(np.ravel(g2).tolist())
        return real(sys, g1, g2, *args, **kw)

    monkeypatch.setattr(analytic, "_rho33_from", counted)
    return calls


def test_coupling_off_never_evaluates_rho33(monkeypatch, li2, li2_lasers,
                                            li2_ensemble):
    """With g2 = 0 in every channel the analytic rho33 is exactly zero, so
    the engine must return zeros without running its kernel."""
    calls = counting_rho33(monkeypatch)
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe, 0.0)
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    grid = np.linspace(-800, 800, 41)
    spectra = [simulate(li2, li2_lasers, li2_ensemble, cs, scan(grid),
                        quadrature=q),
               simulate(li2, li2_lasers, None, cs,
                        scan(grid, doppler_on=False))]
    spectra += per_m_components(li2, li2_lasers, li2_ensemble, cs,
                                scan(grid), quadrature=q)
    assert calls == []
    for sp in spectra:
        assert np.all(sp.signal_rho33 == 0.0)
    assert spectra[0].signal_rho22.max() > 0


def test_weak_coupling_still_evaluates_rho33(monkeypatch):
    """rho33 is evaluated in every channel the coupling drives, and in no
    channel it does not (the |M| = 0 channel of the Q-branch coupling)."""
    calls = counting_rho33(monkeypatch)
    cfg = preset_config("li2_fig3b")
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    assert any(ch.g2 > 0 for ch in cs)
    assert any(ch.g2 == 0 for ch in cs)
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    sp = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs,
                  scan(np.linspace(-800, 800, 41)), quadrature=q)
    assert len(calls) > 0
    assert 0.0 not in calls
    assert set(calls) == {ch.g2 for ch in cs if ch.g2 != 0}
    assert sp.signal_rho33.max() > 0


@pytest.mark.parametrize("doppler_on", [True, False])
def test_nonfinite_signal_raises(monkeypatch, li2, li2_lasers, li2_ensemble,
                                 li2_channels, doppler_on):
    """A NaN from the kernel at a single node must stop the scan, not be
    dropped by the refinement check or the negativity floor."""
    real = spectrum.channel_populations

    def poisoned(*args, **kw):
        for i, r22, r33 in real(*args, **kw):
            r22.flat[r22.size // 2 + 1] = np.nan
            yield i, r22, r33

    monkeypatch.setattr(spectrum, "channel_populations", poisoned)
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    with pytest.raises(UnphysicalSignal):
        simulate(li2, li2_lasers, li2_ensemble if doppler_on else None,
                 li2_channels,
                 scan(np.linspace(-800, 800, 41), doppler_on=doppler_on),
                 quadrature=q)


def test_spot_check_catches_a_wrong_closed_form(monkeypatch, li2,
                                                li2_lasers, li2_ensemble,
                                                li2_channels, fast_quadrature):
    """The verified closed form is compared with the doubled trapezoid; an
    error of 1e-3 in its rho33 is reported with the signal and delta1."""
    real = spectrum.doppler_averaged_populations

    def off_by_1e3(*args, **kw):
        r22, r33 = real(*args, **kw)
        return r22, r33 * (1.0 + 1e-3)

    monkeypatch.setattr(spectrum, "doppler_averaged_populations", off_by_1e3)
    grid = np.linspace(-800, 800, 41)
    with pytest.raises(QuadratureNotConverged,
                       match=r"rho33 at delta1 = -?\d+(\.\d+)? MHz"):
        simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                 quadrature=fast_quadrature)
    sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                  scan(grid, verify_quadrature=False))
    assert sp.metadata["quadrature.verified"] is False


def test_spot_check_blames_a_short_span(li2, li2_lasers, li2_ensemble,
                                        li2_channels):
    """A trapezoid truncated at +-0.5 u_p agrees with its doubled rule but
    not with the untruncated closed form; the error says so."""
    with pytest.raises(QuadratureNotConverged, match="widen span above 0.5"):
        simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                 scan(np.linspace(-800, 800, 41)),
                 quadrature=QuadratureSpec(node_count=2001, span=0.5))


def test_spot_check_points(li2, li2_lasers, li2_ensemble, li2_channels):
    """The spot-check points are every 50th point, the last one and the
    extremes of each summed signal, and nothing else."""
    grid = np.linspace(-3000, 3000, 161)
    sc = scan(grid)
    channels = list(li2_channels.channels)
    values = spectrum._doppler_closed_form(li2, li2_ensemble, channels, sc)
    idx = spectrum._spot_check_points(values, channels, sc)
    total = spectrum._channel_sum(values, channels)
    expected = {0, 50, 100, 150, 160}
    for row in total:
        expected |= {int(np.argmax(row)), int(np.argmin(row))}
    assert list(idx) == sorted(expected)


def test_unconverged_trapezoid_names_worst_point(li2, li2_lasers,
                                                 li2_ensemble):
    """On the oracle engine's trapezoid path the refinement failure names
    the signal and the delta1 of the worst point."""
    cs = weak_probe_channels(li2, li2_lasers)
    with pytest.raises(QuadratureNotConverged,
                       match=r"rho(22|33) at delta1 = -?\d+(\.\d+)? MHz"):
        simulate(li2, li2_lasers, li2_ensemble, cs,
                 scan(np.linspace(-200, 200, 5), engine="oracle"),
                 quadrature=QuadratureSpec(node_count=51))


def test_engines_agree_in_weak_probe_regime(li2, li2_lasers):
    """Analytic vs direct-solve engine on a 50-point scan, Doppler free."""
    cs = weak_probe_channels(li2, li2_lasers)
    grid = np.linspace(-1500.0, 1500.0, 50)
    sc_a = scan(grid, doppler_on=False)
    sc_o = scan(grid, doppler_on=False, engine="oracle")
    a = simulate(li2, li2_lasers, None, cs, sc_a)
    o = simulate(li2, li2_lasers, None, cs, sc_o)
    for channel in ("rho22", "rho33"):
        ya, yo = a.signal(channel), o.signal(channel)
        assert np.max(np.abs(ya - yo) / np.abs(yo)) <= 1e-3


def test_oracle_engine_with_doppler_average(li2, li2_lasers, li2_ensemble,
                                           fast_quadrature):
    """The closed-form analytic average against the oracle engine on a
    trapezoid that passes its own doubled-grid check."""
    cs = weak_probe_channels(li2, li2_lasers)
    grid = np.linspace(-200.0, 200.0, 5)
    sc_a = scan(grid, verify_quadrature=False)
    sc_o = scan(grid, engine="oracle")
    a = simulate(li2, li2_lasers, li2_ensemble, cs, sc_a)
    o = simulate(li2, li2_lasers, li2_ensemble, cs, sc_o,
                 quadrature=fast_quadrature)
    assert o.metadata["quadrature.verified"] is True
    assert o.metadata["quadrature.scheme"] == "uniform_trapezoid"
    assert a.metadata["quadrature.scheme"] == "faddeeva"
    assert np.max(np.abs(a.signal_rho22 - o.signal_rho22)
                  / np.abs(o.signal_rho22)) <= 1e-3


def test_threads_do_not_change_bytes(li2, li2_lasers, li2_ensemble,
                                     li2_channels, fast_quadrature):
    grid = np.linspace(-500, 500, 101)
    kw = dict(quadrature=fast_quadrature)
    s1 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                  threads=1, **kw)
    s8 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                  threads=8, **kw)
    assert spectrum_csv_text(s1) == spectrum_csv_text(s8)
    assert np.array_equal(s1.signal_rho22, s8.signal_rho22)
    assert np.array_equal(s1.signal_rho33, s8.signal_rho33)


def test_threads_do_not_change_oracle_trapezoid(li2, li2_lasers, li2_ensemble,
                                                li2_channels):
    """65 points on 201 nodes, one block reduced on the trapezoid (the
    several-block case is test_threads_do_not_change_blocked_trapezoid)."""
    kw = dict(quadrature=QuadratureSpec(node_count=201))
    grid = scan(np.linspace(-1500, 1500, 65), engine="oracle",
                verify_quadrature=False)
    s1 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, grid,
                  threads=1, **kw)
    s3 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, grid,
                  threads=3, **kw)
    assert s1.metadata["quadrature.scheme"] == "uniform_trapezoid"
    assert np.array_equal(s1.signal_rho22, s3.signal_rho22)
    assert np.array_equal(s1.signal_rho33, s3.signal_rho33)


def blocks_of(n, plan):
    step = max(1, spectrum._BLOCK // plan.vz.size)
    return len(range(0, n, step))


def test_threads_do_not_change_blocked_trapezoid(li2, li2_ensemble,
                                                  li2_channels):
    """40 points on the 4001 nodes of a verified 2001-node plan span several
    blocks; one thread and three reduce them to the same bits."""
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=2001))
    sc = scan(np.linspace(-1500, 1500, 40), delta2_mhz=420.0)
    assert blocks_of(40, plan) >= 3
    args = (li2, li2_ensemble, list(li2_channels.channels), sc,
            sc.delta1_mhz, plan)
    one = spectrum._trapezoid(*args, threads=1)
    three = spectrum._trapezoid(*args, threads=3)
    for a, b in zip(one, three):
        assert np.any(a != 0.0)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
def test_trapezoid_bits_do_not_depend_on_the_block_size(
        monkeypatch, li2, li2_ensemble, li2_channels, engine):
    """One point per block reproduces the default blocks bit for bit."""
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=201))
    sc = scan(np.linspace(-800, 800, 9), delta2_mhz=420.0, engine=engine)
    args = (li2, li2_ensemble, list(li2_channels.channels), sc,
            sc.delta1_mhz, plan, 1)
    assert blocks_of(9, plan) == 1
    whole = spectrum._trapezoid(*args)
    monkeypatch.setattr(spectrum, "_BLOCK", 1)
    assert blocks_of(9, plan) == 9
    tiny = spectrum._trapezoid(*args)
    for a, b in zip(whole, tiny):
        assert np.any(a != 0.0)
        assert np.array_equal(a, b)


def test_csv_and_json_round_trip(tmp_path, li2, li2_lasers, li2_channels):
    sp = simulate(li2, li2_lasers, None, li2_channels,
                  scan(np.linspace(-100, 100, 11), doppler_on=False))
    csv_path = tmp_path / "spec.csv"
    json_path = tmp_path / "spec.json"
    write_spectrum(sp, csv_path, json_path)

    text = csv_path.read_text()
    header_end = text.index("delta1_MHz,rho22_au,rho33_au")
    assert "# engine = analytic" in text[:header_end]
    assert "# quadrature.scheme" not in text[:header_end]  # Doppler-free
    assert "# system.omega21_cm = 15642.636" in text[:header_end]
    rows = [r for r in text[header_end:].splitlines()[1:] if r]
    assert len(rows) == 11
    parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.allclose(parsed[:, 0], sp.delta1_mhz, rtol=1e-11)
    assert np.allclose(parsed[:, 1], sp.signal_rho22, rtol=1e-11)

    blob = json.loads(json_path.read_text())
    assert blob["metadata"]["engine"] == "analytic"
    assert np.allclose(blob["rho22_au"], sp.signal_rho22, rtol=1e-11)
    # 12-significant-digit fixed formatting, stable across writes
    assert spectrum_csv_text(sp) == spectrum_csv_text(sp)


def test_ensemble_is_given_exactly_when_doppler_is_on(li2, li2_lasers,
                                                     li2_ensemble,
                                                     li2_channels):
    grid = np.linspace(-100, 100, 11)
    with pytest.raises(ValueError, match="exactly for a doppler_on scan"):
        simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                 scan(grid, doppler_on=False))
    with pytest.raises(ValueError, match="exactly for a doppler_on scan"):
        simulate(li2, li2_lasers, None, li2_channels, scan(grid))


def test_requested_channel_subset(li2, li2_lasers, li2_channels):
    sp = simulate(li2, li2_lasers, None, li2_channels,
                  scan(np.linspace(-100, 100, 11), doppler_on=False,
                       channels=("rho33",)))
    assert np.all(sp.signal_rho22 == 0.0)
    assert sp.signal_rho33.max() > 0.0


def test_metadata_echoes_parameters(li2, li2_lasers, li2_ensemble,
                                    li2_channels, fast_quadrature):
    sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                  scan(np.linspace(-50, 50, 5)), quadrature=fast_quadrature)
    md = sp.metadata
    assert md["system.gamma2_Mrad_s"] == li2.gamma2
    assert md["lasers.power_coupling_W"] == 0.48
    assert md["channels.probe_coupled"] == 29
    assert md["quadrature.node_count"] == fast_quadrature.node_count
    assert md["quadrature.verified"] is True
    assert md["quadrature.scheme"] == "faddeeva"
    assert md["quadrature.max_refinement_shift"] <= 1e-4


@pytest.mark.parametrize("engine, doppler_on", [
    ("analytic", True), ("analytic", False), ("oracle", True),
    ("oracle", False)])
def test_ground_population_scales_every_engine(li2, li2_channels,
                                                li2_ensemble, engine,
                                                doppler_on):
    """refill = 2 x transit gives rho11_init = 2, which doubles rho22 and
    rho33 of every channel within 1e-12 relative: in the closed form and
    its trapezoid check (analytic, Doppler on), on the trapezoid (oracle),
    and on the single rest-frame node (Doppler off)."""
    import dataclasses

    doubled = dataclasses.replace(li2, refill_rate=2.0 * li2.transit_rate)
    assert li2.rho11_init == 1.0 and doubled.rho11_init == 2.0
    sc = scan(np.linspace(-1500.0, 1500.0, 5), delta2_mhz=300.0,
              doppler_on=doppler_on, engine=engine)
    channels = list(li2_channels)
    quad = QuadratureSpec(node_count=201)
    (values, check), (values2, check2) = (
        spectrum._per_channel_spectra(
            s, li2_ensemble if doppler_on else None, channels, sc, quad, 1)
        for s in (li2, doubled))
    pairs = [(values, values2)]
    if doppler_on:  # the trapezoid and its doubled rule at checked points
        pairs += zip(check[1:], check2[1:])
    for one, two in pairs:
        assert np.max(one[1]) > 0.0  # rho33 is on
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12, atol=0.0)


def test_library_system_refills_at_its_transit_rate():
    """A CascadeSystem built without a refill rate refills at its transit
    rate, the config's default, so it gives the preset's spectrum bit for
    bit rather than an empty ground state."""
    import dataclasses

    from eitmol.system import CascadeSystem

    cfg = preset_config("li2_fig4")
    library = CascadeSystem(**{f.name: getattr(cfg.system, f.name)
                               for f in dataclasses.fields(CascadeSystem)
                               if f.name != "refill_rate"})
    assert library == cfg.system and library.rho11_init == 1.0
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    sc = scan(np.linspace(-1500.0, 1500.0, 21))
    built, ours = (simulate(s, cfg.lasers, cfg.ensemble, cs, sc,
                            quadrature=cfg.quadrature)
                   for s in (cfg.system, library))
    assert np.max(ours.signal_rho33) > 0.0
    assert np.array_equal(ours.signal_rho22, built.signal_rho22)
    assert np.array_equal(ours.signal_rho33, built.signal_rho33)
