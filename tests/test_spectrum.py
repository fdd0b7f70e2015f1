"""Scan engine behavior, engine cross-checks, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitmol import analytic, spectrum
from eitmol.analytic import channel_populations
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
    simulate_many,
    spectrum_csv_text,
    spectrum_json_dict,
    write_spectrum,
)
from eitmol.sublevels import build_channels
from eitmol.doppler import (
    MIN_U_P,
    Ensemble,
    QuadratureSpec,
    graded_rule,
    node_plan,
    velocity_detunings,
    weighted_sum,
)
from eitmol.units import angular_from_mhz


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
    with pytest.raises(ValueError, match="distinct names out of rho22, rho33"):
        scan([0.0, 1.0], channels=("rho22", "rho22"))


def test_coupling_off_gives_doppler_profile_and_dark_upper_level(
        li2, li2_lasers, li2_ensemble, fast_quadrature):
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe, 0.0)
    sp = simulate(li2, li2_lasers, li2_ensemble, cs,
                  scan(np.linspace(-3000, 3000, 241)),
                  quadrature=fast_quadrature)
    assert np.all(sp.signals["rho33"] == 0.0)
    # single smooth Doppler-dominated profile, peaked at line center
    with pytest.raises(FewerThanTwoPeaks):
        extract_features(sp, "rho22")
    pos, fwhm = profile_fwhm(sp.delta1_mhz, sp.signals["rho22"])
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
    pos, fwhm = profile_fwhm(sp.delta1_mhz, sp.signals["rho33"])
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
    assert ch.g2 > 10.0 * li2.G32  # strong-coupling regime
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
        total22 += c.signals["rho22"]
        total33 += c.signals["rho33"]
    assert np.allclose(total22, sp.signals["rho22"], rtol=1e-12, atol=0)
    assert np.allclose(total33, sp.signals["rho33"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
@pytest.mark.parametrize("doppler_on", [True, False])
def test_batched_sets_equal_separate_simulations(li2, li2_lasers,
                                                 li2_ensemble, li2_channels,
                                                 engine, doppler_on):
    """Each channel set of one ``simulate_many`` call gets the spectrum that
    ``simulate`` gives it alone, bit for bit, signals and metadata; a set
    repeated and a set with the coupling off included."""
    grid = np.linspace(-800, 800, 21)
    sets = [li2_channels.with_coupling(li2_channels.g2_bare * f)
            for f in (1.0, 1.001, 0.0, 1.0)]
    ensemble = li2_ensemble if doppler_on else None
    # a Doppler-free scan has nothing to verify, so it batches verified
    sc = scan(grid, engine=engine, doppler_on=doppler_on,
              verify_quadrature=not doppler_on)
    q = QuadratureSpec(node_count=201)
    batch = simulate_many(li2, li2_lasers, ensemble, sets, sc, quadrature=q)
    assert len(batch) == len(sets)
    for channelset, spec in zip(sets, batch):
        alone = simulate(li2, li2_lasers, ensemble, channelset, sc,
                         quadrature=q)
        assert np.array_equal(spec.delta1_mhz, alone.delta1_mhz)
        assert spec.signals.keys() == alone.signals.keys()
        for name, signal in alone.signals.items():
            assert np.array_equal(spec.signals[name], signal), name
        assert spec.metadata == alone.metadata


def test_verified_doppler_average_takes_one_set(li2, li2_lasers,
                                                li2_ensemble, li2_channels):
    """The spot-check picks its points on each summed signal, so a verified
    Doppler-averaged batch of two sets is refused; one set is ``simulate``."""
    sc = scan(np.linspace(-800, 800, 21))
    q = QuadratureSpec(node_count=201, refinement_tolerance=1.0)
    with pytest.raises(ValueError, match="one channel set"):
        simulate_many(li2, li2_lasers, li2_ensemble,
                      [li2_channels, li2_channels], sc, quadrature=q)
    one, = simulate_many(li2, li2_lasers, li2_ensemble, [li2_channels], sc,
                         quadrature=q)
    alone = simulate(li2, li2_lasers, li2_ensemble, li2_channels, sc,
                     quadrature=q)
    assert one.metadata["quadrature.verified"] is True
    assert one.metadata == alone.metadata
    assert np.array_equal(one.signals["rho33"], alone.signals["rho33"])


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
    assert np.array_equal(off.signals["rho22"], alone.signals["rho22"])
    assert np.array_equal(off.signals["rho33"], alone.signals["rho33"])
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
    nonzero33 = [c for c in comps if c.signals["rho33"].max() > 0]
    assert len(nonzero33) == 14


def counting_rho33(monkeypatch):
    """Route the per-channel rho33 step of the population kernels (the
    trapezoid's group prefactors and the closed form) through a
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
        assert np.all(sp.signals["rho33"] == 0.0)
    assert spectra[0].signals["rho22"].max() > 0


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
    assert sp.signals["rho33"].max() > 0


@pytest.mark.parametrize("doppler_on", [True, False])
def test_nonfinite_signal_raises(monkeypatch, li2, li2_lasers, li2_ensemble,
                                 li2_channels, doppler_on):
    """A NaN from the kernel at a single node must stop the scan, not be
    dropped by the refinement check or the negativity floor.  The factors
    are poisoned in both modules: the spot-check calls them from
    ``spectrum``, the Doppler-free table from ``analytic``."""
    real = analytic.group_factors

    def poisoned(*args, **kw):
        for f22, f33 in real(*args, **kw):
            f22.flat[f22.size // 2 + 1] = np.nan
            yield f22, f33

    for module in (analytic, spectrum):
        monkeypatch.setattr(module, "group_factors", poisoned)
    q = QuadratureSpec(node_count=501, refinement_tolerance=1.0)
    with pytest.raises(UnphysicalSignal):
        simulate(li2, li2_lasers, li2_ensemble if doppler_on else None,
                 li2_channels,
                 scan(np.linspace(-800, 800, 41), doppler_on=doppler_on),
                 quadrature=q)


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
@pytest.mark.parametrize("signals", [("rho22", "rho33"), ("rho33",)])
def test_doppler_free_scan_is_the_kernel_table_summed(
        li2, li2_lasers, li2_channels, engine, signals):
    """Without Doppler each reported signal is the multiplicity-weighted
    channel sum of the engine's kernel table on the delta1 grid, bit for
    bit, and a signal not requested reads 0.  The |M| = 0 channel of the
    Q-branch coupling has g2 = 0 and adds nothing to rho33."""
    from eitmol.bloch import populations_grid

    grid = np.linspace(-800.0, 800.0, 41)
    sp = simulate(li2, li2_lasers, None, li2_channels,
                  scan(grid, delta2_mhz=420.0, doppler_on=False,
                       engine=engine, channels=signals))
    channels = list(li2_channels.channels)
    g1 = np.array([ch.g1 for ch in channels])
    g2 = np.array([ch.g2 for ch in channels])
    assert 0.0 in g2
    d1, d2 = angular_from_mhz(grid), angular_from_mhz(420.0)
    if engine == "analytic":
        table = channel_populations(li2, g1, g2, d1, d2)
    else:
        table = populations_grid(li2, g1[:, None], g2[:, None], d1, d2)
    total = np.zeros((2, grid.size))
    for ch, rows in zip(channels, table.swapaxes(0, 1)):
        total += ch.multiplicity * rows
    for name, row in zip(spectrum.SIGNALS, total):
        if name in signals:
            assert np.all(row > 0.0)
            assert np.array_equal(sp.signals[name], row)
        else:
            assert np.all(sp.signals[name] == 0.0)


def test_spot_check_catches_a_wrong_closed_form(monkeypatch, li2,
                                                li2_lasers, li2_ensemble,
                                                li2_channels, fast_quadrature):
    """The verified closed form is compared with the doubled trapezoid; an
    error of 1e-3 in its rho33 is reported with the signal and delta1."""
    real = spectrum.doppler_averaged_populations

    def off_by_1e3(*args, **kw):
        out = real(*args, **kw)
        out[1] *= 1.0 + 1e-3
        return out

    monkeypatch.setattr(spectrum, "doppler_averaged_populations", off_by_1e3)
    grid = np.linspace(-800, 800, 41)
    with pytest.raises(QuadratureNotConverged,
                       match=r"rho33 at delta1 = -?\d+(\.\d+)? MHz"):
        simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                 quadrature=fast_quadrature)
    sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                  scan(grid, verify_quadrature=False))
    assert sp.metadata["quadrature.verified"] is False


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("delta2_mhz", [0.0, 420.0])
def test_spot_check_does_not_trust_its_poles(monkeypatch, li2, li2_lasers,
                                             li2_ensemble, li2_channels,
                                             side, delta2_mhz):
    """The poles only place the graded rule's nodes; its values come from
    the kernel.  With every pole moved along the real axis by 10 of its
    widths |Im z|, the check either raises or still agrees with the
    closed form, and a closed form off by 1e-3 in rho33 still raises."""
    real_poles = spectrum._poles

    def shifted(*args):
        poles, *rest = real_poles(*args)
        return (tuple(z + side * 10.0 * np.abs(z.imag) for z in poles),
                *rest)

    monkeypatch.setattr(spectrum, "_poles", shifted)
    sc = scan(np.linspace(-800, 800, 41), delta2_mhz=delta2_mhz)
    args = li2, li2_lasers, li2_ensemble, li2_channels, sc
    try:
        sp = simulate(*args)
    except QuadratureNotConverged:
        pass
    else:
        assert sp.metadata["quadrature.max_refinement_shift"] <= 1e-4
    real = spectrum.doppler_averaged_populations

    def off_by_1e3(*args, **kw):
        out = real(*args, **kw)
        out[1] *= 1.0 + 1e-3
        return out

    monkeypatch.setattr(spectrum, "doppler_averaged_populations", off_by_1e3)
    with pytest.raises(QuadratureNotConverged):
        simulate(*args)


def test_spot_check_blames_a_short_span(li2, li2_lasers, li2_ensemble,
                                        li2_channels):
    """A trapezoid truncated at +-0.5 u_p agrees with its doubled rule but
    not with the untruncated closed form; the error says so."""
    with pytest.raises(QuadratureNotConverged, match="widen span above 0.5"):
        simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                 scan(np.linspace(-800, 800, 41)),
                 quadrature=QuadratureSpec(node_count=2001, span=0.5))


def test_spot_check_points(spy, li2, li2_lasers, li2_ensemble,
                           li2_channels):
    """The spot-check points are every 50th point, the last one and the
    extremes of each summed signal, and nothing else; the summed signals
    are the reported ones before clipping, and the closed form is checked
    on the graded rule at exactly those points."""
    grid = np.linspace(-3000, 3000, 161)
    picked = spy(spectrum, "_spot_check_points")
    checked = spy(spectrum, "_graded_check")
    spec = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid))
    [((total, _), idx)] = picked
    for name, row in zip(spectrum.SIGNALS, total):
        assert np.array_equal(np.clip(row, 0.0, None), spec.signals[name])
    expected = {0, 50, 100, 150, 160}
    for row in total:
        expected |= {int(np.argmax(row)), int(np.argmin(row))}
    assert list(idx) == sorted(expected)
    [(args, _)] = checked
    assert np.array_equal(args[4], grid[idx])


def test_each_piece_is_summed_once(spy, li2, li2_lasers, li2_ensemble):
    """A verified scan sums each piece's channels once for its total and
    once per rule of its check: 3 sums for a closed-form spectrum, 3 per
    |M| component, 2 for an oracle scan, whose N-node rule is its total.
    The components are checked at the points of their summed totals, the
    very points ``simulate`` checks."""
    cfg = preset_config("li2_fig3a")
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    args = cfg.system, cfg.lasers, cfg.ensemble, cs, cfg.scan, cfg.quadrature
    sums = spy(spectrum, "_channel_sum")
    picked = spy(spectrum, "_spot_check_points")
    simulate(*args)
    assert len(sums) == 3
    sums.clear()
    assert len(per_m_components(*args)) == len(cs) == 15
    assert len(sums) == 45
    [((whole, _), at), ((parts, _), at_parts)] = picked
    assert np.array_equal(whole, parts) and np.array_equal(at, at_parts)
    sums.clear()
    o = simulate(li2, li2_lasers, li2_ensemble,
                 weak_probe_channels(li2, li2_lasers),
                 scan(np.linspace(-200.0, 200.0, 5), engine="oracle"),
                 quadrature=QuadratureSpec(node_count=2001))
    assert o.metadata["quadrature.verified"] is True
    assert len(sums) == 2


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
        ya, yo = a.signals[channel], o.signals[channel]
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
    assert np.max(np.abs(a.signals["rho22"] - o.signals["rho22"])
                  / np.abs(o.signals["rho22"])) <= 1e-3


def test_threads_do_not_change_bytes(li2, li2_lasers, li2_ensemble,
                                     li2_channels, fast_quadrature):
    grid = np.linspace(-500, 500, 101)
    kw = dict(quadrature=fast_quadrature)
    s1 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                  threads=1, **kw)
    s8 = simulate(li2, li2_lasers, li2_ensemble, li2_channels, scan(grid),
                  threads=8, **kw)
    assert spectrum_csv_text(s1) == spectrum_csv_text(s8)
    assert np.array_equal(s1.signals["rho22"], s8.signals["rho22"])
    assert np.array_equal(s1.signals["rho33"], s8.signals["rho33"])


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
    assert np.array_equal(s1.signals["rho22"], s3.signals["rho22"])
    assert np.array_equal(s1.signals["rho33"], s3.signals["rho33"])


def blocks_of(n, plan):
    step = max(1, spectrum._BLOCK // plan.nodes.size)
    return len(range(0, n, step))


def test_threads_do_not_change_blocked_trapezoid(li2, li2_ensemble,
                                                  li2_channels):
    """12 points on the 4001 nodes of a verified 2001-node plan span several
    blocks of the oracle's trapezoid; one thread and three reduce them to
    the same bits."""
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=2001))
    sc = scan(np.linspace(-1500, 1500, 12), delta2_mhz=420.0,
              engine="oracle")
    assert blocks_of(12, plan) >= 3
    args = (li2, li2_ensemble, list(li2_channels.channels)[::5], sc,
            sc.delta1_mhz, plan)
    one = spectrum._trapezoid(*args, threads=1)
    three = spectrum._trapezoid(*args, threads=3)
    for a, b in zip(one, three):
        assert np.any(a != 0.0)
        assert np.array_equal(a, b)


def test_threads_do_not_change_blocked_graded_check(li2, li2_ensemble,
                                                    li2_channels):
    """40 points of 15 distinct couplings (g2 = 0 included) are 600 rows,
    38 blocks of the graded spot-check; one thread and three reduce them
    to the same bits."""
    sc = scan(np.linspace(-1500, 1500, 40), delta2_mhz=420.0)
    channels = list(li2_channels.channels)
    assert len({ch.g2 for ch in channels}) == 15
    args = (li2, li2_ensemble, channels, sc, sc.delta1_mhz, QuadratureSpec())
    one = spectrum._graded_check(*args, threads=1)
    three = spectrum._graded_check(*args, threads=3)
    for a, b in zip(one, three):
        assert np.any(a != 0.0)
        assert np.array_equal(a, b)


def test_trapezoid_bits_do_not_depend_on_the_block_size(
        monkeypatch, li2, li2_ensemble, li2_channels):
    """One point per block reproduces the default blocks bit for bit."""
    plan = node_plan(li2_ensemble, QuadratureSpec(node_count=201))
    sc = scan(np.linspace(-800, 800, 9), delta2_mhz=420.0, engine="oracle")
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


def grouping_case(case, li2, li2_lasers, li2_ensemble, li2_channels, grid,
                  **kw):
    """(system, ensemble, channels, scan) of one grouping case: one g2
    (coupling off), 15 distinct g2 (li2_fig6b), and g2 = 0 next to
    g2 != 0 with only rho33 requested."""
    sys, ens = li2, li2_ensemble
    if case == "coupling off":
        channels = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe, 0.0)
        sc = scan(grid, **kw)
        assert len({ch.g2 for ch in channels}) == 1
    elif case == "15 couplings":
        cfg = preset_config("li2_fig6b")
        sys, ens = cfg.system, cfg.ensemble
        channels = build_channels(sys, cfg.mu_probe_au, cfg.mu_coupling_au,
                                  cfg.lasers.field_probe,
                                  cfg.lasers.field_coupling)
        sc = scan(grid, delta2_mhz=cfg.scan.delta2_mhz, **kw)
        assert len({ch.g2 for ch in channels}) == len(channels) == 15
    else:
        channels = li2_channels
        sc = scan(grid, delta2_mhz=420.0, channels=("rho33",), **kw)
        assert 0.0 in {ch.g2 for ch in channels}
    return sys, ens, list(channels.channels), sc


def per_channel_trapezoid(sys, ensemble, channels, sc, plan):
    """The oracle trapezoid's (coarse, fine) the long way: the 9x9 solve's
    table on the whole grid, each row reduced alone."""
    from eitmol.bloch import populations_grid

    d1 = angular_from_mhz(sc.delta1_mhz)[:, None]
    d2 = angular_from_mhz(sc.delta2_mhz)
    big_d1, big_d2 = velocity_detunings(
        d1, d2, sys.omega21_angular + d1, sys.omega32_angular + d2,
        plan.nodes[None, :], ensemble.geometry)
    table = populations_grid(
        sys, np.array([ch.g1 for ch in channels])[:, None, None],
        np.array([ch.g2 for ch in channels])[:, None, None], big_d1, big_d2)
    table[np.logical_not(sc.requested)] = 0.0
    return [weighted_sum(table[..., sl], w)
            for sl, w in (plan.coarse, plan.fine)]


@pytest.mark.parametrize("case", ["coupling off", "15 couplings",
                                  "rho33 only"])
def test_trapezoid_matches_per_channel_reduction(
        case, li2, li2_lasers, li2_ensemble, li2_channels):
    """Each channel's oracle average on both rules is within 1e-13 of its
    row's peak of the reduction of the whole table, and a signal not
    requested stays exactly zero."""
    sys, ens, channels, sc = grouping_case(
        case, li2, li2_lasers, li2_ensemble, li2_channels,
        np.linspace(-1500.0, 1500.0, 7), engine="oracle")
    plan = node_plan(ens, QuadratureSpec(node_count=1001))
    got = spectrum._trapezoid(sys, ens, channels, sc, sc.delta1_mhz, plan, 1)
    want = per_channel_trapezoid(sys, ens, channels, sc, plan)
    for g, w in zip(got, want):
        peak = np.max(np.abs(w), axis=-1, keepdims=True)
        assert np.all(np.abs(g - w) <= 1e-13 * peak)
        assert np.all(g[np.logical_not(sc.requested)] == 0.0)
        assert np.any(g[np.array(sc.requested)] != 0.0)


def per_row_graded_check(sys, ensemble, channels, sc, span):
    """The graded check's (coarse, fine) the long way: for each channel and
    point, ``graded_rule`` of that row's poles alone, the complex-free
    ``channel_populations`` on its nodes, reduced with its weights."""
    d1 = angular_from_mhz(sc.delta1_mhz)
    d2 = angular_from_mhz(sc.delta2_mhz)
    b1, b2 = velocity_detunings(0.0, 0.0, sys.omega21_angular + d1,
                                sys.omega32_angular + d2, ensemble.u_p,
                                ensemble.geometry)
    out = np.zeros((2, 2, len(channels), d1.size))
    for i, ch in enumerate(channels):
        for k in range(d1.size):
            poles = np.stack(np.broadcast_arrays(*analytic._poles(
                sys, ch.g2, d1[k], d2, b1[k], b2)[0]))
            t, *rules = graded_rule(poles[None, :], span)
            table = channel_populations(sys, [ch.g1], [ch.g2],
                                        d1[k] + b1[k] * t, d2 + b2 * t,
                                        *sc.requested)[:, 0, 0]
            for r, w in enumerate(rules):
                out[r, :, i, k] = table @ w[0]
    return out


@pytest.mark.parametrize("case", ["coupling off", "15 couplings",
                                  "rho33 only"])
def test_graded_check_matches_per_row_reduction(
        case, li2, li2_lasers, li2_ensemble, li2_channels):
    """Reduced once per g2 and point in padded blocks, with 1/D folded into
    the weights, each channel's average on both rules is within 1e-13 of
    its row's peak of the same rule built and reduced for that row alone;
    a row not evaluated stays exactly zero, and the bits are those of three
    threads."""
    sys, ens, channels, sc = grouping_case(
        case, li2, li2_lasers, li2_ensemble, li2_channels,
        np.linspace(-1500.0, 1500.0, 7))
    args = sys, ens, channels, sc, sc.delta1_mhz, QuadratureSpec()
    got = spectrum._graded_check(*args, 1)
    for a, b in zip(got, spectrum._graded_check(*args, 3)):
        assert np.array_equal(a, b)
    want = per_row_graded_check(sys, ens, channels, sc, 4.0)
    for g, w in zip(got, want):
        peak = np.max(np.abs(w), axis=-1, keepdims=True)
        assert np.all(np.abs(g - w) <= 1e-13 * peak)
    lit = [ch.g2 != 0.0 for ch in channels]
    assert np.all(np.any(want[1][1] != 0.0, axis=-1) == lit)
    assert np.all((got[1][0] != 0.0) == (case != "rho33 only"))
    assert np.all((got[1][1] != 0.0) == np.array(lit)[:, None])


@pytest.mark.parametrize("threads", [1, 3])
def test_graded_check_keeps_the_bits_of_each_channel_alone(
        li2, li2_lasers, li2_ensemble, threads):
    """The 15 coupling-off channels share one g2 row per point; scaling it
    for each channel after the last block gives, on both rules, the bits
    of the graded check of each channel alone."""
    channels = list(build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                                   0.0).channels)
    assert len(channels) == 15 and len({ch.g2 for ch in channels}) == 1
    sc = scan(np.linspace(-1500.0, 1500.0, 40))
    args = (li2, li2_ensemble)
    group = spectrum._graded_check(*args, channels, sc, sc.delta1_mhz,
                                   QuadratureSpec(), threads)
    for i, ch in enumerate(channels):
        alone = spectrum._graded_check(*args, [ch], sc, sc.delta1_mhz,
                                       QuadratureSpec(), threads)
        for g, a in zip(group, alone):
            assert np.any(a != 0.0)
            assert np.array_equal(g[:, i], a[:, 0])


def assert_writes_the_reference_bytes(spec, base):
    """``write_spectrum`` writes ``spectrum_csv_text`` and the bytes of the
    json module's indented, key-sorted dump of ``spectrum_json_dict``."""
    write_spectrum(spec, base.with_suffix(".csv"), base.with_suffix(".json"))
    assert (base.with_suffix(".csv").read_text("ascii")
            == spectrum_csv_text(spec))
    assert (base.with_suffix(".json").read_text("ascii")
            == json.dumps(spectrum_json_dict(spec), indent=1,
                          sort_keys=True) + "\n")


@pytest.mark.parametrize("kind", ["verified", "unverified", "doppler free"])
def test_write_spectrum_matches_the_json_encoder(tmp_path, kind, li2,
                                                  li2_lasers, li2_ensemble,
                                                  li2_channels):
    grid = np.linspace(-800.0, 800.0, 21)
    if kind == "doppler free":
        sp = simulate(li2, li2_lasers, None, li2_channels,
                      scan(grid, doppler_on=False))
        assert "quadrature.max_refinement_shift" not in sp.metadata
    else:
        sp = simulate(li2, li2_lasers, li2_ensemble, li2_channels,
                      scan(grid, verify_quadrature=kind == "verified"),
                      quadrature=QuadratureSpec(node_count=501,
                                                refinement_tolerance=1.0))
        shift = sp.metadata["quadrature.max_refinement_shift"]
        assert (shift is None) == (kind == "unverified")
    assert_writes_the_reference_bytes(sp, tmp_path / "spec")


# the notation and digit edges of a .12g text against repr: 1e12 <= |x| <
# 1e16 (fixed in repr only), 1e-4 (the fixed-notation edge of both), the
# smallest normal, and subnormals, whose repr can be shorter than the text
# (-3.14159264341e-316 reprs as -3.14159264e-316)
_EDGES = st.sampled_from([-0.0, 0.0, 100.0, 1e16, 1e-300, 5e-324, -2.5e-7,
                          1e12, -123456789012.5, 9.99999999999e15, 1e-4,
                          9.99999999999e-5, 2.2250738585072014e-308, 1e-310,
                          -3.14159265358979e-316])
_VALUES = st.one_of(_EDGES, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1,
                     max_size=12),
       shift=st.one_of(st.none(), _VALUES))
def test_written_values_match_the_json_encoder(tmp_path_factory, rows,
                                               shift):
    """Signed zeros, integral values, exponents and subnormals are written
    as the json module writes them, and each CSV field as ``_NUMBER``."""
    x, r22, r33 = (np.array(c) for c in zip(*rows))
    sp = spectrum.Spectrum(
        x, {"rho22": r22, "rho33": r33},
        {"engine": "analytic", "scan.points": len(rows),
         "quadrature.max_refinement_shift": shift,
         "quadrature.verified": shift is not None, "system.b2": 0.1})
    assert_writes_the_reference_bytes(sp, tmp_path_factory.mktemp("w") / "s")
    data = spectrum_csv_text(sp).splitlines()[-len(rows):]
    assert data == [",".join(f"{v:.12g}" for v in r) for r in rows]


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
    assert np.allclose(parsed[:, 1], sp.signals["rho22"], rtol=1e-11)

    blob = json.loads(json_path.read_text())
    assert blob["metadata"]["engine"] == "analytic"
    assert np.allclose(blob["rho22_au"], sp.signals["rho22"], rtol=1e-11)
    # 12-significant-digit fixed formatting, stable across writes
    assert spectrum_csv_text(sp) == spectrum_csv_text(sp)


def test_numpy_scalar_inputs_write_the_same_bytes(tmp_path, li2, li2_lasers,
                                                  li2_ensemble, li2_channels):
    """A scan built from numpy scalars echoes them as the Python scalars
    they equal: the CSV and the JSON are byte-identical."""
    grid = np.linspace(-800.0, 800.0, 21)
    written = []
    for f, i, b in ((float, int, bool),
                    (np.float64, np.int64, np.bool_)):
        ensemble = Ensemble(temperature_k=f(1000.0), mass_amu=f(14.0))
        sc = ScanConfig(grid, delta2_mhz=f(0.0), doppler_on=b(True),
                        m_sum_on=b(True), verify_quadrature=b(False))
        quad = QuadratureSpec(node_count=i(201), span=f(4.0),
                              refinement_tolerance=f(1e-3))
        sp = simulate(li2, li2_lasers, ensemble, li2_channels, sc,
                      quadrature=quad)
        assert isinstance(sp.metadata["quadrature.node_count"], i)
        base = tmp_path / f.__name__
        write_spectrum(sp, base.with_suffix(".csv"), base.with_suffix(".json"))
        written.append([base.with_suffix(s).read_bytes()
                        for s in (".csv", ".json")])
    assert written[0] == written[1]


def test_every_preset_averages_at_the_slowest_thermal_speed():
    """At u_p = MIN_U_P every preset's closed form is finite and agrees with
    the trapezoid: the floor is far from where the closed form fails."""
    for name in ("li2_fig3a", "li2_fig3b", "li2_fig4", "li2_fig6a",
                 "li2_fig6b"):
        cfg = preset_config(name)
        cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                            cfg.lasers.field_probe, cfg.lasers.field_coupling)
        ens = Ensemble(0.0, 0.0, cfg.ensemble.geometry, u_p_override=MIN_U_P)
        sp = simulate(cfg.system, cfg.lasers, ens, cs,
                      scan(np.linspace(-3000.0, 3000.0, 61)),
                      quadrature=QuadratureSpec(node_count=201))
        assert sp.metadata["quadrature.verified"] is True, name
        assert all(np.all(np.isfinite(sp.signals[s])) for s in sp.signals)


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
    assert np.all(sp.signals["rho22"] == 0.0)
    assert sp.signals["rho33"].max() > 0.0
    assert sp.signal_rho33 is sp.signals["rho33"]  # the read-only alias


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
@pytest.mark.parametrize("doppler_on", [True, False])
@pytest.mark.parametrize("run", ["simulate", "simulate, m_sum off",
                                 "per_m_components"])
def test_every_spectrum_holds_and_writes_the_signal_table(
        li2, li2_lasers, li2_ensemble, li2_channels, engine, doppler_on, run):
    """Each spectrum maps exactly the names of ``SIGNALS`` (an unrequested
    one included), and the CSV header and the JSON keys are delta1_MHz and
    then <name>_au for each of them."""
    sc = scan(np.linspace(-100.0, 100.0, 3), channels=("rho33",),
              doppler_on=doppler_on, m_sum_on=run != "simulate, m_sum off",
              engine=engine, verify_quadrature=False)
    args = (li2, li2_lasers, li2_ensemble if doppler_on else None,
            li2_channels, sc, QuadratureSpec(node_count=201))
    spectra = per_m_components(*args) if run == "per_m_components" \
        else [simulate(*args)]
    columns = ["delta1_MHz"] + [f"{s}_au" for s in spectrum.SIGNALS]
    for sp in spectra:
        assert list(sp.signals) == list(spectrum.SIGNALS)
        header = [line for line in spectrum_csv_text(sp).splitlines()
                  if not line.startswith("#")][0]
        assert header.split(",") == columns
        assert set(spectrum_json_dict(sp)) == {"metadata", *columns}


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
def test_ground_population_scales_every_engine(spy, li2, li2_channels,
                                                li2_ensemble, engine,
                                                doppler_on):
    """refill = 2 x transit gives rho11_init = 2, which doubles rho22 and
    rho33 of every channel within 1e-12 relative: in the closed form and
    its trapezoid check (analytic, Doppler on), on the trapezoid and its
    doubled rule (oracle), and on the single rest-frame node (Doppler
    off).  The channel tables are the ones the scan sums."""
    import dataclasses

    doubled = dataclasses.replace(li2, refill_rate=2.0 * li2.transit_rate)
    assert li2.rho11_init == 1.0 and doubled.rho11_init == 2.0
    sc = scan(np.linspace(-1500.0, 1500.0, 5), delta2_mhz=300.0,
              doppler_on=doppler_on, engine=engine)
    # the doubling is the point here, not the convergence of 201 nodes
    quad = QuadratureSpec(node_count=201, refinement_tolerance=1.0)
    sums = spy(spectrum, "_channel_sum")
    for s in (li2, doubled):
        simulate(s, None, li2_ensemble if doppler_on else None,
                 li2_channels, sc, quad)
    # per scan: the values, then the N-node rule at the checked points
    # (not on the oracle's, which is the values) and the doubled rule
    per_scan = 1 if not doppler_on else 3 if engine == "analytic" else 2
    tables = [per for (per, _), _ in sums]
    assert len(tables) == 2 * per_scan
    for one, two in zip(tables[:per_scan], tables[per_scan:]):
        assert one.shape[1] == len(li2_channels)
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
    assert np.max(ours.signals["rho33"]) > 0.0
    assert np.array_equal(ours.signals["rho22"], built.signals["rho22"])
    assert np.array_equal(ours.signals["rho33"], built.signals["rho33"])
