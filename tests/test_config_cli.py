"""Config parsing, presets, data ingestion, and the command-line surface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eitmol.cli import main
from eitmol.config import (
    available_presets,
    load_config,
    load_spectrum,
    parse_config,
    preset_config,
)
from eitmol.errors import ParseError, UnitError, ValidationError

MINIMAL = """
[system]
omega21 = 15642.636 cm-1
omega32 = 17053.954 cm-1
tau2 = 18 ns
tau3 = 16.15 ns
b2 = 0.1
b3 = 0.2
J1 = 15
J2 = 14
J3 = 14
mu_probe = 1.0 au
mu_coupling = 1.45 au
transit_rate = 2 MHz

[lasers]
power_probe = 1 mW
power_coupling = 480 mW
waist_probe = 222 um
waist_coupling = 360 um

[scan]
delta1_min = -100 MHz
delta1_max = 100 MHz
delta1_points = 21
delta2 = 0 MHz
"""
THERMAL = "\n[ensemble]\ntemperature = 1000 K\nmass = 14 amu\n"


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.system.gamma2 == pytest.approx(1e3 / 18.0)
    assert cfg.system.transit_rate == pytest.approx(2 * 2 * math.pi)
    # refill defaults to the transit rate so the unpumped ground state is 1
    assert cfg.system.refill_rate == cfg.system.transit_rate
    assert cfg.ensemble is None
    assert cfg.scan.delta1_mhz.size == 21


def test_absent_keys_take_the_dataclass_defaults():
    """Without channels, m_sum, engine, geometry or refill_rate the config
    builds what the dataclasses build without them."""
    import dataclasses

    from eitmol.doppler import Ensemble
    from eitmol.spectrum import ScanConfig
    from eitmol.system import CascadeSystem

    cfg = parse_config(MINIMAL + THERMAL)
    assert cfg.system == CascadeSystem(
        **{f.name: getattr(cfg.system, f.name)
           for f in dataclasses.fields(CascadeSystem)
           if f.name != "refill_rate"})
    assert cfg.ensemble == Ensemble(temperature_k=1000.0, mass_amu=14.0)
    bare = ScanConfig(delta1_mhz=cfg.scan.delta1_mhz)
    for name in ("channels", "m_sum_on", "engine"):
        assert getattr(cfg.scan, name) == getattr(bare, name)


def test_preset_fig4_values():
    cfg = preset_config("li2_fig4")
    s = cfg.system
    assert s.omega21_cm == 15642.636
    assert s.omega32_cm == 17053.954
    assert s.gamma2 == pytest.approx(1e3 / 18.0, rel=1e-12)
    assert s.gamma3 == pytest.approx(1e3 / 16.15, rel=1e-12)
    assert (s.b2, s.b3) == (0.1, 0.2)
    assert s.gamma12_col == pytest.approx(2 * math.pi * 5.0, rel=1e-12)
    assert s.gamma13_col == pytest.approx(2 * math.pi * 1.0, rel=1e-12)
    assert s.gamma23_col == pytest.approx(2 * math.pi * 1.0, rel=1e-12)
    assert s.transit_rate == pytest.approx(2 * math.pi * 2.0, rel=1e-12)
    assert cfg.lasers.power_coupling_w == 0.48
    assert cfg.lasers.waist_coupling_m == pytest.approx(360e-6)
    assert cfg.lasers.waist_probe_m == pytest.approx(222e-6)
    assert cfg.mu_coupling_au == 1.45
    assert cfg.ensemble.temperature_k == 1000.0
    assert cfg.ensemble.mass_amu == 14.0


def test_all_presets_parse_and_run(tmp_path):
    assert available_presets() == ["li2_fig3a", "li2_fig3b", "li2_fig4",
                                   "li2_fig6a", "li2_fig6b"]
    from eitmol.doppler import QuadratureSpec
    from eitmol.spectrum import ScanConfig, simulate
    from eitmol.sublevels import build_channels

    for name in available_presets():
        cfg = preset_config(name)
        cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                            cfg.lasers.field_probe,
                            cfg.lasers.field_coupling)
        small = ScanConfig(delta1_mhz=np.linspace(-400, 400, 41),
                           delta2_mhz=cfg.scan.delta2_mhz,
                           channels=cfg.scan.channels,
                           doppler_on=cfg.scan.doppler_on,
                           m_sum_on=cfg.scan.m_sum_on,
                           engine=cfg.scan.engine)
        spec = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs, small,
                        quadrature=QuadratureSpec(node_count=1001,
                                                  refinement_tolerance=1.0))
        assert np.all(np.isfinite(spec.signals["rho22"]))


def test_missing_key_names_it():
    broken = MINIMAL.replace("tau2 = 18 ns\n", "")
    with pytest.raises(ValidationError, match="tau2"):
        parse_config(broken)


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown key 'mystery'"):
        parse_config(MINIMAL + THERMAL + "\n[quadrature]\nmystery = 12\n")


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="extras"):
        parse_config(MINIMAL + "\n[extras]\nx = 1\n")


def test_wrong_unit_dimension_rejected():
    broken = MINIMAL.replace("tau2 = 18 ns", "tau2 = 18 mW")
    with pytest.raises(UnitError, match="tau2"):
        parse_config(broken)


def test_missing_unit_suffix_rejected():
    broken = MINIMAL.replace("omega21 = 15642.636 cm-1", "omega21 = 15642.636")
    with pytest.raises(UnitError):
        parse_config(broken)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_config("[system]\nomega21 15642 cm-1\n")
    assert err.value.line == 2


def test_doppler_requires_ensemble():
    """The scan is Doppler-averaged exactly when [ensemble] is given; the
    removed [scan] doppler key exits 2 saying so."""
    assert parse_config(MINIMAL).scan.doppler_on is False
    assert parse_config(MINIMAL + THERMAL).scan.doppler_on is True
    broken = MINIMAL.replace("delta2 = 0 MHz", "delta2 = 0 MHz\ndoppler = on")
    with pytest.raises(ValidationError,
                       match=r"key 'doppler': was removed.*\[ensemble\]"):
        parse_config(broken + THERMAL)


def test_doppler_default_requires_ensemble():
    """An old Doppler-free config keeps doppler = off beside its [ensemble].
    Deleting only that line would run Doppler-averaged, so the key is
    rejected with the advice to drop [ensemble] and [quadrature]."""
    old = MINIMAL.replace("delta2 = 0 MHz", "delta2 = 0 MHz\ndoppler = off")
    with pytest.raises(ValidationError,
                       match=r"Doppler-free scan drops \[ensemble\] and"
                             r" \[quadrature\]"):
        parse_config(old + THERMAL)


def test_unit_prefixes():
    cfg = parse_config(MINIMAL.replace("delta2 = 0 MHz", "delta2 = 1.0 GHz"))
    assert cfg.scan.delta2_mhz == pytest.approx(1000.0)


def test_values_are_read_exactly_as_written():
    """A value in its key's own unit is not scaled through another unit."""
    assert preset_config("li2_fig6b").scan.delta2_mhz == 1000.0
    fit = parse_config(MINIMAL + "\n[fit]\nfree = mu_coupling\n"
                       "mu_coupling_init = 1.2 au\nmu_coupling_min = 0.8 au\n"
                       "mu_coupling_max = 2.5 au\n").fit
    assert fit.bounds["mu_coupling"] == (0.8, 2.5)


def test_prefixed_units_give_the_preset_spectrum(tmp_path, capsys):
    """li2_fig6b written with other prefixes writes the same data rows."""
    text = (resources.files("eitmol") / "presets" / "li2_fig6b.cfg") \
        .read_text("utf-8")
    for old, new in (("delta2 = 1000 MHz", "delta2 = 1 GHz"),
                     ("tau2 = 18 ns", "tau2 = 0.018 us"),
                     ("waist_probe = 222 um", "waist_probe = 0.222 mm"),
                     ("power_probe = 1 mW", "power_probe = 1000 uW")):
        assert old in text
        text = text.replace(old, new)
    rows = []
    for cfg in ("li2_fig6b", write_config(tmp_path, text)):
        out = tmp_path / str(len(rows))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "li2_fig6b.csv").read_text("ascii").splitlines()
        rows.append([r for r in csv if not r.startswith("#")])
    assert len(rows[0]) == 802
    assert rows[1] == rows[0]


@pytest.mark.parametrize("thermal", ["temperature = 1000 K", "mass = 14 amu",
                                     "temperature = 5 K\nmass = 7000 amu"])
def test_doppler_fwhm_beside_temperature_or_mass_rejected(thermal):
    """A width replaces T and m, so giving either beside it would go unused."""
    text = MINIMAL + f"\n[ensemble]\n{thermal}\ndoppler_fwhm = 2600 MHz\n"
    with pytest.raises(ValidationError,
                       match=r"\[ensemble\] temperature, mass, doppler_fwhm"):
        parse_config(text)


def test_load_spectrum_sorts_descending_input(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("# comment\n300, 0.1\n200, 0.4\n100, 0.2\n")
    m = load_spectrum(p)
    assert np.array_equal(m.delta1_mhz, [100.0, 200.0, 300.0])
    assert np.array_equal(m.signal, [0.2, 0.4, 0.1])
    assert m.metadata["resorted"] is True


def test_load_spectrum_wavenumber_abscissa(tmp_path):
    p = tmp_path / "trace.dat"
    sigma0 = 15642.636
    p.write_text(f"{sigma0 - 0.001} 1.0\n{sigma0} 2.0\n{sigma0 + 0.001} 1.5\n")
    m = load_spectrum(p, abscissa="wavenumber_cm-1", resonance_cm=sigma0)
    assert m.delta1_mhz == pytest.approx([-29.98, 0.0, 29.98], abs=0.01)


def test_load_spectrum_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1 2 3 4\n")
    with pytest.raises(ParseError):
        load_spectrum(p)
    p.write_text("1 2\n1 3\n")
    with pytest.raises(ValidationError):
        load_spectrum(p)
    p.write_text("1 nan\n2 3\n")
    with pytest.raises(ValidationError):
        load_spectrum(p)


# --- CLI ----------------------------------------------------------------------

def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def small_run_config(tmp_path, outdir, **overrides):
    text = MINIMAL + f"\n[output]\ndir = {outdir}\nbasename = run\n"
    for old, new in overrides.items():
        text = text.replace(old, new)
    return write_config(tmp_path, text)


def test_cli_dip_prints_the_law(tmp_path, capsys):
    cfg = small_run_config(tmp_path, tmp_path,
                           **{"delta2 = 0 MHz": "delta2 = 420 MHz"})
    # an ensemble section turns the Doppler average on
    with open(cfg, "a") as fh:
        fh.write(THERMAL)
    assert main(["dip", "--config", cfg]) == 0
    assert capsys.readouterr().out.strip() == "-385.2 MHz"


@pytest.mark.parametrize("geometry", ["counter_propagating",
                                      "co_propagating"])
def test_cli_dip_follows_the_beam_geometry(tmp_path, capsys, geometry):
    """The printed dip of li2_fig6a lies on the side of the simulated rho22
    dip, within 20 MHz of it, for either beam geometry."""
    from eitmol.features import extract_features
    from eitmol.spectrum import simulate
    from eitmol.sublevels import build_channels

    text = resources.files("eitmol").joinpath(
        "presets/li2_fig6a.cfg").read_text("utf-8")
    text = text.replace("geometry = counter_propagating",
                        f"geometry = {geometry}")
    cfg_path = write_config(tmp_path, text)
    assert main(["dip", "--config", cfg_path]) == 0
    printed = float(capsys.readouterr().out.split()[0])
    cfg = load_config(cfg_path)
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    spec = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs, cfg.scan,
                    quadrature=cfg.quadrature)
    dip = extract_features(spec, "rho22").dip_position
    assert np.sign(printed) == np.sign(dip) != 0
    assert abs(printed - dip) < 20.0


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = small_run_config(tmp_path, tmp_path)
    for command in (["simulate"], ["components"],
                    ["fit", "--data", str(tmp_path / "trace.csv")]):
        assert main(command + ["--config", cfg, "--threads", threads,
                               "--json-errors", "--out", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["exit_code"] == 2
        assert payload["message"].startswith("--threads")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("json_errors", [True, False])
def test_cli_rejects_an_empty_out(tmp_path, capsys, json_errors):
    """An empty --out names no directory: exit 2 naming --out, before any
    file is written, rather than the config's output directory."""
    default = tmp_path / "default"
    cfg = small_run_config(tmp_path, default)
    flags = ["--json-errors"] if json_errors else []
    for command in (["simulate"], ["components"],
                    ["fit", "--data", str(tmp_path / "trace.csv")]):
        assert main(command + ["--config", cfg, "--out", ""] + flags) == 2
        if json_errors:
            payload = one_json_error(capsys)
            assert payload["exit_code"] == 2
            assert payload["message"].startswith("--out")
        else:
            assert (capsys.readouterr().err
                    .startswith("eitmol: error: --out: "))
    assert not default.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_simulate_coupling_off_zeroes_upper_channel(tmp_path, capsys):
    cfg = small_run_config(tmp_path, tmp_path,
                           **{"power_coupling = 480 mW":
                              "power_coupling = 0 W"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "run.csv").read_text().splitlines()
    data = [r for r in rows if r and not r.startswith("#")][1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in data)


def test_cli_exit_code_for_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "[system]\nomega21 = 1 cm-1\n")
    assert main(["simulate", "--config", cfg]) == 2


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_json_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "[system]\nomega21 = 1 cm-1\n")
    code = main(["simulate", "--config", cfg, "--json-errors"])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["exit_code"] == 2


def test_cli_exit_code_for_unconverged_quadrature(tmp_path, capsys):
    cfg = small_run_config(tmp_path, tmp_path)
    with open(cfg, "a") as fh:
        fh.write(THERMAL + "\n[quadrature]\nnodes = 51\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"rho(22|33) at delta1 = -?\d+(\.\d+)? MHz", err), err


@pytest.mark.parametrize("ensemble, quadrature", [
    ("doppler_fwhm = 0 MHz", "nodes = 101"),
    ("doppler_fwhm = -2600 MHz", "nodes = 101"),
    ("temperature = 1000 K\nmass = 14 amu",
     "scheme = gauss_hermite\nnodes = 101"),
    ("temperature = 5 K\nmass = 7000 amu\ndoppler_fwhm = 2600 MHz",
     "nodes = 101"),
])
def test_cli_rejects_unusable_quadrature_input(tmp_path, capsys, ensemble,
                                               quadrature):
    cfg = small_run_config(tmp_path, tmp_path)
    with open(cfg, "a") as fh:
        fh.write(f"\n[ensemble]\n{ensemble}\n\n[quadrature]\n{quadrature}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("old, new, key", [
    ("temperature = 1000 K", "temperature = 0 K", "temperature"),
    ("nodes = 4001", "nodes = 50", "nodes"),
    ("b2 = 0.1", "b2 = 2", "b2"),
    ("delta1_points = 801", "delta1_points = 1", "delta1_points"),
    ("refinement_tolerance = 1e-4", "refinement_tolerance = nan",
     "refinement_tolerance"),
    ("refinement_tolerance = 1e-4", "refinement_tolerance = inf",
     "refinement_tolerance"),
    ("span = 4.0", "span = nan", "span"),
    ("temperature = 1000 K", "temperature = inf K", "temperature"),
    ("power_probe = 1 mW", "power_probe = -1 mW", "power_probe"),
    ("J1 = 15", "J1 = 2", "J1"),
    ("waist_probe = 222 um", "waist_probe = 0 um", "waist_probe"),
    ("nodes = 4001", "nodes = inf", "nodes"),
    ("mu_probe = 1.0 au", "mu_probe = inf au", "mu_probe"),
    ("delta2 = 0 MHz", "delta2 = inf MHz", "delta2"),
    ("gamma12_col = 5 MHz", "gamma12_col = inf MHz", "gamma12_col"),
    ("omega21 = 15642.636 cm-1", "omega21 = inf cm-1", "omega21"),
    ("tau2 = 18 ns", "tau2 = inf ns", "tau2"),
    ("delta1_max = 3000 MHz", "delta1_max = inf MHz", "delta1_max"),
    ("J1 = 15", "J1 = -1", "J1"),
    ("J1 = 15", "J1 = -7", "J1"),
    ("J1 = 15\nJ2 = 14\nJ3 = 14", "J1 = 0\nJ2 = 0\nJ3 = 0", "J1, J2"),
    # too large to allocate: fails at once, without touching memory
    ("delta1_points = 801", "delta1_points = 1e15", "delta1_points"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_constructor_rejection_exits_config(tmp_path, capsys, old, new,
                                                key):
    """A value that parses but that a constructor rejects exits 2 with a
    JSON error naming the key, and writes no CSV; no numpy warning reaches
    stderr ahead of the JSON."""
    text = (resources.files("eitmol") / "presets" / "li2_fig3a.cfg") \
        .read_text("utf-8")
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new))
    code = main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValidationError"
    assert key in payload["message"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("old, new, code, key", [
    ("waist_probe = 222 um", "waist_probe = 1e300 um", 2, "waist_probe"),
    ("waist_probe = 222 um", "waist_probe = 1e-300 um", 2, "waist_probe"),
    ("waist_coupling = 360 um", "waist_coupling = 1e300 um", 2,
     "waist_coupling"),
    ("waist_coupling = 360 um", "waist_coupling = 1e-300 um", 2,
     "waist_coupling"),
    ("mass = 14 amu", "mass = 1e-300 amu", 2, "mass"),
    ("tau2 = 18 ns", "tau2 = 1e-300 ns", 2, "tau2"),
    ("tau3 = 16.15 ns", "tau3 = 1e-300 ns", 2, "tau3"),
    ("transit_rate = 2 MHz", "transit_rate = 1e300 MHz", 2, "transit_rate"),
    ("gamma23_col = 1 MHz", "gamma23_col = 1e300 MHz", 2, "gamma23_col"),
    ("span = 4.0", "span = 1e100", 2, "key 'span'"),
    ("span = 4.0", "span = 1e306", 2, "key 'span'"),
    ("span = 4.0", "span = 1e4", 2, "key 'span'"),
    ("temperature = 1000 K", "temperature = 1e200 K", 2,
     "[ensemble] temperature, mass:"),
    ("temperature = 1000 K", "temperature = 1e30 K", 2,
     "[ensemble] temperature, mass:"),
    ("temperature = 1000 K\nmass = 14 amu", "doppler_fwhm = 1e300 MHz", 2,
     "key 'doppler_fwhm'"),
    ("temperature = 1000 K", "temperature = 1e-300 K", 2,
     "[ensemble] temperature, mass:"),
    ("mass = 14 amu", "mass = 1e300 amu", 2, "[ensemble] temperature, mass:"),
    ("temperature = 1000 K\nmass = 14 amu", "doppler_fwhm = 1e-300 MHz", 2,
     "key 'doppler_fwhm'"),
])
def test_cli_extreme_finite_input_keeps_exit_codes(tmp_path, capsys, old, new,
                                                   code, key):
    """Finite values whose arithmetic overflows or divides by zero exit 2
    naming the key: the config layer computes the beam fields and u_p, and
    bounds the rates (1/tau included) at 1e75 Mrad/s so that the engine's
    products of rates stay finite; never 1 with a traceback.  So do velocity
    widths outside the Doppler model: a span at which the Maxwellian weight
    exp(-span^2) underflows to 0, a thermal speed u_p at or above the speed
    of light (the detunings are first order in vz/c), and one below
    ``doppler.MIN_U_P``, where the closed form's poles would overflow."""
    text = (resources.files("eitmol") / "presets" / "li2_fig3a.cfg") \
        .read_text("utf-8")
    assert old in text
    text = text.replace(old, new).replace("delta1_points = 801",
                                          "delta1_points = 21")
    cfg = write_config(tmp_path, text.replace("nodes = 4001", "nodes = 201"))
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == code
    payload = json.loads(capsys.readouterr().err)
    assert payload["exit_code"] == code
    assert payload["error"] == "ValidationError"
    assert key in payload["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_cli_span_below_the_underflow_limit_is_accepted(tmp_path, capsys):
    """span = 27 still reaches the engine: li2_fig6b's 4001 nodes are too
    few that wide, and the check asks for more."""
    text = (resources.files("eitmol") / "presets" / "li2_fig6b.cfg") \
        .read_text("utf-8").replace("delta1_points = 801",
                                    "delta1_points = 11")
    cfg = write_config(tmp_path, text.replace("span = 4.0", "span = 27"))
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 3
    message = json.loads(capsys.readouterr().err)["message"]
    assert "increase node_count above 4001" in message, message


FUZZ_BASE = (resources.files("eitmol") / "presets" / "li2_fig6b.cfg") \
    .read_text("utf-8").replace("delta1_points = 801", "delta1_points = 21") \
    .replace("nodes = 4001", "nodes = 201")
# every "key = <number>[ <unit>]" line of the shrunk preset -> its unit
FUZZ_KEYS = {m[1]: m[3] for m in re.finditer(
    r"^(\w+) = ([-+.\deE]+)( [^\s#]+)?$", FUZZ_BASE, re.MULTILINE)}
# integer keys size arrays (and J the channel count): keep them <= 10^4
FUZZ_INTEGER_KEYS = {"J1", "J2", "J3", "delta1_points", "nodes"}
FUZZ_SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300")


@pytest.mark.parametrize("old, new", [
    ("tau2 = 18 ns", "tau2 = 1e-71 ns"),
    ("tau3 = 16.15 ns", "tau3 = 1e-71 ns"),
    ("transit_rate = 2 MHz", "transit_rate = 1e75 Mrad/s"),
    ("refill_rate = 2 MHz", "refill_rate = 1e75 Mrad/s"),
    ("gamma12_col = 5 MHz", "gamma12_col = 1e75 Mrad/s"),
    ("gamma13_col = 1 MHz", "gamma13_col = 1e75 Mrad/s"),
    ("gamma23_col = 1 MHz", "gamma23_col = 1e75 Mrad/s"),
])
def test_rate_at_its_cap_runs_without_overflow(tmp_path, capsys, old, new):
    """A rate (or 1/tau) at the 1e75 Mrad/s cap reaches the engine, which
    overflows nowhere; twice the cap exits 2 naming the key."""
    assert old in FUZZ_BASE
    cfg = write_config(tmp_path, FUZZ_BASE.replace(old, new))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) in (0, 3)
    assert [str(w.message) for w in shown] == []
    capsys.readouterr()
    key = old.split()[0]
    over = new.replace("1e-71 ns", "5e-73 ns").replace("1e75", "2e75")
    cfg = write_config(tmp_path, FUZZ_BASE.replace(old, over))
    assert main(["simulate", "--config", cfg, "--json-errors"]) == 2
    assert f"key '{key}'" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("beam, key", [("probe", "mu_probe"),
                                       ("coupling", "mu_coupling")])
def test_rabi_frequency_at_its_cap_runs_without_overflow(tmp_path, capsys,
                                                         beam, key):
    """A dipole that puts the beam's Rabi frequency mu E / hbar at the
    1e75 Mrad/s cap reaches the engine, which overflows nowhere; twice the
    cap exits 2 naming the dipole, power and waist of the beam, and a [fit]
    bound at twice the cap names itself."""
    from eitmol.units import rabi_frequency

    field = getattr(parse_config(FUZZ_BASE).lasers, f"field_{beam}")
    mu = 1e75 / rabi_frequency(1.0, field)
    while rabi_frequency(mu, field) > 1e75:
        mu = float(np.nextafter(mu, 0.0))
    old = re.search(rf"^{key} = .*$", FUZZ_BASE, re.MULTILINE)[0]
    cfg = write_config(tmp_path, FUZZ_BASE.replace(old, f"{key} = {mu!r} au"))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path)]) in (0, 3)
    assert [str(w.message) for w in shown] == []
    capsys.readouterr()
    cfg = write_config(tmp_path,
                       FUZZ_BASE.replace(old, f"{key} = {2 * mu!r} au"))
    assert main(["simulate", "--config", cfg, "--json-errors"]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert f"[system] {key}, [lasers] power_{beam}, waist_{beam}:" in message
    if beam == "coupling":
        fit = ("\n[fit]\nfree = mu_coupling\nmu_coupling_init = 1 au\n"
               "mu_coupling_min = 0.5 au\nmu_coupling_max = {!r} au\n")
        parse_config(FUZZ_BASE + fit.format(mu))
        with pytest.raises(ValidationError, match="key 'mu_coupling_max'"):
            parse_config(FUZZ_BASE + fit.format(2 * mu))


@st.composite
def numeric_edit(draw):
    """One numeric key of the shrunk preset and the value to put there."""
    key = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    if key in FUZZ_INTEGER_KEYS:
        value = draw(st.one_of(
            st.sampled_from([v for v in FUZZ_SPECIAL if "300" not in v]),
            st.integers(-10, 10**4).map(str)))
    else:
        value = draw(st.one_of(st.sampled_from(FUZZ_SPECIAL),
                               st.floats(-1e4, 1e4).map(repr)))
    return key, value


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(numeric_edit())
def test_cli_fuzzed_config_keeps_exit_codes(edit):
    """Any single numeric value of a Doppler-on scan, however extreme,
    exits 0, 2, 3 or 4 and prints no traceback."""
    assert len(FUZZ_KEYS) == 29  # every numeric key of the preset
    key, value = edit
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}{FUZZ_KEYS[key] or ''}",
                  FUZZ_BASE, flags=re.MULTILINE)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(cfg), "--json-errors",
                         "--out", tmp])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        message = json.loads(err.getvalue())["message"]
        assert re.search(rf"\b{key}\b", message.replace(str(cfg), "")), \
            message


# every key of the shrunk preset, numeric or not
PRESET_KEYS = re.findall(r"^(\w+) = ", FUZZ_BASE, re.MULTILINE)


@pytest.mark.parametrize("key, value", [
    ("tau2", "-1 ns"), ("tau3", "-1 ns"), ("mass", "-1 amu"),
    ("temperature", "-1 K"), ("delta1_points", "-1"),
] + [(key, "nan" + (unit or "")) for key, unit in sorted(FUZZ_KEYS.items())])
def test_cli_rejection_names_exactly_the_bad_key(tmp_path, capsys, key,
                                                  value):
    """A value outside its key's domain exits 2 with a message that names
    that key and no other key of the preset; a NaN is reported as such."""
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FUZZ_BASE,
                  flags=re.MULTILINE)
    cfg = write_config(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    named = [k for k in PRESET_KEYS
             if re.search(rf"\b{k}\b", message.replace(cfg, ""))]
    assert named == [key], message
    if value.startswith("nan"):
        assert "must be finite" in message, message


def test_cli_nonfinite_signal_exits_numeric(tmp_path, capsys, monkeypatch):
    """A NaN kernel exits 3 and writes nothing, Doppler-free (the table on
    the grid, from ``analytic``) and Doppler on (the spot-check, from
    ``spectrum``)."""
    from eitmol import analytic, spectrum

    def nan_kernel(sys, groups, d1, d2, rho22=True, rho33=True):
        for _ in groups:
            yield np.full(np.broadcast(d1, d2).shape, np.nan), None

    for module in (analytic, spectrum):
        monkeypatch.setattr(module, "group_factors", nan_kernel)
    for thermal in ("", THERMAL):
        cfg = small_run_config(tmp_path, tmp_path)
        with open(cfg, "a") as fh:
            fh.write(thermal)
        code = main(["simulate", "--config", cfg, "--json-errors"])
        assert code == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UnphysicalSignal"
        assert not (tmp_path / "run.csv").exists()


def test_cli_oracle_check_passes_on_preset(capsys):
    assert main(["oracle-check", "--config", "li2_fig4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_components_writes_all_channels(tmp_path, capsys):
    cfg = small_run_config(tmp_path, tmp_path)
    assert main(["components", "--config", cfg, "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("run_m*.csv"))
    assert len(files) == 15


def test_cli_m_sum_off_simulates_but_writes_no_components(tmp_path, capsys):
    cfg = small_run_config(tmp_path, tmp_path,
                           **{"delta2 = 0 MHz": "delta2 = 0 MHz\nm_sum = off"})
    assert load_config(cfg).scan.m_sum_on is False
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "# scan.m_sum_on = False" in \
        (tmp_path / "run.csv").read_text().splitlines()
    (tmp_path / "run.csv").unlink()
    assert main(["components", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValidationError"
    assert "m_sum" in payload["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_cli_fit_roundtrip_writes_report(tmp_path, capsys):
    from eitmol.spectrum import ScanConfig, simulate
    from eitmol.sublevels import build_channels

    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(tmp_path, outdir)
    with open(cfg_path, "a") as fh:
        fh.write("\n[fit]\nchannel = rho33\nfree = amplitude_scale\n"
                 "amplitude_scale_init = 1.0\n"
                 "amplitude_scale_min = 0.0\namplitude_scale_max = 10.0\n")
    cfg = load_config(cfg_path)
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    truth = simulate(cfg.system, cfg.lasers, None, cs, cfg.scan)
    data = tmp_path / "target.csv"
    rows = "\n".join(f"{x},{2.5 * y}" for x, y in
                     zip(truth.delta1_mhz, truth.signals["rho33"]))
    data.write_text(rows + "\n")

    assert main(["fit", "--config", cfg_path, "--data", str(data)]) == 0
    report = json.loads((outdir / "run_fit.json").read_text())
    assert report["converged"] is True
    assert report["best_params"]["amplitude_scale"] == pytest.approx(2.5,
                                                                     rel=1e-5)
    # the best-fit spectrum is the scaled model, so it reproduces the data
    rows = (outdir / "run_bestfit.csv").read_text().splitlines()
    data_rows = [r for r in rows if r and not r.startswith("#")][1:]
    best_rho33 = [float(r.split(",")[2]) for r in data_rows]
    assert best_rho33 == pytest.approx(2.5 * truth.signals["rho33"], rel=1e-5)


def test_cli_fit_out_of_budget_exits_fit(tmp_path, capsys):
    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(tmp_path, outdir)
    with open(cfg_path, "a") as fh:
        fh.write("\n[fit]\nchannel = rho33\n"
                 "free = mu_coupling gamma12_col amplitude_scale\n"
                 "mu_coupling_init = 1.2 au\nmu_coupling_min = 0.5 au\n"
                 "mu_coupling_max = 3.0 au\ngamma12_col_init = 8 MHz\n"
                 "gamma12_col_min = 1 MHz\ngamma12_col_max = 20 MHz\n"
                 "amplitude_scale_init = 0.8\namplitude_scale_min = 0.1\n"
                 "amplitude_scale_max = 10\nmax_evaluations = 10\n")
    x, y = truth_signal(cfg_path)
    write_trace(tmp_path / "target.csv", x, y)
    assert main(["fit", "--config", cfg_path, "--data",
                 str(tmp_path / "target.csv")]) == 4
    report = json.loads((outdir / "run_fit.json").read_text())
    assert report["converged"] is False
    assert report["residual_norm"] <= report["initial_residual_norm"]
    assert (outdir / "run_bestfit.csv").exists()


FIT_AMPLITUDE = ("\n[fit]\nchannel = rho33\nfree = amplitude_scale\n"
                 "amplitude_scale_init = 1.0\n"
                 "amplitude_scale_min = 0.0\namplitude_scale_max = 10.0\n")


def truth_signal(cfg_path):
    from eitmol.spectrum import simulate
    from eitmol.sublevels import build_channels

    cfg = load_config(cfg_path)
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    truth = simulate(cfg.system, cfg.lasers, cfg.ensemble, cs, cfg.scan,
                     quadrature=cfg.quadrature)
    return truth.delta1_mhz, truth.signals["rho33"]


def write_trace(path, *columns):
    path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n"
                            for row in zip(*columns)))


def test_cli_fit_weights_by_sigma(tmp_path, capsys):
    """Every third point is replaced by junk and given 100x the sigma of
    the others: the weighted fit still recovers mu within 2%, the same
    trace without its sigma column does not."""
    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(
        tmp_path, outdir,
        **{"delta1_min = -100 MHz": "delta1_min = -1200 MHz",
           "delta1_max = 100 MHz": "delta1_max = 1200 MHz",
           "delta1_points = 21": "delta1_points = 41"})
    with open(cfg_path, "a") as fh:
        fh.write(THERMAL + "\n[fit]\nchannel = rho33\n"
                 "free = mu_coupling amplitude_scale\n"
                 "mu_coupling_init = 1.2 au\nmu_coupling_min = 0.8 au\n"
                 "mu_coupling_max = 2.5 au\namplitude_scale_init = 1.0\n"
                 "amplitude_scale_min = 0.1\namplitude_scale_max = 10.0\n")
    x, y = truth_signal(cfg_path)
    peak = float(np.max(y))
    rng = np.random.default_rng(5)
    sigma = np.full(y.size, 0.01 * peak)
    y = y + sigma * rng.standard_normal(y.size)
    junk = np.arange(1, y.size, 3)
    y[junk] = rng.uniform(0.0, peak, junk.size)
    sigma[junk] *= 100.0

    mus = {}
    for label, cols in (("weighted", (x, y, sigma)), ("unweighted", (x, y))):
        data = tmp_path / f"{label}.csv"
        write_trace(data, *cols)
        assert main(["fit", "--config", cfg_path, "--data", str(data)]) == 0
        report = json.loads((outdir / "run_fit.json").read_text())
        mus[label] = report["best_params"]["mu_coupling"]
    assert mus["weighted"] == pytest.approx(1.45, rel=0.02)
    assert mus["unweighted"] != pytest.approx(1.45, rel=0.02)


def test_cli_fit_leaves_a_doppler_free_local_minimum(tmp_path, capsys):
    """A Doppler-free trace over +-1200 MHz in 61 points, weighted, every
    third point junk at 100x sigma: chi^2(mu) has a local minimum at
    1.418 au (chi^2 64.7) next to the true one at 1.45 au (41.5), closer
    than 0.03 au.  From 1.2 au in [0.5, 3] au the fit recovers mu within
    2%; the Powell search stopped at 1.4183 au."""
    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(
        tmp_path, outdir,
        **{"delta1_min = -100 MHz": "delta1_min = -1200 MHz",
           "delta1_max = 100 MHz": "delta1_max = 1200 MHz",
           "delta1_points = 21": "delta1_points = 61"})
    with open(cfg_path, "a") as fh:
        fh.write("\n[fit]\nchannel = rho33\n"
                 "free = mu_coupling amplitude_scale\n"
                 "mu_coupling_init = 1.2 au\nmu_coupling_min = 0.5 au\n"
                 "mu_coupling_max = 3.0 au\namplitude_scale_init = 1.0\n"
                 "amplitude_scale_min = 0.1\namplitude_scale_max = 10.0\n")
    x, y = truth_signal(cfg_path)
    peak = float(np.max(y))
    rng = np.random.default_rng(5)
    sigma = np.full(y.size, 0.01 * peak)
    y = y + sigma * rng.standard_normal(y.size)
    junk = np.arange(1, y.size, 3)
    y[junk] = rng.uniform(0.0, peak, junk.size)
    sigma[junk] *= 100.0
    data = tmp_path / "trace.csv"
    write_trace(data, x, y, sigma)
    assert main(["fit", "--config", cfg_path, "--data", str(data)]) == 0
    report = json.loads((outdir / "run_fit.json").read_text())
    assert report["converged"] is True
    assert report["best_params"]["mu_coupling"] == pytest.approx(1.45,
                                                                 rel=0.02)
    assert report["residual_norm"] < 45.0


def test_cli_fit_reads_a_wavenumber_abscissa(tmp_path, capsys):
    """The same noisy trace, its abscissa once as probe detuning and once as
    absolute wavenumber, gives the same dipole through eitmol fit."""
    from eitmol.constants import WAVENUMBER_TO_MHZ

    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(
        tmp_path, outdir,
        **{"delta1_min = -100 MHz": "delta1_min = -1200 MHz",
           "delta1_max = 100 MHz": "delta1_max = 1200 MHz",
           "delta1_points = 21": "delta1_points = 41"})
    fit = ("\n[fit]\nchannel = rho33\nfree = mu_coupling amplitude_scale\n"
           "mu_coupling_init = 1.2 au\nmu_coupling_min = 0.8 au\n"
           "mu_coupling_max = 2.5 au\namplitude_scale_init = 1.0\n"
           "amplitude_scale_min = 0.1\namplitude_scale_max = 10.0\n")
    x, y = truth_signal(cfg_path)
    y = y * (1.0 + 0.01 * np.random.default_rng(9).standard_normal(y.size))
    mus = {}
    for abscissa, column in (("detuning_MHz", x),
                             ("wavenumber_cm-1",
                              15642.636 + x / WAVENUMBER_TO_MHZ)):
        cfg = write_config(tmp_path, Path(cfg_path).read_text() + fit
                           + f"data_abscissa = {abscissa}\n", "fit.cfg")
        data = tmp_path / f"{abscissa}.csv"
        write_trace(data, column, y)
        assert main(["fit", "--config", cfg, "--data", str(data)]) == 0
        report = json.loads((outdir / "run_fit.json").read_text())
        mus[abscissa] = report["best_params"]["mu_coupling"]
    # the noise moves the fit off the truth by more than the tolerance
    assert mus["detuning_MHz"] != pytest.approx(1.45, rel=1e-6)
    assert mus["wavenumber_cm-1"] == pytest.approx(mus["detuning_MHz"],
                                                   rel=1e-6)


@pytest.mark.parametrize("bad", ["0", "-1"])
def test_cli_fit_rejects_nonpositive_sigma(tmp_path, capsys, bad):
    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(tmp_path, outdir)
    with open(cfg_path, "a") as fh:
        fh.write(FIT_AMPLITUDE)
    x, y = truth_signal(cfg_path)
    sigma = 0.01 * y
    sigma[3] = float(bad)
    data = tmp_path / "target.csv"
    write_trace(data, x, y, sigma)
    assert main(["fit", "--config", cfg_path, "--data", str(data),
                 "--json-errors"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValidationError"
    assert "uncertainties" in payload["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("old, new, key", [
    ("free = amplitude_scale", "free = foo", "free"),
    ("amplitude_scale_init = 1.0", "amplitude_scale_init = 20",
     "amplitude_scale_init"),
    ("amplitude_scale_min = 0.0", "amplitude_scale_min = 10",
     "amplitude_scale_min"),
    ("amplitude_scale_min = 0.0", "amplitude_scale_min = nan",
     "amplitude_scale_min"),
    ("amplitude_scale_max = 10.0",
     "amplitude_scale_max = 10.0\nmax_evaluations = 0", "max_evaluations"),
])
def test_cli_fit_rejects_bad_fit_input(tmp_path, capsys, old, new, key):
    """A [fit] value outside its domain, bounds that do not increase or an
    initial value outside them exit 2 naming the key, and write no CSV."""
    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(tmp_path, outdir)
    with open(cfg_path, "a") as fh:
        fh.write(FIT_AMPLITUDE.replace(old, new))
    data = tmp_path / "target.csv"
    x = np.linspace(-100.0, 100.0, 21)
    write_trace(data, x, np.exp(-(x / 50.0) ** 2))
    assert main(["fit", "--config", cfg_path, "--data", str(data),
                 "--json-errors"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValidationError"
    assert re.search(rf"\b{key}\b", payload["message"]), payload["message"]
    assert not list(outdir.glob("*.csv"))


def test_cli_json_errors_carry_the_run_warnings(tmp_path):
    """numpy warnings of a failing run go into the JSON error, so stderr is
    one JSON document; without --json-errors they are printed as usual."""
    # rates and Rabi frequencies are capped where they are read; a huge
    # detuning still overflows in the engine
    text = FUZZ_BASE.replace("delta1_max = 3000 MHz",
                             "delta1_max = 1e300 MHz")
    cfg = write_config(tmp_path, text)
    import eitmol
    env = dict(os.environ,
               PYTHONPATH=str(Path(eitmol.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "eitmol.cli", "simulate", "--config", cfg,
            "--out", str(tmp_path)]
    run = subprocess.run(argv + ["--json-errors"], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 3
    payload = json.loads(run.stderr)
    assert payload["exit_code"] == 3
    assert payload["warnings"]
    assert all("RuntimeWarning" in w for w in payload["warnings"])
    plain = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert plain.returncode == 3
    assert "RuntimeWarning" in plain.stderr
    assert plain.stderr.rstrip().splitlines()[-1].startswith("eitmol: error:")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_shows_held_warnings_when_the_run_raises(tmp_path, monkeypatch):
    """A failure that main does not turn into an exit code still shows the
    warnings held back during the run."""
    from eitmol import cli

    def broken(args):
        import warnings
        warnings.warn("held during the run", RuntimeWarning)
        raise KeyError("unexpected")

    monkeypatch.setattr(cli, "cmd_dip", broken)
    cfg = write_config(tmp_path, MINIMAL)
    with pytest.warns(RuntimeWarning, match="held during the run"):
        with pytest.raises(KeyError):
            main(["dip", "--config", cfg, "--json-errors"])


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
def test_cli_fit_honours_engine(tmp_path, capsys, monkeypatch, engine):
    from eitmol import spectrum

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return populations_grid(*args, **kwargs)

    outdir = tmp_path / "fitout"
    cfg_path = small_run_config(tmp_path, outdir, **{
        "delta2 = 0 MHz": f"delta2 = 0 MHz\nengine = {engine}"})
    with open(cfg_path, "a") as fh:
        fh.write(FIT_AMPLITUDE)
    x, y = truth_signal(cfg_path)
    data = tmp_path / "target.csv"
    write_trace(data, x, 2.5 * y)
    populations_grid = spectrum.populations_grid
    monkeypatch.setattr(spectrum, "populations_grid", counted)
    assert main(["fit", "--config", cfg_path, "--data", str(data),
                 "--threads", "2"]) == 0
    assert bool(calls) == (engine == "oracle")


def one_json_error(capsys):
    """The run's stderr, which must be exactly one JSON object."""
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert err.strip() == json.dumps(payload)
    return payload


def test_cli_exact_solve_accepts_a_strong_probe(tmp_path, capsys):
    """A probe Rabi frequency of 1e10 Mrad/s on the oracle engine solves
    with a backward error near 1e-17; the residual relative to the source
    alone was 9.5e-9, above the 1e-10 tolerance."""
    text = FUZZ_BASE.replace("delta1_points = 21", "delta1_points = 5") \
        .replace("engine = analytic", "engine = oracle") \
        .replace("mu_probe = 1.0 au", "mu_probe = 39870094.67759443 au")
    cfg = write_config(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header = (tmp_path / "li2_fig6b.csv").read_text()
    g1 = float(re.search(r"channels\.g1_bare_Mrad_s = (\S+)", header)[1])
    assert g1 == pytest.approx(1e10, rel=1e-9)


@pytest.mark.parametrize("command", ["simulate", "dip"])
@pytest.mark.parametrize("old, new, keys", [
    ("omega32 = 17053.954 cm-1", "omega32 = 0 cm-1", ["omega32"]),
    ("omega21 = 15642.636 cm-1", "omega21 = -15642.636 cm-1", ["omega21"]),
    ("delta2 = 1000 MHz", "delta2 = -600000000 MHz", ["delta2", "omega32"]),
    ("delta1_min = -3000 MHz", "delta1_min = -500000000 MHz",
     ["delta1_min", "omega21"]),
], ids=["omega32-zero", "omega21-negative", "coupling-laser-negative",
        "probe-laser-negative"])
def test_cli_rejects_unphysical_laser_frequencies(tmp_path, capsys, command,
                                                  old, new, keys):
    """A transition wavenumber <= 0, or a laser frequency omega + delta <= 0
    anywhere in the scan, exits 2 with one JSON object naming the keys."""
    assert old in FUZZ_BASE
    cfg = write_config(tmp_path, FUZZ_BASE.replace(old, new))
    argv = [command, "--config", cfg, "--json-errors"]
    assert main(argv + (["--out", str(tmp_path)]
                        if command == "simulate" else [])) == 2
    message = one_json_error(capsys)["message"]
    assert all(re.search(rf"\b{k}\b", message) for k in keys), message
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("old, new, data, want", [
    # the config file's syntax
    ("[lasers]", "[lasers", None, "{cfg}:{line}:1: malformed section header"),
    ("\n[system]", "stray = 1\n[system]", None,
     "{cfg}:{line}:1: key outside of any [section]"),
    ("b2 = 0.1", "b2 0.1", None, "{cfg}:{line}:1: expected 'key = value'"),
    ("b2 = 0.1", "= 0.1", None, "{cfg}:{line}:1: empty key"),
    ("b2 = 0.1", "b2 =", None, "{cfg}:{line}:5: empty value for 'b2'"),
    ("b3 = 0.2", "b3 = 0.2\nb3 = 0.3", None,
     "{cfg}:{line}:1: duplicate key 'b3'"),
    # its values
    ("b2 = 0.1", "b2 = abc", None, "{cfg}:{line}: key 'b2': must be a bare"),
    ("tau2 = 18 ns", "tau2 = 0 ns", None,
     "{cfg}:{line}: key 'tau2': zero has no reciprocal"),
    ("delta2 = 0 MHz", "delta2 = 0 MHz\nengine = fast", None,
     "{cfg}:{line}: key 'engine': must be one of"),
    ("delta2 = 0 MHz", "delta2 = 0 MHz\nm_sum = maybe", None,
     "{cfg}:{line}: key 'm_sum': must be on/off"),
    ("delta2 = 0 MHz", "delta2 = 0 MHz\ndoppler = maybe", None,
     "{cfg}:{line}: key 'doppler': was removed"),
    ("delta2 = 0 MHz", "delta2 = 0 MHz\nfeature_resolution = 100 MHz", None,
     "{cfg}:{line}: key 'feature_resolution': was removed: delta1_min,"
     " delta1_max and delta1_points set the grid spacing"),
    ("J3 = 14", "J3 = 14\nbranch_probe = P", None,
     "{cfg}:{line}: key 'branch_probe': was removed: the J pair fixes"),
    ("J3 = 14", "J3 = 14\nbranch_coupling = Q", None,
     "{cfg}:{line}: key 'branch_coupling': was removed: the J pair fixes"),
    ("J2 = 14", "J2 = 16", None, "{cfg}: [system] J1, J2: J 15 -> 16 is no P"
     " (J -> J-1) or Q (J -> J) transition"),
    ("J1 = 15\nJ2 = 14\nJ3 = 14", "J1 = 1\nJ2 = 0\nJ3 = 0", None,
     "{cfg}: [system] J2, J3: Q branch needs J >= 1, got 0"),
    ("[scan]", "[ensemble]\ntemperature = 1000 K\n[scan]", None,
     "{cfg}: [ensemble] temperature, mass: need each other"),
    # the data file of a fit
    ("", "", "-100,1.0\nx,2.0\n", "{data}:2:1: non-numeric field"),
    ("", "", "-100,1.0\n", "{data}: need at least two data rows"),
    ("", "", "-100,1.0\n0,2.0\n100,1.0,0.1\n",
     "{data}:3:1: expected 2 columns as in the first row, got 3"),
    # a fit needs its [fit] section
    (FIT_AMPLITUDE, "", None, "{cfg}: fitting requires a [fit] section"),
], ids=["section-header", "key-outside-section", "no-equals", "empty-key",
        "empty-value", "duplicate-key", "bad-number", "zero-lifetime",
        "bad-engine", "bad-flag", "removed-key", "removed-feature-resolution",
        "removed-branch-probe", "removed-branch-coupling", "no-branch",
        "q-branch-from-j0",
        "temperature-without-mass",
        "data-non-numeric", "data-single-row", "data-mixed-columns",
        "fit-without-section"])
def test_cli_rejection_branches_exit_config(tmp_path, capsys, old, new, data,
                                            want):
    """Every rejection of the config parser and the data reader exits 2
    with one JSON object that names the offending line, and the key where
    there is one."""
    base = MINIMAL + FIT_AMPLITUDE
    text = base.replace(old, new, 1)
    cfg = write_config(tmp_path, text)
    trace = tmp_path / "trace.csv"
    trace.write_text(data or "-100,1.0\n0,2.0\n100,1.0\n")
    assert main(["fit", "--config", cfg, "--data", str(trace),
                 "--json-errors", "--out", str(tmp_path)]) == 2
    # the first line the edit changed
    line = next((i for i, (a, b) in enumerate(
        zip(base.splitlines(), text.splitlines()), 1) if a != b), None)
    want = want.format(cfg=cfg, data=trace, line=line)
    assert want in one_json_error(capsys)["message"]


@pytest.mark.parametrize("command", ["simulate", "components", "fit"])
def test_engine_is_set_by_the_config_alone(capsys, command):
    """[scan] engine is the one engine switch: --engine is no option."""
    data = ["--data", "trace.csv"] if command == "fit" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "li2_fig3a", "--engine", "oracle"] + data)
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_cli_unallocatable_nodes_exit_numeric(tmp_path, capsys):
    """A velocity-node count that cannot be allocated fails in the engine
    and exits 3 with one JSON object.  The size exceeds the address space,
    so the allocation fails at once without touching memory."""
    text = (resources.files("eitmol") / "presets" / "li2_fig3a.cfg") \
        .read_text("utf-8")
    assert "nodes = 4001" in text
    cfg = write_config(tmp_path, text.replace("nodes = 4001",
                                              "nodes = 1000000000000001"))
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 3
    payload = one_json_error(capsys)
    assert "Unable to allocate" in payload["message"], payload
    assert not list(tmp_path.glob("*.csv"))


def test_non_utf8_files_raise_parse_error(tmp_path, capsys):
    """A config or data file that is not UTF-8 raises a ParseError naming
    the file, and the CLI exits 2 with one JSON object."""
    junk = tmp_path / "junk.txt"
    junk.write_bytes(b"\xff\xfe\x00")
    for read in (load_config, load_spectrum):
        with pytest.raises(ParseError, match=rf"^{re.escape(str(junk))}:"
                                             r" not UTF-8 text"):
            read(junk)
    cfg = small_run_config(tmp_path, tmp_path)
    with open(cfg, "a") as fh:
        fh.write(FIT_AMPLITUDE)
    for argv in (["simulate", "--config", str(junk)],
                 ["fit", "--config", cfg, "--data", str(junk)]):
        assert main(argv + ["--json-errors"]) == 2
        payload = one_json_error(capsys)
        assert payload["error"] == "ParseError"
        assert str(junk) in payload["message"]


def test_config_with_a_byte_order_mark_reads_like_without(tmp_path):
    """A config saved as UTF-8 with a byte order mark, as some editors
    write it, loads exactly as the same text without the mark."""
    text = (resources.files("eitmol") / "presets" / "li2_fig3a.cfg") \
        .read_text("utf-8")
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, "utf-8")
    marked.write_text(text, "utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = load_config(plain), load_config(marked)
    for name in ("system", "lasers", "ensemble", "quadrature", "mu_probe_au",
                 "mu_coupling_au", "fit", "output"):
        assert getattr(a, name) == getattr(b, name)
    assert np.array_equal(a.scan.delta1_mhz, b.scan.delta1_mhz)


def test_trace_with_a_byte_order_mark_reads_like_without(tmp_path):
    """A --data trace whose first field follows a byte order mark reads as
    the same trace without the mark."""
    text = "-100,0.2,0.01\n0,0.4,0.01\n100,0.1,0.01\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, "utf-8")
    marked.write_text(text, "utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = load_spectrum(plain), load_spectrum(marked)
    for name in ("delta1_mhz", "signal", "sigma"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_doppler_fwhm_alone_reproduces_the_thermal_width(tmp_path, capsys):
    """li2_fig6b with its thermal width given as doppler_fwhm has the same
    data rows as with temperature and mass."""
    text = (resources.files("eitmol") / "presets" / "li2_fig6b.cfg") \
        .read_text("utf-8").replace("delta1_points = 801",
                                    "delta1_points = 41")
    measured = text.replace("temperature = 1000 K\nmass = 14 amu\n",
                            "doppler_fwhm = 2838.708108518173 MHz\n")
    assert measured != text
    rows, echoed = [], []
    for tag, body in (("thermal", text), ("measured", measured)):
        out = tmp_path / tag
        cfg = write_config(tmp_path, body, f"{tag}.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "li2_fig6b.csv").read_text().splitlines()
        rows.append([line for line in csv if not line.startswith("#")])
        echoed.append({line[2:].split(" = ")[0] for line in csv
                       if line.startswith("# ")})
    capsys.readouterr()
    assert len(rows[0]) == 42
    assert rows[0] == rows[1]
    # a measured width sets u_p, so the header echoes no temperature or mass
    thermal = {"ensemble.temperature_K", "ensemble.mass_amu"}
    assert thermal | {"ensemble.u_p_m_s"} <= echoed[0]
    assert echoed[1] == echoed[0] - thermal


@pytest.mark.parametrize("scan_line, sections, keys", [
    ("doppler = on", THERMAL, ["doppler"]),
    ("doppler = off", "", ["doppler"]),
    ("", "\n[quadrature]\nnodes = 51\n", ["nodes"]),
    ("", "\n[ensemble]\ngeometry = co_propagating\n",
     ["temperature", "mass", "doppler_fwhm"]),
], ids=["doppler-on", "doppler-off", "quadrature-without-ensemble",
        "ensemble-without-width"])
def test_cli_rejects_velocity_input_without_an_ensemble(tmp_path, capsys,
                                                        scan_line, sections,
                                                        keys):
    """[ensemble] alone switches the Doppler average on: the removed [scan]
    doppler key, a [quadrature] key of a Doppler-free scan and an
    [ensemble] that sets no velocity width each exit 2 with one JSON object
    naming the keys, and write no CSV."""
    cfg = small_run_config(tmp_path, tmp_path, **{
        "delta2 = 0 MHz": f"delta2 = 0 MHz\n{scan_line}"})
    with open(cfg, "a") as fh:
        fh.write(sections)
    assert main(["simulate", "--config", cfg, "--json-errors",
                 "--out", str(tmp_path)]) == 2
    message = one_json_error(capsys)["message"]
    assert all(re.search(rf"\b{k}\b", message) for k in keys), message
    assert not list(tmp_path.glob("*.csv"))


def test_cli_doppler_free_echoes_no_velocity_input(tmp_path, capsys):
    """A scan without [ensemble] writes the library's Doppler-free spectrum,
    whose header echoes no ensemble. or quadrature. key."""
    from eitmol.spectrum import simulate, spectrum_csv_text
    from eitmol.sublevels import build_channels

    cfg_path = small_run_config(tmp_path, tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path)]) == 0
    text = (tmp_path / "run.csv").read_text()
    header = [line for line in text.splitlines() if line.startswith("#")]
    assert "# scan.doppler_on = False" in header
    assert not [line for line in header
                if line.startswith(("# ensemble.", "# quadrature."))]
    cfg = load_config(cfg_path)
    cs = build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    assert text == spectrum_csv_text(
        simulate(cfg.system, cfg.lasers, None, cs, cfg.scan))


@pytest.mark.parametrize("preset", ["li2_fig3a", "li2_fig4"])
def test_cli_dip_prints_an_unsigned_zero(capsys, preset):
    """delta2 = 0 puts the dip at 0.0 MHz, not -0.0."""
    assert main(["dip", "--config", preset]) == 0
    assert capsys.readouterr().out == "0.0 MHz\n"


def test_cli_fit_writes_a_verified_best_fit(tmp_path, capsys, monkeypatch):
    """The best-fit spectrum of a Doppler-averaged fit has its quadrature
    checked like a simulated one; a best point that fails the check exits 3
    and writes no file."""
    from eitmol import cli
    from eitmol.errors import QuadratureNotConverged

    outdir = tmp_path / "fitout"
    cfg = small_run_config(tmp_path, outdir)
    with open(cfg, "a") as fh:
        fh.write(THERMAL + FIT_AMPLITUDE)
    trace = tmp_path / "trace.csv"
    trace.write_text("-100,1.0\n0,2.0\n100,1.0\n")
    argv = ["fit", "--config", cfg, "--data", str(trace)]
    assert main(argv) == 0
    header = (outdir / "run_bestfit.csv").read_text().splitlines()
    assert "# quadrature.verified = True" in header

    def fails(*args):
        raise QuadratureNotConverged("rho33 moved")

    monkeypatch.setattr(cli, "validate_quadrature", fails)
    assert main(argv + ["--out", str(tmp_path / "failed")]) == 3
    assert not (tmp_path / "failed").exists()
