"""Config parsing, presets, data ingestion, and the command-line surface."""

import json
import math
import re
from importlib import resources

import numpy as np
import pytest

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
branch_probe = P
branch_coupling = Q
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
doppler = off
"""


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.system.gamma2 == pytest.approx(1e3 / 18.0)
    assert cfg.system.transit_rate == pytest.approx(2 * 2 * math.pi)
    # refill defaults to the transit rate so the unpumped ground state is 1
    assert cfg.system.refill_rate == cfg.system.transit_rate
    assert cfg.ensemble is None
    assert cfg.scan.delta1_mhz.size == 21


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
        assert np.all(np.isfinite(spec.signal_rho22))


def test_missing_key_names_it():
    broken = MINIMAL.replace("tau2 = 18 ns\n", "")
    with pytest.raises(ValidationError, match="tau2"):
        parse_config(broken)


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="mystery"):
        parse_config(MINIMAL + "\n[quadrature]\nmystery = 12\n")


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
    broken = MINIMAL.replace("doppler = off", "doppler = on")
    with pytest.raises(ValidationError, match="ensemble"):
        parse_config(broken)


def test_unit_prefixes():
    cfg = parse_config(MINIMAL.replace("delta2 = 0 MHz", "delta2 = 1.0 GHz"))
    assert cfg.scan.delta2_mhz == pytest.approx(1000.0)


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
                           **{"delta2 = 0 MHz": "delta2 = 420 MHz",
                              "doppler = off": "doppler = on"})
    # doppler on needs an ensemble section
    with open(cfg, "a") as fh:
        fh.write("\n[ensemble]\ntemperature = 1000 K\nmass = 14 amu\n")
    assert main(["dip", "--config", cfg]) == 0
    assert capsys.readouterr().out.strip() == "-385.2 MHz"


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
    cfg = small_run_config(tmp_path, tmp_path,
                           **{"doppler = off": "doppler = on"})
    with open(cfg, "a") as fh:
        fh.write("\n[ensemble]\ntemperature = 1000 K\nmass = 14 amu\n"
                 "\n[quadrature]\nnodes = 51\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"rho(22|33) at delta1 = -?\d+(\.\d+)? MHz", err), err


@pytest.mark.parametrize("ensemble, quadrature", [
    ("doppler_fwhm = 0 MHz", "nodes = 101"),
    ("doppler_fwhm = -2600 MHz", "nodes = 101"),
    ("temperature = 1000 K\nmass = 14 amu",
     "scheme = gauss_hermite\nnodes = 101"),
])
def test_cli_rejects_unusable_quadrature_input(tmp_path, capsys, ensemble,
                                               quadrature):
    cfg = small_run_config(tmp_path, tmp_path,
                           **{"doppler = off": "doppler = on"})
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


def test_cli_nonfinite_signal_exits_numeric(tmp_path, capsys, monkeypatch):
    from eitmol import spectrum

    def nan_kernel(sys, g1, g2, d1, d2, rho11_init=1.0, rho22=True,
                   rho33=True):
        for i in range(len(g1)):
            yield i, np.full(np.broadcast(d1, d2).shape, np.nan), None

    monkeypatch.setattr(spectrum, "channel_populations", nan_kernel)
    cfg = small_run_config(tmp_path, tmp_path)
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
                     zip(truth.delta1_mhz, truth.signal_rho33))
    data.write_text(rows + "\n")

    assert main(["fit", "--config", cfg_path, "--data", str(data)]) == 0
    report = json.loads((outdir / "run_fit.json").read_text())
    assert report["converged"] is True
    assert report["best_params"]["amplitude_scale"] == pytest.approx(2.5,
                                                                     rel=1e-5)
    assert (outdir / "run_bestfit.csv").exists()
