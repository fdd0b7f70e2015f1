"""Declarative run configuration and experimental data ingestion.

Config files are flat sectioned ``key = value`` text.  Every physical value
carries an explicit unit suffix (``omega21 = 15642.636 cm-1``); parsing is
strict: unknown sections or keys, missing required keys, and wrong unit
dimensions are all hard errors that name the offender.
"""

import re
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .doppler import (
    CO_PROPAGATING,
    COUNTER_PROPAGATING,
    TRAPEZOID,
    Ensemble,
    QuadratureSpec,
)
from .errors import DomainError, ParseError, UnitError, ValidationError
from .spectrum import ENGINE_ANALYTIC, ENGINE_ORACLE, RHO22, RHO33, ScanConfig
from .sublevels import build_channels
from .system import CascadeSystem, LaserPair
from .units import (
    ANGULAR_MRADS,
    DIPOLE_AU,
    FREQUENCY_MHZ,
    LENGTH_M,
    MASS_AMU,
    POWER_W,
    TEMPERATURE_K,
    TIME_NS,
    WAVENUMBER_CM,
    Quantity,
    convert,
    rate_from_lifetime_ns,
)
from .constants import WAVENUMBER_TO_MHZ

# recognized unit suffixes -> (base unit, scale to that unit)
_SUFFIXES = {
    "cm-1": (WAVENUMBER_CM, 1.0),
    "GHz": (FREQUENCY_MHZ, 1e3),
    "MHz": (FREQUENCY_MHZ, 1.0),
    "kHz": (FREQUENCY_MHZ, 1e-3),
    "Mrad/s": (ANGULAR_MRADS, 1.0),
    "ns": (TIME_NS, 1.0),
    "us": (TIME_NS, 1e3),
    "au": (DIPOLE_AU, 1.0),
    "a.u.": (DIPOLE_AU, 1.0),
    "W": (POWER_W, 1.0),
    "mW": (POWER_W, 1e-3),
    "uW": (POWER_W, 1e-6),
    "m": (LENGTH_M, 1.0),
    "mm": (LENGTH_M, 1e-3),
    "um": (LENGTH_M, 1e-6),
    "K": (TEMPERATURE_K, 1.0),
    "amu": (MASS_AMU, 1.0),
}


def parse_quantity(text: str) -> Quantity:
    """'480 mW' -> Quantity(0.48, 'W'); raises UnitError for bad suffixes."""
    parts = text.split()
    if len(parts) != 2:
        raise UnitError(f"expected '<number> <unit>', got {text!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise UnitError(f"bad numeric value in {text!r}") from exc
    if parts[1] not in _SUFFIXES:
        raise UnitError(f"unknown unit suffix {parts[1]!r} in {text!r}")
    unit, scale = _SUFFIXES[parts[1]]
    return Quantity(value * scale, unit)


@dataclass(frozen=True)
class MeasuredSpectrum:
    delta1_mhz: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray | None
    metadata: dict


@dataclass(frozen=True)
class FitSettings:
    channel: str
    free: tuple
    init: dict
    bounds: dict
    data_abscissa: str = "detuning_MHz"   # or "wavenumber_cm-1"
    max_evaluations: int = 2000


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    basename: str = "spectrum"


@dataclass(frozen=True)
class RunConfig:
    system: CascadeSystem
    lasers: LaserPair
    ensemble: Ensemble | None
    scan: ScanConfig
    quadrature: QuadratureSpec
    mu_probe_au: float
    mu_coupling_au: float
    fit: FitSettings | None
    output: OutputSettings
    source: str


# --- low-level file parsing --------------------------------------------------

def _parse_sections(text: str, path):
    """-> {section: {key: (raw value, line number, column)}}, strict syntax."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ParseError("malformed section header", path, lineno, 1)
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ParseError("key outside of any [section]", path, lineno, 1)
        if "=" not in line:
            raise ParseError("expected 'key = value'", path, lineno, 1)
        key, value = line.split("=", 1)
        column = line.index("=") + 2
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", path, lineno, 1)
        if not value:
            raise ParseError(f"empty value for {key!r}", path, lineno, column)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", path, lineno, 1)
        sections[current][key] = (value, lineno, column)
    return sections


class _Section:
    """Typed accessors over one parsed section with strict key accounting."""

    def __init__(self, name, entries, path):
        self.name = name
        self.entries = entries
        self.path = path
        self.seen = set()

    def _raw(self, key, default=None, required=False):
        if key not in self.entries:
            if required:
                raise ValidationError(
                    f"{self.path}: missing required key '{key}' in"
                    f" section [{self.name}]")
            return default
        self.seen.add(key)
        return self.entries[key][0]

    def quantity(self, key, unit, required=False, default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            q = parse_quantity(raw)
            return convert(q, unit).value
        except UnitError as exc:
            line = self.entries[key][1]
            raise UnitError(f"{self.path}:{line}: key '{key}': {exc}") from exc
        except Exception as exc:
            line = self.entries[key][1]
            raise UnitError(
                f"{self.path}:{line}: key '{key}' must carry a unit"
                f" compatible with {unit}: {exc}") from exc

    def number(self, key, required=False, default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            line = self.entries[key][1]
            raise ValidationError(
                f"{self.path}:{line}: key '{key}' must be a bare number,"
                f" got {raw!r}") from exc

    def integer(self, key, required=False, default=None):
        v = self.number(key, required=required, default=default)
        if v is None or float(v).is_integer():
            return v if v is None else int(v)
        raise ValidationError(f"{self.path}: key '{key}' must be an integer")

    def word(self, key, choices=None, required=False, default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        if choices is not None and raw not in choices:
            raise ValidationError(
                f"{self.path}: key '{key}' must be one of {sorted(choices)},"
                f" got {raw!r}")
        return raw

    def words(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        return tuple(raw.replace(",", " ").split())

    def flag(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        raise ValidationError(
            f"{self.path}: key '{key}' must be on/off, got {raw!r}")

    def reject_unknown(self):
        unknown = set(self.entries) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            line = self.entries[key][1]
            raise ValidationError(
                f"{self.path}:{line}: unknown key '{key}' in section"
                f" [{self.name}]")


_KNOWN_SECTIONS = {"system", "lasers", "ensemble", "scan", "quadrature",
                   "fit", "output"}


@contextmanager
def _rejected_as_key(path, section, keys):
    """Re-raise a ValueError or DomainError as a ValidationError naming keys.

    ``keys`` maps the words a constructor's message may contain (field
    names) to the config keys they come from; the keys whose words appear
    are named, or all of them when none does.
    """
    try:
        yield
    except (ValueError, DomainError) as exc:
        named = [key for word, key in keys.items()
                 if re.search(rf"\b{word}\b", str(exc))]
        names = ", ".join(dict.fromkeys(named or keys.values()))
        raise ValidationError(
            f"{path}: [{section}] {names}: {exc}") from exc


_SYSTEM_KEYS = {"omega21_cm": "omega21", "omega32_cm": "omega32",
                "lifetime": "tau2, tau3", "gamma2": "tau2", "gamma3": "tau3",
                "b2": "b2", "b3": "b3", "gamma12_col": "gamma12_col",
                "gamma13_col": "gamma13_col", "gamma23_col": "gamma23_col",
                "transit_rate": "transit_rate", "refill_rate": "refill_rate",
                "J": "J1, J2, J3", "branch": "branch_probe, branch_coupling"}
_LASER_KEYS = {"power_probe_w": "power_probe", "waist_probe_m": "waist_probe",
               "power_coupling_w": "power_coupling",
               "waist_coupling_m": "waist_coupling"}
_ENSEMBLE_KEYS = {"temperature": "temperature", "mass": "mass",
                  "Doppler width": "doppler_fwhm"}
_SCAN_KEYS = {"delta1": "delta1_min, delta1_max, delta1_points",
              "delta2": "delta2",
              "samples": "delta1_points", "channels": "channels",
              "feature resolution": "feature_resolution"}
_QUADRATURE_KEYS = {"node_count": "nodes", "span": "span",
                    "refinement_tolerance": "refinement_tolerance"}


def _require_finite(path, section, **values):
    for key, value in values.items():
        if not np.isfinite(value):
            raise ValidationError(
                f"{path}: [{section}] {key}: must be finite, got {value}")


def load_config(path_or_preset) -> RunConfig:
    """Load and validate a config file; bare preset names are also accepted."""
    import os

    path = str(path_or_preset)
    if not os.path.exists(path):
        if path in available_presets():
            text = _preset_text(path)
        else:
            raise FileNotFoundError(
                f"no such config file or preset: {path!r}"
                f" (presets: {', '.join(available_presets())})")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config(text, path)


def parse_config(text: str, path="<config>") -> RunConfig:
    sections = _parse_sections(text, path)
    unknown = set(sections) - _KNOWN_SECTIONS
    if unknown:
        raise ValidationError(
            f"{path}: unknown section [{sorted(unknown)[0]}]")
    for required in ("system", "lasers", "scan"):
        if required not in sections:
            raise ValidationError(f"{path}: missing section [{required}]")

    def section(name):
        return _Section(name, sections.get(name, {}), path)

    sys_sec = section("system")
    # rates quoted in cyclic MHz pick up their 2*pi here, once
    transit = sys_sec.quantity("transit_rate", ANGULAR_MRADS, default=0.0)
    refill = sys_sec.quantity("refill_rate", ANGULAR_MRADS, default=transit)
    with _rejected_as_key(path, "system", _SYSTEM_KEYS):
        system = CascadeSystem(
            omega21_cm=sys_sec.quantity("omega21", WAVENUMBER_CM,
                                        required=True),
            omega32_cm=sys_sec.quantity("omega32", WAVENUMBER_CM,
                                        required=True),
            gamma2=rate_from_lifetime_ns(
                sys_sec.quantity("tau2", TIME_NS, required=True)),
            gamma3=rate_from_lifetime_ns(
                sys_sec.quantity("tau3", TIME_NS, required=True)),
            b2=sys_sec.number("b2", required=True),
            b3=sys_sec.number("b3", required=True),
            gamma12_col=sys_sec.quantity("gamma12_col", ANGULAR_MRADS,
                                         default=0.0),
            gamma13_col=sys_sec.quantity("gamma13_col", ANGULAR_MRADS,
                                         default=0.0),
            gamma23_col=sys_sec.quantity("gamma23_col", ANGULAR_MRADS,
                                         default=0.0),
            transit_rate=transit,
            refill_rate=refill,
            J1=sys_sec.integer("J1", required=True),
            J2=sys_sec.integer("J2", required=True),
            J3=sys_sec.integer("J3", required=True),
            branch_probe=sys_sec.word("branch_probe", {"P", "Q", "R"},
                                      required=True),
            branch_coupling=sys_sec.word("branch_coupling", {"P", "Q", "R"},
                                         required=True),
        )
        build_channels(system, 0.0, 0.0, 0.0, 0.0)  # J fits both branches
    mu_probe = sys_sec.quantity("mu_probe", DIPOLE_AU, required=True)
    mu_coupling = sys_sec.quantity("mu_coupling", DIPOLE_AU, required=True)
    _require_finite(path, "system", mu_probe=mu_probe,
                    mu_coupling=mu_coupling)
    sys_sec.reject_unknown()

    las_sec = section("lasers")
    with _rejected_as_key(path, "lasers", _LASER_KEYS):
        lasers = LaserPair(
            omega_probe_cm=system.omega21_cm,
            omega_coupling_cm=system.omega32_cm,
            power_probe_w=las_sec.quantity("power_probe", POWER_W,
                                           required=True),
            power_coupling_w=las_sec.quantity("power_coupling", POWER_W,
                                              required=True),
            waist_probe_m=las_sec.quantity("waist_probe", LENGTH_M,
                                           required=True),
            waist_coupling_m=las_sec.quantity("waist_coupling", LENGTH_M,
                                              required=True),
        )
    las_sec.reject_unknown()

    ens_sec = section("ensemble")
    geometry = ens_sec.word("geometry",
                            {COUNTER_PROPAGATING, CO_PROPAGATING},
                            default=COUNTER_PROPAGATING)
    temp = ens_sec.quantity("temperature", TEMPERATURE_K)
    mass = ens_sec.quantity("mass", MASS_AMU)
    fwhm = ens_sec.quantity("doppler_fwhm", FREQUENCY_MHZ)
    with _rejected_as_key(path, "ensemble", _ENSEMBLE_KEYS):
        if fwhm is not None:  # a measured width overrides the thermal one
            ensemble = Ensemble.from_doppler_fwhm(fwhm, system.omega21_cm,
                                                  geometry)
        elif temp is not None and mass is not None:
            ensemble = Ensemble(temperature_k=temp, mass_amu=mass,
                                geometry=geometry)
        elif temp is not None or mass is not None:
            raise ValidationError(
                f"{path}: [ensemble] needs both 'temperature' and 'mass'"
                " (or a 'doppler_fwhm')")
        else:
            ensemble = None
    ens_sec.reject_unknown()

    scan_sec = section("scan")
    d1_min = scan_sec.quantity("delta1_min", FREQUENCY_MHZ, required=True)
    d1_max = scan_sec.quantity("delta1_max", FREQUENCY_MHZ, required=True)
    points = scan_sec.integer("delta1_points", required=True)
    _require_finite(path, "scan", delta1_min=d1_min, delta1_max=d1_max)
    doppler_on = scan_sec.flag("doppler", default=True)
    if doppler_on and ensemble is None:
        raise ValidationError(
            f"{path}: [scan] doppler = on requires an [ensemble] section")
    with _rejected_as_key(path, "scan", _SCAN_KEYS):
        scan = ScanConfig(
            delta1_mhz=np.linspace(d1_min, d1_max, points),
            delta2_mhz=scan_sec.quantity("delta2", FREQUENCY_MHZ,
                                         required=True),
            channels=scan_sec.words("channels", default=(RHO22, RHO33)),
            doppler_on=doppler_on,
            m_sum_on=scan_sec.flag("m_sum", default=True),
            engine=scan_sec.word("engine", {ENGINE_ANALYTIC, ENGINE_ORACLE},
                                 default=ENGINE_ANALYTIC),
            feature_resolution_mhz=scan_sec.quantity("feature_resolution",
                                                     FREQUENCY_MHZ),
        )
    scan_sec.reject_unknown()

    quad_sec = section("quadrature")
    quad_sec.word("scheme", {TRAPEZOID}, default=TRAPEZOID)  # the only rule
    with _rejected_as_key(path, "quadrature", _QUADRATURE_KEYS):
        quadrature = QuadratureSpec(
            node_count=quad_sec.integer("nodes", default=4001),
            span=quad_sec.number("span", default=4.0),
            refinement_tolerance=quad_sec.number("refinement_tolerance",
                                                 default=1e-4),
        )
    quad_sec.reject_unknown()

    fit_settings = None
    if "fit" in sections:
        fit_sec = section("fit")
        free = fit_sec.words("free")
        if not free:
            raise ValidationError(
                f"{path}: [fit] section requires a 'free' key")
        init = {}
        bounds = {}
        for name in free:
            init[name] = _fit_param_value(fit_sec, f"{name}_init", name, path)
            lo = _fit_param_value(fit_sec, f"{name}_min", name, path)
            hi = _fit_param_value(fit_sec, f"{name}_max", name, path)
            bounds[name] = (lo, hi)
        fit_settings = FitSettings(
            channel=fit_sec.word("channel", {RHO22, RHO33}, default=RHO33),
            free=free,
            init=init,
            bounds=bounds,
            data_abscissa=fit_sec.word(
                "data_abscissa", {"detuning_MHz", "wavenumber_cm-1"},
                default="detuning_MHz"),
            max_evaluations=fit_sec.integer("max_evaluations", default=2000),
        )
        fit_sec.reject_unknown()

    out_sec = section("output")
    output = OutputSettings(
        directory=out_sec.word("dir", default="out"),
        basename=out_sec.word("basename", default="spectrum"),
    )
    out_sec.reject_unknown()

    return RunConfig(
        system=system,
        lasers=lasers,
        ensemble=ensemble,
        scan=scan,
        quadrature=quadrature,
        mu_probe_au=mu_probe,
        mu_coupling_au=mu_coupling,
        fit=fit_settings,
        output=output,
        source=path,
    )


def _fit_param_value(sec, key, name, path):
    """Fit parameters are unit-suffixed for physical quantities, bare for
    amplitude_scale and baseline_offset."""
    if name == "mu_coupling":
        v = sec.quantity(key, DIPOLE_AU, required=True)
    elif name.startswith("gamma"):
        v = sec.quantity(key, FREQUENCY_MHZ, required=True)
    else:
        v = sec.number(key, required=True)
    return v


# --- measured data ------------------------------------------------------------

def load_spectrum(path, abscissa="detuning_MHz",
                  resonance_cm=None) -> MeasuredSpectrum:
    """Read a 2- or 3-column trace: abscissa, signal[, uncertainty].

    Absolute-wavenumber abscissas are converted to probe detuning against
    ``resonance_cm``.  Descending rows are re-sorted ascending and flagged.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) not in (2, 3):
                raise ParseError(
                    f"expected 2 or 3 columns, got {len(parts)}",
                    path, lineno, 1)
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path,
                                 lineno, 1) from exc
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ParseError("inconsistent column count", path)
    data = np.asarray(rows, float)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite values in data")

    x = data[:, 0]
    if abscissa == "wavenumber_cm-1":
        if resonance_cm is None:
            raise ValidationError(
                "wavenumber abscissa requires the resonance wavenumber")
        x = (x - resonance_cm) * WAVENUMBER_TO_MHZ
    elif abscissa != "detuning_MHz":
        raise ValidationError(f"unknown abscissa kind {abscissa!r}")

    resorted = False
    order = np.argsort(x, kind="stable")
    if not np.array_equal(order, np.arange(x.size)):
        resorted = True
    x = x[order]
    if np.any(np.diff(x) <= 0):
        raise ValidationError(f"{path}: abscissa has duplicate points")
    return MeasuredSpectrum(
        delta1_mhz=x,
        signal=data[order, 1],
        sigma=data[order, 2] if ncols == 3 else None,
        metadata={"source": str(path), "resorted": resorted,
                  "abscissa": abscissa},
    )


# --- presets -------------------------------------------------------------------

def available_presets():
    root = resources.files("eitmol").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def _preset_text(name: str) -> str:
    return resources.files("eitmol").joinpath(
        f"presets/{name}.cfg").read_text("utf-8")


def preset_config(name: str) -> RunConfig:
    return parse_config(_preset_text(name), f"<preset:{name}>")
