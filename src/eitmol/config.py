"""Declarative run configuration and experimental data ingestion.

Config files are flat sectioned ``key = value`` text.  Every physical value
carries an explicit unit suffix (``omega21 = 15642.636 cm-1``); parsing is
strict: unknown sections or keys, missing required keys, wrong unit
dimensions and values outside a key's domain are all hard errors that name
the offender.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from math import inf

import numpy as np

from .doppler import (
    CO_PROPAGATING,
    COUNTER_PROPAGATING,
    MAX_SPAN,
    Ensemble,
    QuadratureSpec,
)
from .errors import ParseError, UnitError, ValidationError
from .fitting import FIT_PARAMETERS, FitProblem
from .spectrum import ENGINE_ANALYTIC, ENGINE_ORACLE, RHO33, SIGNALS, ScanConfig
from .sublevels import branch_factor
from .system import CascadeSystem, LaserPair
from .units import (
    ANGULAR_MRADS,
    DIPOLE_AU,
    FREQUENCY_MHZ,
    LENGTH_M,
    MASS_AMU,
    POWER_W,
    TEMPERATURE_K,
    WAVENUMBER_CM,
    angular_from_mhz,
    field_amplitude,
    parse_quantity,
    rabi_frequency,
)
from .constants import WAVENUMBER_TO_MHZ

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
    data_abscissa: str   # "detuning_MHz" or "wavenumber_cm-1"
    max_evaluations: int


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    basename: str


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

@contextmanager
def _utf8(path):
    """Re-raise a UnicodeDecodeError of the block as a ParseError.

    The readers open files as ``utf-8-sig``, which skips a leading byte
    order mark and is UTF-8 otherwise."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path) from exc


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


# the values a numeric key accepts besides being finite: (wording, test)
_FINITE = ("finite", lambda v: True)
_NONNEGATIVE = (">= 0", lambda v: v >= 0.0)
_POSITIVE = ("> 0", lambda v: v > 0.0)
_FRACTION = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_SPAN = (f"in (0, {MAX_SPAN:.4g}], beyond which the weight exp(-span^2)"
         " underflows to 0", lambda v: 0.0 < v <= MAX_SPAN)
# The engine multiplies up to four rates (D G3 in rho33, the denominators of
# the Doppler pole weights), which overflows a float near 1e77 Mrad/s; above
# 5e102 Mrad/s even D, three rates, raises OverflowError.  Rates and decay
# rates 1/tau are capped at 1e75 Mrad/s: far above any physical rate, and
# every one-key edit of the presets up to the cap runs without overflow.
_MAX_RATE = 1e75
_RATE = (f"in [0, {_MAX_RATE:g}] Mrad/s", lambda v: 0.0 <= v <= _MAX_RATE)
_RATE_MHZ = (_RATE[0], lambda v: 0.0 <= angular_from_mhz(v) <= _MAX_RATE)
# a lifetime is read as its decay rate 1/tau, which must be a positive rate
_DECAY_RATE = (f"a lifetime with a decay rate 1/tau in (0, {_MAX_RATE:g}]"
               " Mrad/s", lambda v: 0.0 < v <= _MAX_RATE)
# A Rabi frequency mu E / hbar enters the populations as g^2 and g1^2 g2^2,
# next to the rates, and gets their cap: with one beam or both at it,
# li2_fig3a, li2_fig4 and li2_fig6b run on either engine, Doppler on or off,
# without overflow; at 1e100 Mrad/s for both beams the engine overflows.
_RABI = f"must give a Rabi frequency mu E / hbar of at most {_MAX_RATE:g}" \
    " Mrad/s"


def _rabi_excess(mu_au, field):
    """|mu E / hbar| in Mrad/s if it exceeds the cap, else 0."""
    g = abs(rabi_frequency(mu_au, field))
    return 0.0 if g <= _MAX_RATE else g


class _Section:
    """Typed accessors over one parsed section with strict key accounting.

    Each getter checks the domain of its key, so a bad value is reported
    under the key it was read from.
    """

    def __init__(self, name, entries, path):
        self.name = name
        self.entries = entries
        self.path = path
        self.seen = set()

    def error(self, message, *keys):
        """A ValidationError naming ``keys``; a single key that the file
        gives with its line."""
        where = (f"{self.path}:{self.entries[keys[0]][1]}: key '{keys[0]}'"
                 if len(keys) == 1 and keys[0] in self.entries else
                 f"{self.path}: [{self.name}] {', '.join(keys)}")
        return ValidationError(f"{where}: {message}")

    @contextmanager
    def blame(self, *keys):
        """Re-raise a ValueError, MemoryError or ArithmeticError (overflow,
        division by zero) of the block as an ``error`` naming ``keys``."""
        try:
            yield
        except ValueError as exc:
            raise self.error(str(exc), *keys) from exc
        except MemoryError as exc:
            raise self.error(f"need more memory than can be allocated ({exc})",
                             *keys) from exc
        except ArithmeticError as exc:
            raise self.error(f"give no finite value ({type(exc).__name__}:"
                             f" {exc})", *keys) from exc

    def _raw(self, key, required=False):
        if key in self.entries:
            self.seen.add(key)
            return self.entries[key][0]
        if required:
            raise ValidationError(f"{self.path}: missing required key '{key}'"
                                  f" in section [{self.name}]")

    def _within(self, key, value, domain):
        """``value`` if it is finite and in ``domain``, else an error."""
        wording, test = domain
        finite = abs(value) < inf
        if not (finite and test(value)):
            raise self.error(f"must be {wording if finite else 'finite'},"
                             f" got {self.entries[key][0]!r}", key)
        return value

    def quantity(self, key, unit, domain=_FINITE, required=False,
                 default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            value = parse_quantity(raw, unit)
        except UnitError as exc:
            line = self.entries[key][1]
            raise UnitError(f"{self.path}:{line}: key '{key}': {exc}") from exc
        return self._within(key, value, domain)

    def number(self, key, domain=_FINITE, required=False, default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise self.error(f"must be a bare number, got {raw!r}",
                             key) from exc
        return self._within(key, value, domain)

    def integer(self, key, minimum, odd=False, required=False, default=None):
        """An integer >= ``minimum``, odd if ``odd``."""
        v = self.number(key, required=required)
        if v is None:
            return default
        if not (v.is_integer() and v >= minimum and (v % 2 == 1 or not odd)):
            kind = "an odd integer" if odd else "an integer"
            raise self.error(f"must be {kind} >= {minimum}, got"
                             f" {self.entries[key][0]!r}", key)
        return int(v)

    def word(self, key, choices=None, required=False, default=None):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        if choices is not None and raw not in choices:
            raise self.error(
                f"must be one of {sorted(choices)}, got {raw!r}", key)
        return raw

    def words(self, key, choices, required=False, default=None):
        """Distinct words out of ``choices``, space or comma separated."""
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        words = tuple(raw.replace(",", " ").split())
        if not 0 < len(set(words) & set(choices)) == len(words):
            raise self.error(f"must list distinct words of {sorted(choices)},"
                             f" got {raw!r}", key)
        return words

    def flag(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        raise self.error(f"must be on/off, got {raw!r}", key)

    def reject_unknown(self):
        for key in sorted(set(self.entries) - self.seen):
            if (self.name, key) in _REMOVED:
                raise self.error(_REMOVED[self.name, key], key)
            line = self.entries[key][1]
            raise ValidationError(
                f"{self.path}:{line}: unknown key '{key}' in section"
                f" [{self.name}]")


# keys that were removed, and what replaces them
_REMOVED = {
    ("scan", "doppler"): "was removed: the scan is Doppler-averaged exactly"
    " when [ensemble] is given, and a Doppler-free scan drops [ensemble] and"
    " [quadrature]",
    ("quadrature", "scheme"): "was removed: the engine chooses the rule, and"
    " the output reports it as quadrature.scheme",
    ("scan", "feature_resolution"): "was removed: delta1_min, delta1_max and"
    " delta1_points set the grid spacing",
    **{("system", key): "was removed: the J pair fixes the branch, P for"
       " J -> J-1 and Q for J -> J"
       for key in ("branch_probe", "branch_coupling")},
}

_KNOWN_SECTIONS = {"system", "lasers", "ensemble", "scan", "quadrature",
                   "fit", "output"}


def load_config(path_or_preset) -> RunConfig:
    """Load and validate a config file; bare preset names are also accepted."""
    import os

    path = str(path_or_preset)
    if os.path.exists(path):
        with _utf8(path), open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        return parse_config(text, path)
    if path not in available_presets():
        raise FileNotFoundError(
            f"no such config file or preset: {path!r}"
            f" (presets: {', '.join(available_presets())})")
    return parse_config(_preset_text(path), path)


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
    levels = {key: sys_sec.integer(key, 0, required=True)
              for key in ("J1", "J2", "J3")}
    for lower, upper in (("J1", "J2"), ("J2", "J3")):
        with sys_sec.blame(lower, upper):  # the selection rule, J >= 1 for Q
            branch_factor(levels[lower], levels[upper], 0)
    # rates quoted in cyclic MHz pick up their 2*pi here, once
    system = CascadeSystem(
        **{f"{key}_cm": sys_sec.quantity(key, WAVENUMBER_CM, _POSITIVE,
                                         required=True)
           for key in ("omega21", "omega32")},
        gamma2=sys_sec.quantity("tau2", ANGULAR_MRADS, _DECAY_RATE,
                                required=True),
        gamma3=sys_sec.quantity("tau3", ANGULAR_MRADS, _DECAY_RATE,
                                required=True),
        b2=sys_sec.number("b2", _FRACTION, required=True),
        b3=sys_sec.number("b3", _FRACTION, required=True),
        # an absent refill_rate is the system's default: the transit rate
        **{key: sys_sec.quantity(key, ANGULAR_MRADS, _RATE,
                                 default=getattr(CascadeSystem, key))
           for key in ("gamma12_col", "gamma13_col", "gamma23_col",
                       "transit_rate", "refill_rate")},
        **levels,
    )
    mu_probe = sys_sec.quantity("mu_probe", DIPOLE_AU, required=True)
    mu_coupling = sys_sec.quantity("mu_coupling", DIPOLE_AU, required=True)
    sys_sec.reject_unknown()

    las_sec = section("lasers")
    beams = {}
    for beam, mu in (("probe", mu_probe), ("coupling", mu_coupling)):
        power = las_sec.quantity(f"power_{beam}", POWER_W, _NONNEGATIVE,
                                 required=True)
        waist = las_sec.quantity(f"waist_{beam}", LENGTH_M, _POSITIVE,
                                 required=True)
        with las_sec.blame(f"power_{beam}", f"waist_{beam}"):
            field = field_amplitude(power, waist)
        g = _rabi_excess(mu, field)
        if g:
            raise ValidationError(
                f"{path}: [system] mu_{beam}, [lasers] power_{beam},"
                f" waist_{beam}: {_RABI}, got {g:g} Mrad/s")
        beams[f"power_{beam}_w"], beams[f"waist_{beam}_m"] = power, waist
    lasers = LaserPair(**beams)
    las_sec.reject_unknown()

    ens_sec = section("ensemble")
    geometry = ens_sec.word("geometry",
                            {COUNTER_PROPAGATING, CO_PROPAGATING},
                            default=Ensemble.geometry)
    temp = ens_sec.quantity("temperature", TEMPERATURE_K, _POSITIVE)
    mass = ens_sec.quantity("mass", MASS_AMU, _POSITIVE)
    fwhm = ens_sec.quantity("doppler_fwhm", FREQUENCY_MHZ, _POSITIVE)
    ensemble = None
    if fwhm is not None:  # a measured width replaces the thermal one
        if temp is not None or mass is not None:
            raise ens_sec.error("a doppler_fwhm replaces the temperature and"
                                " mass: give one or the other", "temperature",
                                "mass", "doppler_fwhm")
        with ens_sec.blame("doppler_fwhm"):
            ensemble = Ensemble.from_doppler_fwhm(fwhm, system.omega21_cm,
                                                  geometry)
    elif temp is not None and mass is not None:
        with ens_sec.blame("temperature", "mass"):
            ensemble = Ensemble(temperature_k=temp, mass_amu=mass,
                                geometry=geometry)
    elif temp is not None or mass is not None:
        raise ens_sec.error("need each other (or a doppler_fwhm)",
                            "temperature", "mass")
    elif "ensemble" in sections:
        raise ens_sec.error("give a temperature and mass, or a doppler_fwhm",
                            "temperature", "mass", "doppler_fwhm")
    ens_sec.reject_unknown()

    scan_sec = section("scan")
    d1_min = scan_sec.quantity("delta1_min", FREQUENCY_MHZ, required=True)
    d1_max = scan_sec.quantity("delta1_max", FREQUENCY_MHZ, required=True)
    points = scan_sec.integer("delta1_points", 2, required=True)
    if not 0.0 < d1_max - d1_min < inf:
        raise scan_sec.error("delta1_max - delta1_min must be finite and"
                             " > 0", "delta1_min", "delta1_max")
    delta2 = scan_sec.quantity("delta2", FREQUENCY_MHZ, required=True)
    # each laser, at its transition plus its detuning, must have a positive
    # frequency over the whole scan: the Doppler shifts are proportional to it
    for key, detuning, omega in (("delta1_min", d1_min, "omega21"),
                                 ("delta2", delta2, "omega32")):
        laser = getattr(system, f"{omega}_angular") \
            + angular_from_mhz(detuning)
        if not laser > 0.0:
            raise ValidationError(
                f"{path}: [scan] {key}, [system] {omega}: the laser"
                f" frequency {omega} + {key} must be > 0, got {laser:g}"
                " Mrad/s")
    channels = scan_sec.words("channels", SIGNALS, default=ScanConfig.channels)
    m_sum_on = scan_sec.flag("m_sum", default=ScanConfig.m_sum_on)
    engine = scan_sec.word("engine", {ENGINE_ANALYTIC, ENGINE_ORACLE},
                           default=ScanConfig.engine)
    # the other ScanConfig inputs are checked above, so what fails here is
    # the grid: its allocation or its float resolution
    with scan_sec.blame("delta1_min", "delta1_max", "delta1_points"):
        scan = ScanConfig(
            delta1_mhz=np.linspace(d1_min, d1_max, points),
            delta2_mhz=delta2, channels=channels,
            doppler_on=ensemble is not None, m_sum_on=m_sum_on, engine=engine)
    scan_sec.reject_unknown()

    quad_sec = section("quadrature")
    if ensemble is None and quad_sec.entries:
        raise quad_sec.error("needs an [ensemble] section: a Doppler-free scan"
                             " has no velocity average", min(quad_sec.entries))
    quadrature = QuadratureSpec(
        node_count=quad_sec.integer("nodes", 51, odd=True,
                                    default=QuadratureSpec.node_count),
        span=quad_sec.number("span", _SPAN, default=QuadratureSpec.span),
        refinement_tolerance=quad_sec.number(
            "refinement_tolerance", _POSITIVE,
            default=QuadratureSpec.refinement_tolerance),
    )
    quad_sec.reject_unknown()

    fit_settings = None
    if "fit" in sections:
        fit_sec = section("fit")
        free = fit_sec.words("free", FIT_PARAMETERS, required=True)
        init = {}
        bounds = {}
        for name in free:
            keys = (f"{name}_init", f"{name}_min", f"{name}_max")
            init[name], lo, hi = (_fit_param_value(fit_sec, key, name)
                                  for key in keys)
            if not lo < hi:
                raise fit_sec.error("the minimum must be below the maximum",
                                    *keys[1:])
            if not lo <= init[name] <= hi:
                raise fit_sec.error("the initial value must lie within the"
                                    " bounds", *keys)
            for key, mu in zip(keys[1:], (lo, hi)):
                g = name == "mu_coupling" and \
                    _rabi_excess(mu, lasers.field_coupling)
                if g:
                    raise fit_sec.error(f"{_RABI} in the coupling beam, got"
                                        f" {g:g} Mrad/s", key)
            bounds[name] = (lo, hi)
        fit_settings = FitSettings(
            channel=fit_sec.word("channel", SIGNALS, default=RHO33),
            free=free,
            init=init,
            bounds=bounds,
            data_abscissa=fit_sec.word(
                "data_abscissa", {"detuning_MHz", "wavenumber_cm-1"},
                default="detuning_MHz"),
            max_evaluations=fit_sec.integer(
                "max_evaluations", 1, default=FitProblem.max_evaluations),
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


def _fit_param_value(sec, key, name):
    """Fit parameters are unit-suffixed for physical quantities, bare for
    amplitude_scale and baseline_offset; a dephasing is a rate."""
    if name == "mu_coupling":
        return sec.quantity(key, DIPOLE_AU, required=True)
    if name.startswith("gamma"):
        return sec.quantity(key, FREQUENCY_MHZ, _RATE_MHZ, required=True)
    return sec.number(key, required=True)


# --- measured data ------------------------------------------------------------

def load_spectrum(path, abscissa="detuning_MHz",
                  resonance_cm=None) -> MeasuredSpectrum:
    """Read a 2- or 3-column trace: abscissa, signal[, uncertainty].

    Absolute-wavenumber abscissas are converted to probe detuning against
    ``resonance_cm``.  Descending rows are re-sorted ascending and flagged.
    The uncertainty is the 1-sigma error of the signal and must be positive.
    """
    rows = []
    with _utf8(path), open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) not in (2, 3):
                raise ParseError(
                    f"expected 2 or 3 columns, got {len(parts)}",
                    path, lineno, 1)
            if rows and len(parts) != len(rows[0]):
                raise ParseError(f"expected {len(rows[0])} columns as in the"
                                 f" first row, got {len(parts)}", path,
                                 lineno, 1)
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path,
                                 lineno, 1) from exc
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    ncols = len(rows[0])
    data = np.asarray(rows, float)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite values in data")
    if ncols == 3 and not np.all(data[:, 2] > 0.0):
        raise ValidationError(f"{path}: uncertainties must be positive")

    x = data[:, 0]
    if abscissa == "wavenumber_cm-1":
        if resonance_cm is None:
            raise ValidationError(
                "wavenumber abscissa requires the resonance wavenumber")
        x = (x - resonance_cm) * WAVENUMBER_TO_MHZ
    elif abscissa != "detuning_MHz":
        raise ValidationError(f"unknown abscissa kind {abscissa!r}")

    order = np.argsort(x, kind="stable")
    resorted = not np.array_equal(order, np.arange(x.size))
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
