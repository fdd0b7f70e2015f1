"""Unit bookkeeping for the mixed conventions of cw spectroscopy.

Everything downstream of the parsing layer computes in one canonical unit:
angular frequency in Mrad/s, for all rates, detunings and Rabi frequencies.
This module holds the one table of unit suffixes, and its rules are
deliberately rigid:

* a value converts within its dimension by the ratio of the two unit sizes,
  so a value already in the target unit is read exactly as written.
* wavenumbers (cm^-1), cyclic frequencies (MHz) and angular frequencies
  (Mrad/s) form one frequency dimension; MHz -> Mrad/s multiplies by 2*pi.
* a lifetime converts to a decay rate as gamma = 1/tau (*not* 1/(2*pi*tau)):
  18 ns -> 55.5556 Mrad/s.  Quoted cyclic rates ("2 MHz transit") instead go
  through the 2*pi boundary conversion.  Mixing up the two is the classic
  silent-2*pi bug this module exists to prevent.
"""

from math import inf, pi, sqrt

from .constants import (
    DIPOLE_AU_CM,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    WAVENUMBER_TO_MHZ,
)
from .errors import UnitError

WAVENUMBER_CM = "cm-1"
FREQUENCY_MHZ = "MHz"
ANGULAR_MRADS = "Mrad/s"
TIME_NS = "ns"
DIPOLE_AU = "au"
POWER_W = "W"
LENGTH_M = "m"
TEMPERATURE_K = "K"
MASS_AMU = "amu"

# unit suffix -> (dimension, size in the dimension's reference unit:
# MHz, ns, au, W, m, K, amu)
_UNITS = {
    WAVENUMBER_CM: ("frequency", WAVENUMBER_TO_MHZ),
    "GHz": ("frequency", 1e3),
    FREQUENCY_MHZ: ("frequency", 1.0),
    "kHz": ("frequency", 1e-3),
    ANGULAR_MRADS: ("frequency", 1.0 / (2.0 * pi)),
    TIME_NS: ("time", 1.0),
    "us": ("time", 1e3),
    DIPOLE_AU: ("dipole", 1.0),
    "a.u.": ("dipole", 1.0),
    POWER_W: ("power", 1.0),
    "mW": ("power", 1e-3),
    "uW": ("power", 1e-6),
    LENGTH_M: ("length", 1.0),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    TEMPERATURE_K: ("temperature", 1.0),
    MASS_AMU: ("mass", 1.0),
}

# the units a lifetime and its decay rate gamma = 1/tau meet in:
# 1/ns = 1000 Mrad/s
_RECIPROCAL = {"time": 1.0, "frequency": _UNITS[ANGULAR_MRADS][1]}


def parse_quantity(text: str, unit: str) -> float:
    """'480 mW', 'W' -> 0.48: the value times the ratio of the two unit
    sizes, so a value in ``unit`` itself is returned as written.

    A lifetime reads as a decay rate and back through gamma = 1/tau.  A
    malformed value, an unknown suffix or one of another dimension is a
    UnitError; a NaN is returned as it is, for the caller's domain check.
    """
    parts = text.split()
    if len(parts) != 2:
        raise UnitError(f"expected '<number> <unit>', got {text!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise UnitError(f"bad numeric value in {text!r}") from exc
    if parts[1] not in _UNITS:
        raise UnitError(f"unknown unit suffix {parts[1]!r} in {text!r}")
    dim, size = _UNITS[parts[1]]
    target_dim, target_size = _UNITS[unit]
    if dim != target_dim:
        if {dim, target_dim} != set(_RECIPROCAL):
            raise UnitError(f"must carry a unit compatible with {unit},"
                            f" got {text!r}")
        value *= size / _RECIPROCAL[dim]
        if value == 0.0:
            raise UnitError(f"zero has no reciprocal in {unit}, got {text!r}")
        value, size = 1e3 / value, _RECIPROCAL[target_dim]
    return value * (size / target_size)


def field_amplitude(power_w: float, waist_m: float) -> float:
    """Peak on-axis field (V/m) of a Gaussian beam of power P and 1/e^2 waist w0.

    I0 = 2P/(pi w0^2), E0 = sqrt(2 I0 / (eps0 c)).  A field that overflows,
    or comes out 0 for P > 0, is a ValueError.
    """
    if waist_m <= 0.0:
        raise ValueError(f"waist must be > 0, got {waist_m}")
    if power_w < 0.0:
        raise ValueError(f"power must be >= 0, got {power_w}")
    intensity = 2.0 * power_w / (pi * waist_m**2)
    field = sqrt(2.0 * intensity / (VACUUM_PERMITTIVITY * SPEED_OF_LIGHT))
    if not (field < inf and (field > 0.0 or power_w == 0.0)):
        raise ValueError(f"beam field must be finite and > 0, got {field} V/m")
    return field


# small shims used throughout the engine (all return canonical Mrad/s or SI)

def angular_from_mhz(value_mhz):
    return 2.0 * pi * value_mhz


def angular_from_wavenumber(sigma_cm: float) -> float:
    return 2.0 * pi * WAVENUMBER_TO_MHZ * sigma_cm


def rabi_frequency(mu_au: float, field_vm: float) -> float:
    """Rabi frequency mu*E/hbar in Mrad/s for a dipole in atomic units."""
    return mu_au * DIPOLE_AU_CM * field_vm / HBAR / 1e6
