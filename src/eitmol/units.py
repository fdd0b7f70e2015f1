"""Unit bookkeeping for the mixed conventions of cw spectroscopy.

Everything downstream of the parsing layer computes in one canonical unit:
angular frequency in Mrad/s, for all rates, detunings and Rabi frequencies.
The conversion rules are deliberately rigid:

* wavenumbers (cm^-1), cyclic frequencies (MHz) and angular frequencies
  (Mrad/s) form one "spectroscopic" family; MHz -> Mrad/s multiplies by 2*pi.
* a lifetime converts to a decay rate as gamma = 1/tau (*not* 1/(2*pi*tau)):
  18 ns -> 55.5556 Mrad/s.  Quoted cyclic rates ("2 MHz transit") instead go
  through the 2*pi boundary conversion.  Mixing up the two is the classic
  silent-2*pi bug this module exists to prevent.
"""

from dataclasses import dataclass
from math import inf, pi, sqrt

from .constants import (
    DIPOLE_AU_CM,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    WAVENUMBER_TO_MHZ,
)
from .errors import IncompatibleDimensions, NonPositiveWaist

WAVENUMBER_CM = "cm-1"
FREQUENCY_MHZ = "MHz"
ANGULAR_MRADS = "Mrad/s"
TIME_NS = "ns"
DIPOLE_AU = "au"
DIPOLE_CM = "C*m"
POWER_W = "W"
LENGTH_M = "m"
TEMPERATURE_K = "K"
MASS_AMU = "amu"
FIELD_VM = "V/m"

# factor to the canonical unit of each dimension
_CANONICAL = {
    WAVENUMBER_CM: ("spectroscopic", 2.0 * pi * WAVENUMBER_TO_MHZ),
    FREQUENCY_MHZ: ("spectroscopic", 2.0 * pi),
    ANGULAR_MRADS: ("spectroscopic", 1.0),
    TIME_NS: ("time", 1.0),
    DIPOLE_AU: ("dipole", DIPOLE_AU_CM),
    DIPOLE_CM: ("dipole", 1.0),
    POWER_W: ("power", 1.0),
    LENGTH_M: ("length", 1.0),
    TEMPERATURE_K: ("temperature", 1.0),
    MASS_AMU: ("mass", 1.0),
    FIELD_VM: ("field", 1.0),
}


@dataclass(frozen=True)
class Quantity:
    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in _CANONICAL:
            raise IncompatibleDimensions(f"unknown unit {self.unit!r}")
        if self.value != self.value:  # NaN
            raise ValueError("quantity value is NaN")


def convert(q: Quantity, target_unit: str) -> Quantity:
    """Convert ``q`` to ``target_unit``, rejecting incompatible dimensions.

    A lifetime (ns) converts to the spectroscopic family and back through
    the reciprocal rate gamma = 1/tau expressed in Mrad/s.
    """
    if target_unit not in _CANONICAL:
        raise IncompatibleDimensions(f"unknown unit {target_unit!r}")
    src_dim, src_f = _CANONICAL[q.unit]
    tgt_dim, tgt_f = _CANONICAL[target_unit]
    if src_dim == tgt_dim:
        return Quantity(q.value * src_f / tgt_f, target_unit)
    if src_dim == "time" and tgt_dim == "spectroscopic":
        if q.value == 0.0:
            raise ValueError("cannot convert zero lifetime to a rate")
        return Quantity(1e3 / q.value / tgt_f, target_unit)  # 1/ns = 1000 Mrad/s
    if src_dim == "spectroscopic" and tgt_dim == "time":
        rate = q.value * src_f
        if rate == 0.0:
            raise ValueError("cannot convert zero rate to a lifetime")
        return Quantity(1e3 / rate, target_unit)
    raise IncompatibleDimensions(f"cannot convert {q.unit} to {target_unit}")


def field_amplitude(power_w: float, waist_m: float) -> float:
    """Peak on-axis field (V/m) of a Gaussian beam of power P and 1/e^2 waist w0.

    I0 = 2P/(pi w0^2), E0 = sqrt(2 I0 / (eps0 c)).  A field that overflows,
    or comes out 0 for P > 0, is a ValueError.
    """
    if waist_m <= 0.0:
        raise NonPositiveWaist(f"waist must be > 0, got {waist_m}")
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


def rate_from_lifetime_ns(tau_ns: float) -> float:
    if not 0.0 < tau_ns < inf:
        raise ValueError(f"lifetime must be finite and > 0, got {tau_ns}")
    return 1e3 / tau_ns


def rabi_frequency(mu_au: float, field_vm: float) -> float:
    """Rabi frequency mu*E/hbar in Mrad/s for a dipole in atomic units."""
    return mu_au * DIPOLE_AU_CM * field_vm / HBAR / 1e6
