"""Parameter structures for the open three-level cascade system.

Level scheme: ground |1> -- probe --> intermediate |2> -- coupling --> upper
|3>.  Both excited levels decay radiatively at total rates gamma2, gamma3;
only the fractions b2, b3 of those decays return to the next level down, so
the system is open.  A transit rate models molecules crossing the finite
beams, and the ground level is replenished at a constant rate, by default
the transit rate itself, so that the unperturbed ground population is 1.

All rates, detunings and Rabi frequencies are angular, in Mrad/s.
"""

from dataclasses import dataclass, field
from math import inf

from .units import angular_from_wavenumber, field_amplitude

_CLOSED_TOL = 1e-12


@dataclass(frozen=True)
class CascadeSystem:
    """Level energies, relaxation bookkeeping and rotational labels."""

    omega21_cm: float           # probe transition wavenumber, cm^-1
    omega32_cm: float           # coupling transition wavenumber, cm^-1
    gamma2: float               # total radiative decay of level 2, Mrad/s
    gamma3: float               # total radiative decay of level 3, Mrad/s
    b2: float                   # branching ratio of level-2 decay back to 1
    b3: float                   # branching ratio of level-3 decay back to 2
    gamma12_col: float = 0.0    # collisional dephasing of the 2-1 coherence
    gamma13_col: float = 0.0
    gamma23_col: float = 0.0
    transit_rate: float = 0.0   # beam-transit relaxation, Mrad/s
    refill_rate: float | None = None  # ground refill, Mrad/s; None: transit
    J1: int = 0
    J2: int = 0
    J3: int = 0
    branch_probe: str = "P"
    branch_coupling: str = "Q"

    def __post_init__(self):
        if self.refill_rate is None:
            object.__setattr__(self, "refill_rate", self.transit_rate)
        for name in ("omega21_cm", "omega32_cm"):
            if not 0.0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("gamma2", "gamma3", "transit_rate", "refill_rate",
                     "gamma12_col", "gamma13_col", "gamma23_col"):
            if not 0.0 <= getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("b2", "b3"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # the R branch has no line-strength formula
        for name in ("branch_probe", "branch_coupling"):
            if getattr(self, name) not in ("P", "Q"):
                raise ValueError(f"{name} must be P or Q")

    # population feed rates, always derived, never stored
    @property
    def W21(self) -> float:
        return self.b2 * self.gamma2

    @property
    def W32(self) -> float:
        return self.b3 * self.gamma3

    # polarization decay rates: half the summed population rates out of the
    # pair of levels, plus the collisional dephasing contribution.  Level 1
    # has no radiative decay; transit loss is added separately where needed.
    @property
    def gamma21(self) -> float:
        return 0.5 * self.gamma2 + self.gamma12_col

    @property
    def gamma31(self) -> float:
        return 0.5 * self.gamma3 + self.gamma13_col

    @property
    def gamma32(self) -> float:
        return 0.5 * (self.gamma2 + self.gamma3) + self.gamma23_col

    @property
    def rho11_init(self) -> float:
        """Ground population with the probe off: refill/transit."""
        if self.transit_rate <= 0.0:
            return 1.0
        return self.refill_rate / self.transit_rate

    @property
    def is_closed(self) -> bool:
        """True when decay from level 3 exactly feeds all level-3 loss."""
        scale = max(self.gamma3 + self.transit_rate, 1.0)
        return abs(self.W32 - (self.gamma3 + self.transit_rate)) <= _CLOSED_TOL * scale

    @property
    def omega21_angular(self) -> float:
        return angular_from_wavenumber(self.omega21_cm)

    @property
    def omega32_angular(self) -> float:
        return angular_from_wavenumber(self.omega32_cm)


@dataclass(frozen=True)
class LaserPair:
    """Probe/coupling beam powers and waists; the laser frequencies are the
    system's transitions plus the scan detunings."""

    power_probe_w: float = 0.0
    power_coupling_w: float = 0.0
    waist_probe_m: float = 1e-4
    waist_coupling_m: float = 1e-4

    def __post_init__(self):
        for name in ("power_probe_w", "power_coupling_w"):
            if not 0.0 <= getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("waist_probe_m", "waist_coupling_m"):
            if not 0.0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def field_probe(self) -> float:
        return field_amplitude(self.power_probe_w, self.waist_probe_m)

    @property
    def field_coupling(self) -> float:
        return field_amplitude(self.power_coupling_w, self.waist_coupling_m)


@dataclass(frozen=True)
class DriveParams:
    """Fields and effective detunings seen by one molecule / one channel;
    the unperturbed ground population is the system's ``rho11_init``."""

    g1: float                 # probe Rabi frequency, Mrad/s
    g2: float                 # coupling Rabi frequency, Mrad/s
    delta1: float             # effective probe detuning, Mrad/s
    delta2: float             # effective coupling detuning, Mrad/s

    def __post_init__(self):
        if self.g1 < 0.0 or self.g2 < 0.0:
            raise ValueError("Rabi frequencies must be >= 0")
        for name in ("g1", "g2", "delta1", "delta2"):
            v = getattr(self, name)
            if v != v:
                raise ValueError(f"{name} is NaN")

    @classmethod
    def for_system(cls, sys: CascadeSystem, g1: float, g2: float,
                   delta1: float, delta2: float) -> "DriveParams":
        """``DriveParams(g1, g2, delta1, delta2)``: ``sys`` plays no part.
        Kept because the benchmark's own tests call it."""
        return cls(g1, g2, delta1, delta2)


@dataclass(frozen=True)
class DensityState:
    """Steady-state solution for one velocity class and one |M| channel."""

    rho11: float
    rho22: float
    rho33: float
    rho21: complex = field(default=0j)
    rho31: complex = field(default=0j)
    rho32: complex = field(default=0j)
