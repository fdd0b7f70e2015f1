"""Magnetic-sublevel decomposition of the rotational transitions.

Linearly polarized light drives Delta-M = 0 transitions only, so the
(2J+1)-fold degenerate cascade decomposes into independent three-level
ladders labeled by |M|.  Each ladder sees its own pair of Rabi frequencies

    g_i(|M|) = mu_vibronic * f(branch, J, M) * E_i / hbar

with the line-strength factors

    f_Q(J, M) = |M| / sqrt(J (J+1))                       (Q branch)
    f_P(J, M) = sqrt((J^2 - M^2) / ((2J+1)(2J-1)))        (P branch, J = lower-state J)

Zeros of the f factors encode the selection-rule decoupling: the edge
sublevels M = +-J of the lower state drop out of a P transition, and M = 0
drops out of a Q transition.
"""

from dataclasses import dataclass
from math import sqrt

from .system import CascadeSystem, branch
from .units import rabi_frequency


def line_strength_Q(J: int, M: int) -> float:
    """Q-branch (Delta J = 0) line-strength factor for linear polarization."""
    if J < 1:
        raise ValueError(f"Q branch needs J >= 1, got {J}")
    if abs(M) > J:
        raise ValueError(f"|M| = {abs(M)} exceeds J = {J}")
    return abs(M) / sqrt(J * (J + 1))


def line_strength_P(J: int, M: int) -> float:
    """P-branch (Delta J = -1) factor; J is the larger, lower-state J."""
    if J < 1:
        raise ValueError(f"P branch needs J >= 1, got {J}")
    if abs(M) > J:
        raise ValueError(f"|M| = {abs(M)} exceeds J = {J}")
    return sqrt((J * J - M * M) / ((2 * J + 1) * (2 * J - 1)))


def branch_factor(j_lower: int, j_upper: int, M: int) -> float:
    """Line-strength factor of the transition j_lower -> j_upper, whose
    branch the J pair fixes; ValueError for a pair that is no P or Q."""
    line_strength = line_strength_P if branch(j_lower, j_upper) == "P" \
        else line_strength_Q
    return line_strength(j_lower, M) if abs(M) <= j_lower else 0.0


@dataclass(frozen=True)
class SublevelChannel:
    """One |M| ladder: line strengths and channel Rabi frequencies."""

    abs_m: int
    multiplicity: int        # 1 for M = 0, else 2 (+-|M|)
    f_probe: float
    f_coupling: float
    g1: float                # Mrad/s
    g2: float                # Mrad/s


@dataclass(frozen=True)
class ChannelSet:
    """All coupled |M| channels of one (J1, J2, J3) configuration."""

    channels: tuple
    g1_bare: float           # mu_probe E1 / hbar before the f factor
    g2_bare: float

    def __iter__(self):
        return iter(self.channels)

    def __len__(self):
        return len(self.channels)

    @property
    def probe_coupled_count(self) -> int:
        return sum(c.multiplicity for c in self.channels if c.f_probe > 0)

    @property
    def coupling_coupled_count(self) -> int:
        return sum(c.multiplicity for c in self.channels if c.f_coupling > 0)

    def channel(self, abs_m: int) -> SublevelChannel:
        for c in self.channels:
            if c.abs_m == abs_m:
                return c
        raise KeyError(f"no channel with |M| = {abs_m}")

    def with_coupling(self, g2_bare: float) -> "ChannelSet":
        """The same channels at the bare coupling Rabi frequency g2_bare:
        each g2 is f_coupling * g2_bare, formed as ``build_channels`` does."""
        # a list, not a generator: a fit calls this once per spectrum, and
        # a generator's frames cost it a fresh heap page about every round
        channels = [SublevelChannel(c.abs_m, c.multiplicity, c.f_probe,
                                    c.f_coupling, c.g1, c.f_coupling * g2_bare)
                    for c in self.channels]
        return ChannelSet(channels=tuple(channels), g1_bare=self.g1_bare,
                          g2_bare=g2_bare)

    def bare_channel(self) -> SublevelChannel:
        """Single pseudo-channel with unit line strengths (sublevels ignored)."""
        return SublevelChannel(abs_m=0, multiplicity=1, f_probe=1.0,
                               f_coupling=1.0, g1=self.g1_bare, g2=self.g2_bare)


def build_channels(sys: CascadeSystem, mu_probe_au: float,
                   mu_coupling_au: float, field_probe: float,
                   field_coupling: float) -> ChannelSet:
    """Enumerate surviving |M| channels with their Rabi frequencies.

    Channels whose probe line strength vanishes never leave the ground state
    and are excluded from all sums.  Channels are ordered by ascending |M|.
    """
    g1_bare = rabi_frequency(mu_probe_au, field_probe)
    g2_bare = rabi_frequency(mu_coupling_au, field_coupling)
    channels = []
    for m in range(0, sys.J1 + 1):
        f_p = branch_factor(sys.J1, sys.J2, m)
        if f_p == 0.0:
            continue
        f_c = branch_factor(sys.J2, sys.J3, m)
        channels.append(SublevelChannel(
            abs_m=m,
            multiplicity=1 if m == 0 else 2,
            f_probe=f_p,
            f_coupling=f_c,
            g1=f_p * g1_bare,
            g2=f_c * g2_bare,
        ))
    return ChannelSet(channels=tuple(channels), g1_bare=g1_bare,
                      g2_bare=g2_bare)
