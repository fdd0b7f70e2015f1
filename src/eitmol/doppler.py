"""Velocity-class detunings and Maxwellian averaging.

For counter-propagating beams (probe to +z, coupling to -z) a molecule with
axial velocity vz sees

    D1(vz) = delta1 - (vz/c) * omega1_laser
    D2(vz) = delta2 + (vz/c) * omega2_laser

which, with omega_laser = omega_transition + delta, is the full form that
keeps the (1 -+ vz/c) factor on the detunings.  A co-propagating coupling
beam flips the sign of the vz term in D2.

Observables are averaged over the one-dimensional Maxwellian

    N(vz) = exp(-(vz/u_p)^2) / (sqrt(pi) u_p),   u_p = sqrt(2 k T / m).

The analytic engine's populations are rational in t = vz/u_p with four
simple poles, so their average is a sum of residues times the plasma
dispersion function Z(z) = (1/sqrt(pi)) int exp(-t^2)/(t - z) dt, which
``plasma_dispersion`` evaluates through Weideman's rational approximation of
the Faddeeva function (the residues are taken in ``analytic``).  That
average has no nodes and no truncation.

Two quadrature rules average on nodes.  The closed form is checked against
``graded_rule``: per (g2, delta1) row, panels graded toward the integrand's
poles, with the nested Gauss-7/Kronrod-15 pair of QUADPACK on each panel
(Piessens et al., Springer 1983), so one evaluation of the integrand on the
15 nodes of a panel yields both averages.  A uniform rule's error falls as
exp(-2 pi d / h), with d the distance of the nearest pole from the real axis
and h the node step (Trefethen & Weideman, SIAM Rev. 56 (2014) 385), so its
node count must grow with the ratio of the Doppler width to the narrowest
coherence width; the graded rule's does not.  The poles only place the
nodes: the values on them come from the population kernel, never from the
residues, so a misplaced pole can only make the check fail.

The oracle engine averages on a uniform trapezoid with density-folded
weights, ``doubled_rule``, whose one instance is the velocity rule
``node_plan`` over +-span*u_p with the Maxwellian.  For an analytic integrand
the trapezoid rule is spectrally accurate once the narrowest Lorentzian is
resolved by the node spacing.  ``doubled_rule`` lays out the doubled rule
(2N - 1 nodes), whose every second node is the N-node rule, so one
evaluation of the integrand yields both averages.

Convergence is enforced, not assumed: an average is rejected if it moved by
more than the refinement tolerance between a rule's coarse and fine
averages.  Each trapezoid average is one ``weighted_sum``, whose
O(eps * n) rounding is far below any refinement tolerance.
"""

from dataclasses import dataclass
from math import inf, log, pi, sqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .constants import ATOMIC_MASS_KG, BOLTZMANN_K, SPEED_OF_LIGHT

TRAPEZOID = "uniform_trapezoid"   # the rules' names, echoed in outputs
FADDEEVA = "faddeeva"

COUNTER_PROPAGATING = "counter_propagating"
CO_PROPAGATING = "co_propagating"

# Above this span the Maxwellian weight exp(-span^2) of the outermost nodes
# underflows to 0.0, so a wider rule only adds nodes that carry no weight.
MAX_SPAN = sqrt(-log(np.nextafter(0.0, 1.0)))   # 27.28
# Slowest thermal speed, m/s: far above the ~1e-82 m/s where the closed
# form's poles, which grow as 1/u_p, leave the float range; below any gas.
MIN_U_P = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """Thermal ensemble; u_p may be overridden by a measured Doppler width."""

    temperature_k: float
    mass_amu: float
    geometry: str = COUNTER_PROPAGATING
    u_p_override: float | None = None

    def __post_init__(self):
        if self.geometry not in (COUNTER_PROPAGATING, CO_PROPAGATING):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.u_p_override is None and not (0.0 < self.temperature_k < inf
                                              and 0.0 < self.mass_amu < inf):
            raise ValueError("temperature and mass must be finite and > 0")
        # u_p_override, or T/m out of range; the detunings are first order
        # in vz/c, so a thermal speed is below the speed of light
        if not MIN_U_P <= self.u_p < SPEED_OF_LIGHT:
            raise ValueError(f"u_p = {self.u_p} m/s must be >= {MIN_U_P:g}"
                             " m/s and below the speed of light,"
                             f" {SPEED_OF_LIGHT:g} m/s")

    @property
    def u_p(self) -> float:
        """Most probable speed, m/s."""
        if self.u_p_override is not None:
            return self.u_p_override
        return sqrt(2.0 * BOLTZMANN_K * self.temperature_k
                    / (self.mass_amu * ATOMIC_MASS_KG))

    @classmethod
    def from_doppler_fwhm(cls, fwhm_mhz: float, omega_cm: float,
                          geometry: str = COUNTER_PROPAGATING) -> "Ensemble":
        """Set u_p from a measured Gaussian FWHM (cyclic MHz) at omega_cm."""
        k = 2.0 * pi * 100.0 * omega_cm  # rad/m
        u_p = 2.0 * pi * fwhm_mhz * 1e6 / (2.0 * sqrt(log(2.0)) * k)
        return cls(temperature_k=0.0, mass_amu=0.0, geometry=geometry,
                   u_p_override=u_p)


@dataclass(frozen=True)
class QuadratureSpec:
    node_count: int = 4001
    span: float = 4.0                    # trapezoid half-width in units of u_p
    refinement_tolerance: float = 1e-4   # relative, against the peak value

    def __post_init__(self):
        n = self.node_count
        if not isinstance(n, Integral) or n < 51 or n % 2 == 0:
            raise ValueError(f"trapezoid node_count must be an odd integer"
                             f" >= 51, got {n!r}")
        for name in ("span", "refinement_tolerance"):
            if not 0.0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not self.span <= MAX_SPAN:
            raise ValueError(f"span must be at most {MAX_SPAN:.4g}: beyond it"
                             " the weight exp(-span^2) underflows to 0")


def velocity_detunings(delta1, delta2, omega1, omega2, vz, geometry):
    """Effective detunings (Mrad/s) for velocity class vz (m/s).

    ``omega1``/``omega2`` are the angular *laser* frequencies; passing
    transition + detuning reproduces the full velocity-dependent form.
    """
    beta = np.asarray(vz) / SPEED_OF_LIGHT
    d1 = delta1 - beta * omega1
    if geometry == COUNTER_PROPAGATING:
        d2 = delta2 + beta * omega2
    elif geometry == CO_PROPAGATING:
        d2 = delta2 - beta * omega2
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    return d1, d2


class DoubledRule(NamedTuple):
    """Nodes plus the (slice, weights) rules that reduce them.

    ``coarse`` is the rule whose average is reported; ``fine`` is the
    doubled rule it is checked against, or None when nothing is checked.
    """

    nodes: np.ndarray
    coarse: tuple
    fine: tuple | None


def _weights(nodes, density):
    """Trapezoid weights folded with ``density`` on uniform ``nodes``, summing
    to one: a constant then averages to itself, whatever the truncation."""
    h = nodes[1] - nodes[0]
    w = np.full(nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    w *= density(nodes)
    return w / w.sum()


def doubled_rule(lo, hi, count, density, verified=True) -> DoubledRule:
    """The ``count``-node trapezoid on [lo, hi] weighted by ``density``.

    Verified, the nodes are those of the doubled rule (2 count - 1 nodes,
    half the step) and the coarse rule takes every second one of them.
    Unverified, they are the ``count`` nodes of the rule itself.
    """
    if not verified:
        nodes = np.linspace(lo, hi, count)
        return DoubledRule(nodes, (slice(None), _weights(nodes, density)),
                           None)
    nodes = np.linspace(lo, hi, 2 * count - 1)
    return DoubledRule(nodes, (slice(None, None, 2),
                               _weights(nodes[::2], density)),
                       (slice(None), _weights(nodes, density)))


def node_plan(ens: Ensemble, q: QuadratureSpec, verified=True) -> DoubledRule:
    """The velocity rule of ``q``: nodes vz over +-span*u_p, weighted by the
    Maxwellian N(vz)."""
    u = ens.u_p
    return doubled_rule(-q.span * u, q.span * u, q.node_count,
                        lambda vz: np.exp(-((vz / u) ** 2)) / (sqrt(pi) * u),
                        verified)


# Gauss-Kronrod G7/K15 on [-1, 1] (Piessens et al., QUADPACK, Springer
# 1983), from the outermost node in to 0: the Kronrod nodes and weights, and
# the Gauss weights of every second node from the second.
_K15_HALF = (0.991455371120812639206854697526329,
             0.949107912342758524526189684047851,
             0.864864423359769072789712788640926,
             0.741531185599394439863864773280788,
             0.586087235467691130294144845693013,
             0.405845151377397166906606412076961,
             0.207784955007898467600689403773245,
             0.0)
_K15_W_HALF = (0.022935322010529224963732008058970,
               0.063092092629978553290700663189204,
               0.104790010322250183839876322541518,
               0.140653259715525918745189590510238,
               0.169004726639267902826583426598550,
               0.190350578064785409913256402421014,
               0.204432940075298892414161999234649,
               0.209482141084727828012999174891714)
_G7_W_HALF = (0.129484966168869693270611432679082,
              0.279705391489276667901467771423780,
              0.381830050505118944950369775488975,
              0.417959183673469387755102040816327)


def _mirrored(half):
    """The 15 values, ascending in node, of a rule given from the
    outermost node in to 0."""
    half = np.asarray(half)
    return np.concatenate((half, half[-2::-1]))


KRONROD_NODES = np.concatenate((-np.array(_K15_HALF), _K15_HALF[-2::-1]))
KRONROD_WEIGHTS = _mirrored(_K15_W_HALF)
GAUSS_WEIGHTS = np.zeros(15)          # the Gauss-7 rule on the same nodes
GAUSS_WEIGHTS[1::2] = _mirrored(_G7_W_HALF)

# panel breakpoints of ``graded_rule`` (measured): each pole's real part and
# Re z +- |Im z| * 6^j for j = 0 ... 11, over 13 uniform ones
_GRADING = 6.0 ** np.arange(12)
_BASE_CUTS = 13


class GradedRule(NamedTuple):
    """The panels of every row, in one flat list: row r owns the panels
    from ``first[r]`` up to the next row's first one.  ``nodes`` are the
    (panels, 15) Kronrod nodes t, ``density`` exp(-t^2) on them, and
    ``scale`` each panel's half-width / sqrt(pi)."""

    nodes: np.ndarray
    density: np.ndarray
    scale: np.ndarray
    first: np.ndarray

    @property
    def owner(self) -> np.ndarray:
        """The row of each panel."""
        return np.repeat(np.arange(self.first.size),
                         np.diff(self.first, append=len(self.nodes)))

    def averages(self, values) -> np.ndarray:
        """Both rules' averages over each row of ``values`` (..., panels,
        15) on ``nodes``: (coarse, fine), shape (2, ..., rows)."""
        return np.add.reduceat(panel_sums(values * self.density, self.scale),
                               self.first, axis=-1)


def graded_rule(poles, span) -> GradedRule:
    """Panels graded toward each row's ``poles``, over t = vz/u_p in
    [-span, span], with the Gauss-7/Kronrod-15 pair on every panel.

    ``poles`` is a complex (rows, P) array.  A row's breakpoints are the
    13 uniform ones and, for each pole z, Re z and Re z +- |Im z| 6^j for
    j = 0 ... 11, clipped to +-span; a repeated breakpoint (or NaN) is
    dropped, so every panel has a width.  A pole only places nodes: the
    rule's averages are of whatever is evaluated on them, over
    exp(-t^2)/sqrt(pi) on [-span, span], unnormalized.
    """
    poles = np.asarray(poles, complex)
    rows = poles.shape[0]
    flat = (rows, poles.shape[1] * _GRADING.size)   # also for no rows
    centre = poles.real[..., None]
    # a breakpoint that overflows is clipped, and a NaN one dropped, below
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.abs(poles.imag)[..., None] * _GRADING
        cuts = np.concatenate(
            (np.broadcast_to(np.linspace(-span, span, _BASE_CUTS),
                             (rows, _BASE_CUTS)),
             poles.real, (centre - reach).reshape(flat),
             (centre + reach).reshape(flat)), axis=1)
    cuts = np.sort(np.clip(cuts, -span, span), axis=1)   # NaN sorts last
    # a panel ends at each breakpoint above the one before it
    ends = cuts[:, 1:] > cuts[:, :-1]
    lo, hi = cuts[:, :-1][ends], cuts[:, 1:][ends]
    first = np.zeros(rows, int)
    np.cumsum(ends.sum(axis=1)[:-1], out=first[1:])
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * KRONROD_NODES
    return GradedRule(nodes, np.exp(-nodes**2), half / sqrt(pi), first)


def panel_sums(values, scale) -> np.ndarray:
    """The Gauss-7 and Kronrod-15 sums of ``values`` (..., 15) over each
    panel's nodes, the Gauss-7 sum over its 7 nodes only, each times the
    panel's ``scale``: shape (2, ...).  einsum reduces each panel alone,
    so its bits depend on its 15 values only."""
    return np.stack((
        np.einsum("...k,k->...", values[..., 1::2], GAUSS_WEIGHTS[1::2]),
        np.einsum("...k,k->...", values, KRONROD_WEIGHTS))) * scale


# Weideman's rational approximation of the Faddeeva function w(z) with
# N = 32 terms (SIAM J. Numer. Anal. 31 (1994) 1497), about 1e-13 relative
# in the upper half-plane; N = 16 reaches only ~4e-7.
_W_TERMS = 32
_W_L = sqrt(_W_TERMS / sqrt(2.0))


def _weideman_coefficients(n, L):
    m = 2 * n
    theta = np.arange(-m + 1, m) * pi / m
    t = L * np.tan(theta / 2.0)
    f = np.concatenate(([0.0], np.exp(-t**2) * (L**2 + t**2)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return a[1:n + 1][::-1]


_W_COEFFS = _weideman_coefficients(_W_TERMS, _W_L)


def faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0."""
    z = np.asarray(z, complex)
    den = _W_L - 1j * z
    x = (_W_L + 1j * z) / den
    p = np.full_like(x, _W_COEFFS[0])
    for c in _W_COEFFS[1:]:     # Horner, in place: np.polyval's arithmetic
        p *= x
        p += c
    return 2.0 * p / den**2 + (1.0 / sqrt(pi)) / den


def plasma_dispersion(z):
    """(1/sqrt(pi)) * integral exp(-t^2)/(t - z) dt over the real line.

    That is i sqrt(pi) w(z) above the real axis and its complex conjugate
    at conj(z) below it (Fried & Conte 1961): the Maxwellian average of
    1/(t - z) for a pole z off the real axis.
    """
    z = np.asarray(z, complex)
    lower = z.imag < 0.0
    value = 1j * sqrt(pi) * faddeeva(np.where(lower, np.conj(z), z))
    return np.where(lower, np.conj(value), value)


def weighted_sum(values, weights):
    """sum(values * weights) along the last axis.

    einsum reduces each row on its own, in an order fixed by the row's
    length and stride, and allocates no temporary the size of ``values``, so
    a row's bits never depend on the other rows, on how callers chunk or
    thread them, or on the thread count.  BLAS (``@``, ``np.dot``,
    ``einsum(optimize=...)``) does not keep that contract.
    """
    return np.einsum("...k,k->...", values, weights)
