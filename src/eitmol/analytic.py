"""Closed-form steady-state populations of the driven cascade system.

The expressions are exact to lowest order in the probe Rabi frequency g1 and
to all orders in the coupling Rabi frequency g2.  Writing Gij = gamma_ij + w
(polarization decay plus transit) and G2 = gamma2 + w, G3 = gamma3 + w
(population decay plus transit), the populations of the two excited levels
are

    rho22 = -(g1^2 rho11_0 / (2 D)) *
            Im{ [ (g2^2/4) (1 - W32/G3) (D2 - i G32) + A (D1 + D2 + i G31) ]
                / [ (D1 + i G21)(D1 + D2 + i G31) - g2^2/4 ] }

    rho33 = (g1^2 g2^2 rho11_0 / (8 D G3)) *
            Im{ [ -2 G32 (D1 + D2 + i G31) + G2 (D2 - i G32) ]
                / [ (D1 + i G21)(D1 + D2 + i G31) - g2^2/4 ] }

with the coupling-saturation factor A and the normalization D defined below.
Both populations are non-normalized (arbitrary units) and scale exactly as
g1^2.  The g2 = 0 limit reduces rho22 to the two-level Lorentzian and sends
rho33 to zero; no special-casing is needed, the formulas are regular there.

Every function accepts numpy arrays for the detunings and broadcasts.
``channel_populations`` evaluates both populations for many channels on one
detuning grid, sharing what the channels have in common, and
``doppler_averaged_populations`` gives the Maxwellian velocity averages of
both populations in closed form.
"""

import numpy as np

from .doppler import plasma_dispersion
from .system import CascadeSystem, DriveParams


def coupling_saturation_factor(sys: CascadeSystem, drv: DriveParams):
    """Power-broadened coupling-line factor: D2^2 + G32^2 + g2^2 G32/(2 G3)."""
    return _saturation_factor(sys, drv.g2, drv.delta2)


def steady_state_denominator(sys: CascadeSystem, drv: DriveParams):
    """Overall population normalization D; strictly positive for physical input."""
    return _denominator(sys, drv.g2, drv.delta2)


def rho22_analytic(sys: CascadeSystem, drv: DriveParams):
    """Non-normalized steady-state population of the intermediate level."""
    return population_rho22(sys, drv.g1, drv.g2, drv.delta1, drv.delta2,
                            drv.rho11_init)


def rho33_analytic(sys: CascadeSystem, drv: DriveParams):
    """Non-normalized steady-state population of the upper level."""
    return population_rho33(sys, drv.g1, drv.g2, drv.delta1, drv.delta2,
                            drv.rho11_init)


# array kernels -------------------------------------------------------------

def _saturation_factor(sys, g2, delta2):
    w = sys.transit_rate
    G32 = sys.gamma32 + w
    G3 = sys.gamma3 + w
    return delta2**2 + G32**2 + g2**2 * G32 / (2.0 * G3)


def _denominator(sys, g2, delta2):
    w = sys.transit_rate
    G32 = sys.gamma32 + w
    G3 = sys.gamma3 + w
    A = _saturation_factor(sys, g2, delta2)
    return A * (sys.gamma2 + w) + 0.5 * g2**2 * G32 * (1.0 - sys.W32 / G3)


def _factors(sys, delta1, delta2):
    """Channel-independent factors of both populations:
    (D1 + D2 + i G31, (D1 + i G21)(D1 + D2 + i G31), D2 - i G32)."""
    w = sys.transit_rate
    G21 = sys.gamma21 + w
    G31 = sys.gamma31 + w
    G32 = sys.gamma32 + w
    two_photon = delta1 + delta2 + 1j * G31
    return two_photon, (delta1 + 1j * G21) * two_photon, delta2 - 1j * G32


def _probe_response(bare, g2):
    """Shared complex denominator P of the dressed probe transition, from
    the bare product (D1 + i G21)(D1 + D2 + i G31) of ``_factors``."""
    return bare - g2**2 / 4.0


def population_rho22(sys, g1, g2, delta1, delta2, rho11_init=1.0):
    D = _denominator(sys, g2, delta2)
    two_photon, bare, coupling = _factors(sys, delta1, delta2)
    frac = _rho22_numerator(sys, g2, delta2, two_photon, coupling) \
        / _probe_response(bare, g2)
    return _rho22_from(g1, rho11_init, D, frac)


def population_rho33(sys, g1, g2, delta1, delta2, rho11_init=1.0):
    D = _denominator(sys, g2, delta2)
    two_photon, bare, coupling = _factors(sys, delta1, delta2)
    frac = _rho33_numerator(sys, two_photon, coupling) \
        / _probe_response(bare, g2)
    return _rho33_from(sys, g1, g2, rho11_init, D, frac)


def channel_populations(sys, g1, g2, delta1, delta2, rho11_init=1.0,
                        rho22=True, rho33=True):
    """Yield (i, rho22, rho33) for each channel i of the arrays ``g1``, ``g2``.

    The rows are bit for bit ``population_rho22/33(sys, g1[i], g2[i],
    delta1, delta2, rho11_init)``: every value comes from the same
    operations in the same order.  The factors no channel changes, and the
    rho33 numerator, are built once; channels with equal g2 also share P, D
    and N/P and differ only by their g1^2 prefactor.  A population not
    requested is None, and so is rho33 in channels with g2 == 0, where it is
    exactly zero; neither is evaluated there.  Channels come grouped by g2,
    in order of first appearance.
    """
    two_photon, bare, coupling = _factors(sys, delta1, delta2)
    n33 = _rho33_numerator(sys, two_photon, coupling) if rho33 else None
    groups = {}
    for i, value in enumerate(g2):
        groups.setdefault(value, []).append(i)
    for value, members in groups.items():
        D = _denominator(sys, value, delta2)
        P = _probe_response(bare, value)
        f22 = _rho22_numerator(sys, value, delta2, two_photon, coupling) / P \
            if rho22 else None
        f33 = n33 / P if rho33 and value != 0.0 else None
        for i in members:
            yield (i,
                   None if f22 is None else
                   _rho22_from(g1[i], rho11_init, D, f22),
                   None if f33 is None else
                   _rho33_from(sys, g1[i], value, rho11_init, D, f33))


def _rho22_numerator(sys, g2, delta2, two_photon, coupling):
    w = sys.transit_rate
    G3 = sys.gamma3 + w
    A = _saturation_factor(sys, g2, delta2)
    return ((g2**2 / 4.0) * (1.0 - sys.W32 / G3) * coupling
            + A * two_photon)


def _rho33_numerator(sys, two_photon, coupling):
    w = sys.transit_rate
    G32 = sys.gamma32 + w
    G2 = sys.gamma2 + w
    return -2.0 * G32 * two_photon + G2 * coupling


def _rho22_from(g1, rho11_init, D, frac):
    return -(g1**2 * rho11_init) / (2.0 * D) * np.imag(frac)


def _rho33_from(sys, g1, g2, rho11_init, D, frac):
    G3 = sys.gamma3 + sys.transit_rate
    return (g1**2 * g2**2 * rho11_init) / (8.0 * D * G3) * np.imag(frac)


# Maxwellian average in closed form --------------------------------------------

def doppler_averaged_populations(sys, g1, g2, delta1, delta2, slope1, slope2,
                                 rho11_init=1.0, rho22=True, rho33=True):
    """Maxwellian averages of ``population_rho22`` and ``population_rho33``.

    With t = vz/u_p the detunings are D1 = delta1 + slope1*t and
    D2 = delta2 + slope2*t, and t is distributed as exp(-t^2)/sqrt(pi).
    Writing Dn for the real normalization D of the module docstring, each
    population is Im{N/Q} times a constant, with Q = P*Dn quartic in t and
    N of lower degree, so N/Q is a sum of simple poles:

        <N/Q> = sum_k N(z_k)/Q'(z_k) * Z(z_k)

    over the two roots of the probe response P and the conjugate pair of
    roots t = (-delta2 +- i sqrt(K))/slope2 of Dn = G2 (D2^2 + K), where Z is
    ``doppler.plasma_dispersion``.  Dn is real on the real axis, so Im and
    the average commute.

    ``g1``, ``g2`` are per-channel arrays of shape (C,); ``delta1`` and
    ``slope1`` are per-point arrays of shape (n,) (or scalars); ``delta2``
    and ``slope2`` are scalars.  Returns (rho22, rho33), each of shape
    (C, n); a population not requested is left at +0.0, and so is rho33 in
    channels with g2 == 0, where its factor g2^2 makes it exactly zero.
    Neither is evaluated there.
    """
    g1 = np.asarray(g1, float)[:, None]
    g2 = np.asarray(g2, float)[:, None]
    delta1 = np.atleast_1d(delta1)
    slope1 = np.atleast_1d(slope1)
    out22 = np.zeros((g2.shape[0], np.broadcast(delta1, slope1).size))
    out33 = np.zeros_like(out22)
    lit = rho33 & (g2[:, 0] != 0.0)
    rows = np.flatnonzero(rho22 | lit)
    if rows.size == 0:
        return out22, out33
    z, weight = _pole_weights(sys, g2[rows], delta1, delta2, slope1, slope2)
    d2 = delta2 + slope2 * z
    two_photon, _, coupling = _factors(sys, delta1 + slope1 * z, d2)
    if rho22:
        frac = np.sum(_rho22_numerator(sys, g2[rows], d2, two_photon,
                                       coupling) * weight, axis=0)
        out22[rows] = _rho22_from(g1[rows], rho11_init, 1.0, frac)
    on = lit[rows]
    if on.any():
        frac = np.sum(_rho33_numerator(sys, two_photon[:, on],
                                       coupling[:, on])
                      * weight[:, on], axis=0)
        up = rows[on]
        out33[up] = _rho33_from(sys, g1[up], g2[up], rho11_init, 1.0, frac)
    return out22, out33


def _pole_weights(sys, g2, delta1, delta2, slope1, slope2):
    """Poles z_k of 1/(P*Dn) in t, and Z(z_k)/Q'(z_k), stacked on axis 0."""
    w = sys.transit_rate
    G21 = sys.gamma21 + w
    G31 = sys.gamma31 + w
    G2 = sys.gamma2 + w
    # P = (alpha + slope1 t)(beta + s t) - g2^2/4 = lead t^2 + b t + c
    alpha = delta1 + 1j * G21
    beta = delta1 + delta2 + 1j * G31
    s = slope1 + slope2
    lead = slope1 * s
    b = slope1 * beta + s * alpha
    c = alpha * beta - g2**2 / 4.0
    # b^2 - 4 lead c, written without the cancellation at small g2
    root = np.sqrt((slope1 * beta - s * alpha)**2 + lead * g2**2)
    root = np.where(np.real(np.conj(b) * root) < 0.0, -root, root)
    q = -0.5 * (b + root)
    # As lead -> 0 (counter-propagating beams of equal wavenumber) the root
    # q/lead leaves for infinity and its residue vanishes; at lead == 0 it
    # is parked at 0 with zero weight.  The factor lead*(z_k - q/lead) of
    # Q'(z_k) is written lead*z_k - q, which stays finite there.
    finite = np.broadcast_to(lead != 0.0, q.shape)
    far = np.divide(q, lead, out=np.zeros_like(q), where=finite)
    # Dn = G2 (D2^2 + K) with G2 K = Dn(D2 = 0)
    zn = (-delta2 + 1j * np.sqrt(_denominator(sys, g2, 0.0) / G2)) / slope2
    z = np.stack(np.broadcast_arrays(far, c / q, zn, np.conj(zn)))
    near = z[1:]
    scale = G2 * slope2**2
    dq = np.stack([scale * (lead * near[k] - q)
                   * np.prod(near[k] - np.delete(near, k, axis=0), axis=0)
                   for k in range(3)])
    weight = plasma_dispersion(z)
    weight[1:] /= dq
    weight[0] = np.divide(weight[0], scale * lead * np.prod(far - near, axis=0),
                          out=np.zeros_like(q), where=finite)
    return z, weight
