"""Closed-form steady-state populations of the driven cascade system.

The expressions are exact to lowest order in the probe Rabi frequency g1 and
to all orders in the coupling Rabi frequency g2.  With the system's
transit-broadened rates G21, G31, G32 (coherences) and G2, G3 (excited
populations), see ``CascadeSystem``, the populations of the two excited
levels are

    rho22 = -(g1^2 rho11_0 / (2 D)) *
            Im{ [ (g2^2/4) (1 - W32/G3) (D2 - i G32) + A (D1 + D2 + i G31) ]
                / [ (D1 + i G21)(D1 + D2 + i G31) - g2^2/4 ] }

    rho33 = (g1^2 g2^2 rho11_0 / (8 D G3)) *
            Im{ [ -2 G32 (D1 + D2 + i G31) + G2 (D2 - i G32) ]
                / [ (D1 + i G21)(D1 + D2 + i G31) - g2^2/4 ] }

with the coupling-saturation factor A and the normalization D of
``_coupling_terms``.
Both populations are non-normalized (arbitrary units) and scale exactly as
g1^2.  The g2 = 0 limit reduces rho22 to the two-level Lorentzian and sends
rho33 to zero; no special-casing is needed, the formulas are regular there.

Every function accepts numpy arrays for the detunings and broadcasts.
``channel_populations`` evaluates both populations for many channels on one
detuning grid in real arithmetic, from the ``group_factors`` that the
channels of one ``coupling_groups`` entry (one g2) share, and
``doppler_averaged_populations`` gives the Maxwellian velocity averages of
both populations in closed form, once per distinct g2.
"""

import numpy as np

from .doppler import plasma_dispersion
from .system import CascadeSystem, DriveParams


def coupling_saturation_factor(sys: CascadeSystem, drv: DriveParams):
    """Power-broadened coupling-line factor: D2^2 + G32^2 + g2^2 G32/(2 G3)."""
    return _coupling_terms(sys, drv.g2, drv.delta2**2 + sys.G32**2)[0]


# array kernels -------------------------------------------------------------

def _coupling_terms(sys, g2, a0, normalization=True):
    """(A, D, c) at coupling g2, from A's g2-free part a0 = D2^2 + G32^2:

        A = a0 + g2^2 G32 / (2 G3)             coupling saturation
        D = A G2 + (g2^2/2) G32 (1 - W32/G3)   population normalization
        c = (g2^2/4) (1 - W32/G3)              factor of D2 - i G32 in rho22

    D is strictly positive for physical input, and equals A G2 for a closed
    system (W32 = G3); without ``normalization`` it is None.
    """
    G32, G3 = sys.G32, sys.G3
    leak = 1.0 - sys.W32 / G3   # share of level-3 loss not fed back to 2
    A = a0 + g2**2 * G32 / (2.0 * G3)
    D = A * sys.G2 + 0.5 * g2**2 * G32 * leak if normalization else None
    return A, D, (g2**2 / 4.0) * leak


def _factors(sys, delta1, delta2):
    """Channel-independent factors of both numerators, complex:
    (D1 + D2 + i G31, D2 - i G32)."""
    return delta1 + delta2 + 1j * sys.G31, delta2 - 1j * sys.G32


def population_rho22(sys, g1, g2, delta1, delta2):
    """rho22 of one channel: ``channel_populations`` for scalar g1, g2."""
    return channel_populations(sys, [g1], [g2], delta1, delta2,
                               rho33=False)[0, 0]


def population_rho33(sys, g1, g2, delta1, delta2):
    """rho33 of one channel; zero when g2 == 0."""
    return channel_populations(sys, [g1], [g2], delta1, delta2,
                               rho22=False)[1, 0]


def channel_populations(sys, g1, g2, delta1, delta2, rho22=True, rho33=True):
    """rho22 and rho33 of each channel of the arrays ``g1``, ``g2`` on the
    broadcast detunings, as one (2, C, *shape) table: per g2 group a
    prefactor times ``group_factors``.  A row not requested stays +0.0, and
    so does rho33 at g2 == 0."""
    groups = coupling_groups(sys, g2, delta2)
    factors = group_factors(sys, groups, delta1, delta2, rho22, rho33)
    out = np.zeros((2, len(g2), *np.broadcast(delta1, delta2).shape))
    for (value, members, _, D, _), (f22, f33) in zip(groups, factors):
        for i in members:
            if f22 is not None:
                out[0, i] = -(g1[i]**2 * sys.rho11_init) / (2.0 * D) * f22
            if f33 is not None:
                out[1, i] = _rho33_from(sys, g1[i], value, D, f33)
    return out


def coupling_groups(sys, g2, delta2):
    """[(g2, channel indices, A, D, c)] for each distinct value of the array
    ``g2`` in order of first appearance, A, D, c on ``delta2``'s shape."""
    members = {}
    for i, value in enumerate(g2):
        members.setdefault(value, []).append(i)
    a0 = delta2**2 + sys.G32**2
    return [(value, idx, *_coupling_terms(sys, value, a0))
            for value, idx in members.items()]


def group_factors(sys, groups, delta1, delta2, rho22=True, rho33=True):
    """Yield Im(N/P) of rho22 and rho33, (f22, f33), for each group.

    Every factor is real and built on the shape it varies over.  Once per
    call, on the grid: the real parts of the two-photon factor
    D1 + D2 + i G31, of the bare probe response (D1 + i G21)(D1 + D2 + i G31)
    and of the rho33 numerator, and Im P, which no g2 moves.  The other
    imaginary parts are scalars; A and c come with the group.  Per group
    Im(N/P) = Im N Re(1/P) - Re N Im(1/P), with 1/P formed first because
    N conj(P) overflows at the rate cap.  A factor not requested is None,
    and so is f33 at g2 == 0; a group with neither builds no 1/P.  A
    group's g2 may also be an array that broadcasts against the grid, one
    value per row; f33 is then None only if every value is 0.
    """
    G21, G31, G32, G2 = sys.G21, sys.G31, sys.G32, sys.G2
    two_photon = delta1 + delta2
    bare = delta1 * two_photon - G21 * G31
    p_im = delta1 * G31 + G21 * two_photon
    p_im2 = p_im * p_im
    rho33 = rho33 and any(np.any(value != 0.0) for value, *_ in groups)
    if rho33:
        n33_re = -2.0 * G32 * two_photon + G2 * delta2
        n33_im = -2.0 * G32 * G31 - G2 * G32
    inv_re, inv_im, tmp = (np.empty(np.shape(bare)) for _ in range(3))
    for value, _, A, _, c in groups:
        f22 = f33 = None
        lit = rho33 and np.any(value != 0.0)
        if rho22 or lit:                        # anything to evaluate
            # 1/P = inv_re - i inv_im for the dressed probe response P
            np.subtract(bare, value**2 / 4.0, out=inv_re)
            np.multiply(inv_re, inv_re, out=tmp)
            tmp += p_im2
            np.divide(1.0, tmp, out=tmp)
            inv_re *= tmp
            np.multiply(p_im, tmp, out=inv_im)
        if rho22:
            f22 = (A * G31 - c * G32) * inv_re
            np.multiply(A, two_photon, out=tmp)
            tmp += c * delta2
            f22 -= np.multiply(tmp, inv_im, out=tmp)
        if lit:
            f33 = n33_im * inv_re
            f33 -= np.multiply(n33_re, inv_im, out=tmp)
        yield f22, f33


def _rho22_numerator(sys, g2, delta2, two_photon, coupling):
    A, _, c = _coupling_terms(sys, g2, delta2**2 + sys.G32**2, False)
    return c * coupling + A * two_photon


def _rho33_numerator(sys, two_photon, coupling):
    return -2.0 * sys.G32 * two_photon + sys.G2 * coupling


def _rho22_from(sys, g1, D, frac):
    rho11_init = sys.rho11_init
    return -(g1**2 * rho11_init) / (2.0 * D) * np.imag(frac)


def _rho33_from(sys, g1, g2, D, im_frac):
    return (g1**2 * g2**2 * sys.rho11_init) / (8.0 * D * sys.G3) * im_frac


# Maxwellian average in closed form --------------------------------------------

def doppler_averaged_populations(sys, g1, g2, delta1, delta2, slope1, slope2,
                                 rho22=True, rho33=True):
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
    and ``slope2`` are scalars.  Returns one (2, C, n) array, rho22 then
    rho33.  A population not requested stays +0.0 and is not evaluated, nor
    is rho33 at g2 == 0, where its factor g2^2 makes it exactly zero.  Each
    distinct g2 is summed once (channels sharing it differ only by g1^2),
    and Z is evaluated on the two roots of P at each point and on the upper
    root of Dn, which does not move with delta1, once.
    """
    g1 = np.asarray(g1, float)[:, None]
    g2 = np.asarray(g2, float)[:, None]
    delta1 = np.atleast_1d(delta1)
    slope1 = np.atleast_1d(slope1)
    out = np.zeros((2, g2.shape[0], np.broadcast(delta1, slope1).size))
    lit = rho33 & (g2[:, 0] != 0.0)
    rows = np.flatnonzero(rho22 | lit)
    # each distinct g2 once: row k of ``rows`` takes the results of at[k]
    values, at = np.unique(g2[rows, 0], return_inverse=True)
    z, weight = _pole_weights(sys, values[:, None], delta1, delta2, slope1,
                              slope2)
    d2 = delta2 + slope2 * z
    two_photon, coupling = _factors(sys, delta1 + slope1 * z, d2)
    if rho22:
        frac = np.sum(_rho22_numerator(sys, values[:, None], d2, two_photon,
                                       coupling) * weight, axis=0)
        out[0, rows] = _rho22_from(sys, g1[rows], 1.0, frac[at])
    if lit.any():
        on = values != 0.0
        frac = np.zeros((on.size, out.shape[2]))   # a row per g2, 0 at g2 = 0
        frac[on] = np.imag(np.sum(_rho33_numerator(sys, two_photon[:, on],
                                                   coupling[:, on])
                                  * weight[:, on], axis=0))
        out[1, lit] = _rho33_from(sys, g1[lit], g2[lit], 1.0,
                                  frac[at[lit[rows]]])
    return out


def _poles(sys, g2, delta1, delta2, slope1, slope2):
    """The poles of 1/(P*Dn) in t, (far, near, upper), and the factors
    (lead, q) of P's roots that their weights reuse.

    far = q/lead and near = c/q are the roots of the probe response
    P = lead t^2 + b t + c, and upper is the root of Dn above the real
    axis, whose conjugate is the fourth pole; upper has the shape of g2,
    as it does not move with delta1.  No Z is evaluated here.
    """
    G21, G31, G2 = sys.G21, sys.G31, sys.G2
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
    # is parked at 0 with zero weight.
    finite = np.broadcast_to(lead != 0.0, q.shape)
    far = np.divide(q, lead, out=np.zeros_like(q), where=finite)
    # Dn = G2 (D2^2 + K) with G2 K = Dn(D2 = 0)
    Dn0 = _coupling_terms(sys, g2, sys.G32**2)[1]
    upper = (-delta2 + 1j * np.sqrt(Dn0 / G2)) / slope2
    return (far, c / q, upper), lead, q


def _pole_weights(sys, g2, delta1, delta2, slope1, slope2):
    """Poles z_k of 1/(P*Dn) in t (``_poles``), and Z(z_k)/Q'(z_k), stacked
    on axis 0."""
    (far, near, zn), lead, q = _poles(sys, g2, delta1, delta2, slope1,
                                      slope2)
    finite = np.broadcast_to(lead != 0.0, q.shape)
    z = np.stack(np.broadcast_arrays(far, near, zn, np.conj(zn)))
    n1, n2, n3 = z[1:]
    scale = sys.G2 * slope2**2
    # zn moves with g2 only, and Z(conj(zn)) = conj(Z(zn)), the very bits
    # plasma_dispersion gives there; one call, as each call has a fixed cost
    roots = z[:2]
    value = plasma_dispersion(np.concatenate((roots.ravel(), zn.ravel())))
    weight = np.empty_like(z)
    weight[:2] = value[:roots.size].reshape(roots.shape)
    weight[2] = value[roots.size:].reshape(zn.shape)
    weight[3] = np.conj(weight[2])
    # The factor lead*(z_k - q/lead) of Q'(z_k) is written lead*z_k - q,
    # which stays finite as lead -> 0.
    weight[1] /= scale * (lead * n1 - q) * ((n1 - n2) * (n1 - n3))
    weight[2] /= scale * (lead * n2 - q) * ((n2 - n1) * (n2 - n3))
    weight[3] /= scale * (lead * n3 - q) * ((n3 - n1) * (n3 - n2))
    dfar = scale * lead * ((far - n1) * (far - n2) * (far - n3))
    weight[0] = np.divide(weight[0], dfar, out=np.zeros_like(q), where=finite)
    return z, weight
