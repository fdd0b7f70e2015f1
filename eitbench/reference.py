"""Reference lineshapes computed independently of the eitmol engine.

Only the parsed physical inputs (decay rates, wavenumbers, bare Rabi
frequencies, temperature and mass) are taken from the program.  Everything
else is transcribed here from the closed-form steady-state populations of
the weak-probe cascade and integrated with scipy:

* coupling off: each |M| channel is a Lorentzian in D1, and D1 is Gaussian
  over the Maxwellian, so the Doppler average is exactly a Voigt profile;
* coupling on: ``scipy.integrate.quad`` over vz of the |M|-summed closed-form
  population, panel by panel between the dressed-state and two-photon
  resonance velocities.

The engine integrates over +-4 u_p with weights normalized to one, so the
quad reference divides by erf(4) over the same span; the two then differ only
by the engine's discretization error.
"""

import warnings
from math import erf, pi, sqrt

import numpy as np
from scipy import constants as sc
from scipy.integrate import IntegrationWarning, quad
from scipy.special import voigt_profile

SPAN_U_P = 4.0


class Cascade:
    """Rates (Mrad/s) and per-channel Rabi frequencies of one configuration."""

    def __init__(self, cfg, g1_bare, g2_bare):
        s = cfg.system
        w = s.transit_rate
        self.G21 = 0.5 * s.gamma2 + s.gamma12_col + w
        self.G31 = 0.5 * s.gamma3 + s.gamma13_col + w
        self.G32 = 0.5 * (s.gamma2 + s.gamma3) + s.gamma23_col + w
        self.G2 = s.gamma2 + w
        self.G3 = s.gamma3 + w
        self.W32 = s.b3 * s.gamma3
        self.rho11 = s.refill_rate / w if w > 0 else 1.0
        self.omega21 = _angular_from_wavenumber(s.omega21_cm)
        self.omega32 = _angular_from_wavenumber(s.omega32_cm)
        self.u_p = sqrt(2.0 * sc.k * cfg.ensemble.temperature_k
                        / (cfg.ensemble.mass_amu * sc.atomic_mass))
        m, mult, fp, fc = sublevel_factors(s.J1, s.branch_probe,
                                           s.branch_coupling)
        self.abs_m = m
        self.mult = mult
        self.g1 = fp * g1_bare
        self.g2 = fc * g2_bare

    def detunings(self, d1, d2, vz):
        """Counter-propagating D1, D2 (Mrad/s) at vz (m/s), full form."""
        beta = vz / sc.c
        return d1 - beta * (self.omega21 + d1), d2 + beta * (self.omega32 + d2)

    def populations(self, D1, D2):
        """Closed-form rho22, rho33 per channel (arrays over channels)."""
        g1s, g2s = self.g1**2, self.g2**2
        A = D2**2 + self.G32**2 + g2s * self.G32 / (2.0 * self.G3)
        D = A * self.G2 + 0.5 * g2s * self.G32 * (1.0 - self.W32 / self.G3)
        P = (D1 + 1j * self.G21) * (D1 + D2 + 1j * self.G31) - g2s / 4.0
        n22 = (g2s / 4.0) * (1.0 - self.W32 / self.G3) * (D2 - 1j * self.G32) \
            + A * (D1 + D2 + 1j * self.G31)
        n33 = -2.0 * self.G32 * (D1 + D2 + 1j * self.G31) \
            + self.G2 * (D2 - 1j * self.G32)
        r22 = -(g1s * self.rho11) / (2.0 * D) * np.imag(n22 / P)
        r33 = (g1s * g2s * self.rho11) / (8.0 * D * self.G3) * np.imag(n33 / P)
        return r22, r33

    def maxwellian(self, vz):
        return np.exp(-((vz / self.u_p) ** 2)) / (sqrt(pi) * self.u_p)

    def resonance_velocities(self, d1, d2):
        """Real parts of the roots in vz of the dressed probe denominator."""
        beta = 1.0 / sc.c
        a1, b1 = d1, -beta * (self.omega21 + d1)
        a2, b2 = d1 + d2, b1 + beta * (self.omega32 + d2)
        out = [a1 / -b1]
        if b2 != 0.0:
            out.append(a2 / -b2)
        for g2 in self.g2:
            c0 = (a1 + 1j * self.G21) * (a2 + 1j * self.G31) - g2**2 / 4.0
            c1 = b1 * (a2 + 1j * self.G31) + b2 * (a1 + 1j * self.G21)
            out.extend(np.roots([b1 * b2, c1, c0]).real)
        lim = SPAN_U_P * self.u_p
        return sorted({float(v) for v in out if -lim < v < lim})


def _angular_from_wavenumber(cm):
    return 2.0 * pi * sc.c * 100.0 * cm * 1e-6


def line_strength(branch, j_lower, m):
    """Linear-polarization line-strength factor of a P or Q transition."""
    if branch == "Q":
        return m / sqrt(j_lower * (j_lower + 1))
    if branch == "P":
        return sqrt((j_lower**2 - m**2)
                    / ((2 * j_lower + 1) * (2 * j_lower - 1)))
    raise ValueError(f"no reference line strength for branch {branch!r}")


def sublevel_factors(j1, branch_probe, branch_coupling):
    """|M|, multiplicity and probe/coupling factors of every probe-coupled
    channel, for the P-then-Q/P cascade J1 -> J1-1 -> J1-1."""
    j2 = j1 - 1 if branch_probe == "P" else j1
    rows = []
    for m in range(j1 + 1):
        fp = line_strength(branch_probe, j1, m)
        if fp == 0.0:
            continue
        fc = line_strength(branch_coupling, j2, m) if m <= j2 else 0.0
        rows.append((m, 1 if m == 0 else 2, fp, fc))
    m, mult, fp, fc = (np.array(c, float) for c in zip(*rows))
    return m.astype(int), mult, fp, fc


def voigt_rho22(cas, delta1_mhz):
    """Coupling-off |M|-summed Doppler-averaged rho22 (exact Voigt form)."""
    d1 = 2.0 * pi * np.asarray(delta1_mhz, float)
    sigma = (cas.omega21 + d1) * cas.u_p / (sc.c * sqrt(2.0))
    strength = float(np.sum(cas.mult * cas.g1**2))
    return strength * cas.rho11 * pi / (2.0 * cas.G2) \
        * voigt_profile(d1, sigma, cas.G21)


def quad_populations(cas, delta1_mhz, delta2_mhz, scale):
    """|M|-summed Doppler averages of (rho22, rho33) at one delta1 by quad.

    The span is cut at every resonance velocity and each panel integrated on
    its own, which keeps QUADPACK's error budget local to the narrow
    features.  ``scale`` is the size of the signals being checked; the
    summed error estimate must stay far below 1e-6 of it.
    """
    d1 = 2.0 * pi * delta1_mhz
    d2 = 2.0 * pi * delta2_mhz
    lim = SPAN_U_P * cas.u_p
    edges = [-lim] + cas.resonance_velocities(d1, d2) + [lim]
    panels = [(a, b) for a, b in zip(edges[:-1], edges[1:])
              if b - a > 1e-9 * lim]
    out = []
    for k in (0, 1):
        def integrand(vz, k=k):
            D1, D2 = cas.detunings(d1, d2, vz)
            return float(np.dot(cas.mult, cas.populations(D1, D2)[k])) \
                * cas.maxwellian(vz)
        total = err = 0.0
        with warnings.catch_warnings():
            # judged below by the summed error estimate instead
            warnings.simplefilter("ignore", IntegrationWarning)
            for a, b in panels:
                val, e = quad(integrand, a, b, limit=200,
                              epsabs=1e-10 * scale / len(panels),
                              epsrel=1e-10)
                total += val
                err += e
        if not err <= 1e-8 * scale:
            raise ArithmeticError(f"quad reference at {delta1_mhz} MHz"
                                  f" reports error {err / scale:.1e} of scale")
        out.append(total / erf(SPAN_U_P))
    return out
