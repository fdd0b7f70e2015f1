"""Exact steady state of the rotating-wave optical Bloch equations.

This is the independent ground truth against which the weak-probe analytic
solutions are validated: the six equations of motion (three populations,
three coherences) are converted to nine real linear equations by splitting
each coherence into real and imaginary parts, and solved directly with no
perturbative approximation in the probe field.

Unknown layout:

    x = [rho11, rho22, rho33,
         Re rho21, Im rho21, Re rho31, Im rho31, Re rho32, Im rho32]

The matrix holds the right-hand-side coefficients of d(rho)/dt = M x + s with
source s = (Lambda, 0, ..., 0), Lambda = w rho11_init with the transit rate
w and the system's ``rho11_init``; the steady state solves M x = -s.  With a
nonzero transit rate the system is nonsingular (transit loss breaks the
traceless degeneracy of the closed Liouvillian).
"""

import numpy as np

from .errors import SingularSystem
from .system import CascadeSystem, DensityState, DriveParams

_RESIDUAL_TOL = 1e-10


def solve_steady_state(sys: CascadeSystem, drv: DriveParams) -> DensityState:
    """Exact steady state of one velocity class: a batch of one."""
    x = _solve(sys, drv.g1, drv.g2, drv.delta1, drv.delta2)
    return DensityState(
        rho11=x[0], rho22=x[1], rho33=x[2],
        rho21=complex(x[3], x[4]),
        rho31=complex(x[5], x[6]),
        rho32=complex(x[7], x[8]),
    )


def populations_grid(sys: CascadeSystem, g1, g2, delta1, delta2):
    """Batched (rho22, rho33) over broadcast detuning arrays.

    Used by the spectrum engine's ``oracle`` path and the oracle check; one
    linear solve per grid point, chunked to bound memory.
    """
    d1, d2 = np.broadcast_arrays(np.asarray(delta1, float),
                                 np.asarray(delta2, float))
    shape = d1.shape
    d1f = d1.ravel()
    d2f = d2.ravel()
    out22 = np.empty(d1f.shape)
    out33 = np.empty(d1f.shape)
    chunk = 65536
    for lo in range(0, d1f.size, chunk):
        hi = min(lo + chunk, d1f.size)
        x = _solve(sys, g1, g2, d1f[lo:hi], d2f[lo:hi])
        out22[lo:hi] = x[..., 1]
        out33[lo:hi] = x[..., 2]
    return out22.reshape(shape), out33.reshape(shape)


def _solve(sys, g1, g2, delta1, delta2):
    """Solve M x = -s for broadcast detunings; x has shape (..., 9).

    Direct dense solve with partial pivoting, then one check of the
    normwise backward error |M x + s| / (|M|_F |x| + |Lambda|), which also
    rejects a non-finite one.
    """
    if sys.transit_rate <= 0.0:
        raise SingularSystem("steady state requires a positive transit rate")
    m = _assemble_grid(sys, g1, g2, delta1, delta2)
    lam = sys.rho11_init * sys.transit_rate
    rhs = np.zeros(m.shape[:-1])
    rhs[..., 0] = -lam
    try:
        x = np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    scale = (np.linalg.norm(m, axis=(-2, -1))
             * np.linalg.norm(x, axis=-1) + abs(lam))
    residual = (np.linalg.norm(np.einsum("...ij,...j->...i", m, x) - rhs,
                               axis=-1)
                / np.maximum(scale, np.finfo(float).tiny))
    if not np.all(residual <= _RESIDUAL_TOL):
        raise SingularSystem(
            f"steady-state residual {np.max(residual):.3e} exceeds"
            f" {_RESIDUAL_TOL:.1e}")
    return x


def _assemble_grid(sys, g1, g2, delta1, delta2):
    """Coefficient matrices for broadcast detunings, shape (..., 9, 9)."""
    d1, d2 = np.broadcast_arrays(np.asarray(delta1, float),
                                 np.asarray(delta2, float))
    w = sys.transit_rate
    G21 = sys.gamma21 + w
    G31 = sys.gamma31 + w
    G32 = sys.gamma32 + w
    m = np.zeros(d1.shape + (9, 9))
    # d rho11/dt = g1 Im(rho21) + W21 rho22 - w rho11 (+ Lambda)
    m[..., 0, 0] = -w
    m[..., 0, 1] = sys.W21
    m[..., 0, 4] = g1
    # d rho22/dt = -g1 Im(rho21) + g2 Im(rho32) - (gamma2+w) rho22 + W32 rho33
    m[..., 1, 1] = -(sys.gamma2 + w)
    m[..., 1, 2] = sys.W32
    m[..., 1, 4] = -g1
    m[..., 1, 8] = g2
    # d rho33/dt = -g2 Im(rho32) - (gamma3+w) rho33
    m[..., 2, 2] = -(sys.gamma3 + w)
    m[..., 2, 8] = -g2
    # Re rho21: (g2/2) Im(rho31) - D1 Im(rho21) - G21 Re(rho21)
    m[..., 3, 3] = -G21
    m[..., 3, 4] = -d1
    m[..., 3, 6] = 0.5 * g2
    # Im rho21: (g1/2)(rho22 - rho11) - (g2/2) Re(rho31) + D1 Re(rho21) - G21 Im(rho21)
    m[..., 4, 0] = -0.5 * g1
    m[..., 4, 1] = 0.5 * g1
    m[..., 4, 3] = d1
    m[..., 4, 4] = -G21
    m[..., 4, 5] = -0.5 * g2
    # Re rho31: -(g1/2) Im(rho32) + (g2/2) Im(rho21) - (D1+D2) Im(rho31) - G31 Re(rho31)
    m[..., 5, 4] = 0.5 * g2
    m[..., 5, 5] = -G31
    m[..., 5, 6] = -(d1 + d2)
    m[..., 5, 8] = -0.5 * g1
    # Im rho31: (g1/2) Re(rho32) - (g2/2) Re(rho21) + (D1+D2) Re(rho31) - G31 Im(rho31)
    m[..., 6, 3] = -0.5 * g2
    m[..., 6, 5] = d1 + d2
    m[..., 6, 6] = -G31
    m[..., 6, 7] = 0.5 * g1
    # Re rho32: -(g1/2) Im(rho31) - D2 Im(rho32) - G32 Re(rho32)
    m[..., 7, 6] = -0.5 * g1
    m[..., 7, 7] = -G32
    m[..., 7, 8] = -d2
    # Im rho32: (g2/2)(rho33 - rho22) + (g1/2) Re(rho31) + D2 Re(rho32) - G32 Im(rho32)
    m[..., 8, 1] = -0.5 * g2
    m[..., 8, 2] = 0.5 * g2
    m[..., 8, 5] = 0.5 * g1
    m[..., 8, 7] = d2
    m[..., 8, 8] = -G32
    return m
