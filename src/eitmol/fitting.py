"""Least-squares recovery of the vibronic dipole moment and dephasings.

The workflow mirrors how such spectra are analyzed in practice: fit the
upper-level fluorescence first (its splitting pins the coupling Rabi
frequency and hence the dipole matrix element), then forward-simulate the
intermediate-level spectrum as a consistency check.

The optimizer is a deterministic bounded Nelder-Mead simplex: objective
evaluations are full spectrum simulations, so derivative-free search with a
hard evaluation cap is the right tool.  Identical problems and starting
points always produce identical results.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .doppler import Ensemble, QuadratureSpec
from .spectrum import ScanConfig, Spectrum, simulate
from .sublevels import build_channels
from .system import CascadeSystem, LaserPair
from .units import angular_from_mhz

FIT_PARAMETERS = ("mu_coupling", "gamma12_col", "gamma13_col", "gamma23_col",
                  "amplitude_scale", "baseline_offset")
PARAMETER_UNITS = {
    "mu_coupling": "au",
    "gamma12_col": "MHz",
    "gamma13_col": "MHz",
    "gamma23_col": "MHz",
    "amplitude_scale": "1",
    "baseline_offset": "signal",
}

_MAX_EVALS = 2000
_DIAM_TOL = 1e-4
_IMPROVE_TOL = 1e-8
_IMPROVE_WINDOW = 20


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Target spectrum plus the fixed simulation context."""

    target_delta1_mhz: np.ndarray
    target_signal: np.ndarray
    channel: str
    free: tuple
    bounds: dict
    system: CascadeSystem
    lasers: LaserPair
    ensemble: Ensemble | None
    mu_probe_au: float
    mu_coupling_au: float
    delta2_mhz: float = 0.0
    doppler_on: bool = True
    m_sum_on: bool = True
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    max_evaluations: int = _MAX_EVALS

    def __post_init__(self):
        grid = np.asarray(self.target_delta1_mhz, float)
        sig = np.asarray(self.target_signal, float)
        if grid.shape != sig.shape or grid.ndim != 1:
            raise ValueError("target grid and signal must be equal-length 1-D")
        object.__setattr__(self, "target_delta1_mhz", grid)
        object.__setattr__(self, "target_signal", sig)
        if not self.free:
            raise ValueError("at least one free parameter is required")
        bad = set(self.free) - set(FIT_PARAMETERS)
        if bad:
            raise ValueError(f"unknown fit parameters: {sorted(bad)}")
        for name in self.free:
            lo, hi = self.bounds[name]
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name} must be finite, lo < hi")


@dataclass
class FitResult:
    """A finished fit; ``units`` and ``sensitivity`` are derived on access."""

    best_params: dict
    residual_norm: float
    initial_residual_norm: float
    iterations: int
    evaluations: int
    converged: bool
    dof: int
    curvature: np.ndarray        # per free parameter; NaN where pinned
    trace: np.ndarray            # rows (evaluation index, best objective so far)

    @property
    def units(self) -> dict:
        return {name: PARAMETER_UNITS[name] for name in self.best_params}

    @property
    def sensitivity(self) -> dict:
        """name -> {curvature, half_interval, tolerance_interval}: local,
        curvature-based scales rather than full confidence intervals.

        ``half_interval``, sqrt(2 (chi^2/dof) / curvature), is the 1-sigma
        scale implied by the residual level; ``tolerance_interval``,
        sqrt(2 chi^2 / curvature), is the parameter move that doubles the
        best objective.  Both are NaN for a parameter pinned at a bound and
        inf where the curvature is not positive.
        """
        base = max(self.residual_norm, np.finfo(float).eps)
        out = {}
        for name, curv in zip(self.best_params, self.curvature.tolist()):
            half = tol = float("nan") if np.isnan(curv) else float("inf")
            if curv > 0:
                half = float(np.sqrt(2.0 * base / self.dof / curv))
                tol = float(np.sqrt(2.0 * base / curv))
            out[name] = {"curvature": curv, "half_interval": half,
                         "tolerance_interval": tol}
        return out


def _context(fp: FitProblem, params: dict):
    """Apply free parameters on top of the fixed context."""
    sys = fp.system
    gamma_updates = {}
    for name in ("gamma12_col", "gamma13_col", "gamma23_col"):
        if name in params:
            gamma_updates[name] = angular_from_mhz(params[name])
    if gamma_updates:
        sys = replace(sys, **gamma_updates)
    mu_c = params.get("mu_coupling", fp.mu_coupling_au)
    scale = params.get("amplitude_scale", 1.0)
    offset = params.get("baseline_offset", 0.0)
    return sys, mu_c, scale, offset


def model_spectrum(fp: FitProblem, params: dict) -> Spectrum:
    """Simulated spectrum on the target grid for the given parameters."""
    sys, mu_c, _, _ = _context(fp, params)
    channelset = build_channels(sys, fp.mu_probe_au, mu_c,
                                fp.lasers.field_probe,
                                fp.lasers.field_coupling)
    scan = ScanConfig(
        delta1_mhz=fp.target_delta1_mhz,
        delta2_mhz=fp.delta2_mhz,
        channels=(fp.channel,),
        doppler_on=fp.doppler_on,
        m_sum_on=fp.m_sum_on,
        verify_quadrature=False,  # quadrature validated once per fit, below
    )
    return simulate(sys, fp.lasers, fp.ensemble, channelset, scan,
                    quadrature=fp.quadrature)


def objective(p, fp: FitProblem) -> float:
    """Sum of squared residuals of scale*model + offset against the target."""
    params = _vector_to_params(p, fp)
    spec = model_spectrum(fp, params)
    _, _, scale, offset = _context(fp, params)
    resid = scale * spec.signal(fp.channel) + offset - fp.target_signal
    return float(np.dot(resid, resid))


def _vector_to_params(p, fp):
    p = np.asarray(p, float)
    if p.shape != (len(fp.free),):
        raise ValueError(f"expected {len(fp.free)} parameters, got {p.shape}")
    return dict(zip(fp.free, p))


def validate_quadrature(fp: FitProblem, params: dict) -> None:
    """Run one doubled-node-checked simulation to vet the quadrature."""
    if not fp.doppler_on:
        return
    sys, mu_c, _, _ = _context(fp, params)
    channelset = build_channels(sys, fp.mu_probe_au, mu_c,
                                fp.lasers.field_probe,
                                fp.lasers.field_coupling)
    scan = ScanConfig(
        delta1_mhz=fp.target_delta1_mhz,
        delta2_mhz=fp.delta2_mhz,
        channels=(fp.channel,),
        doppler_on=fp.doppler_on,
        m_sum_on=fp.m_sum_on,
        verify_quadrature=True,
    )
    simulate(sys, fp.lasers, fp.ensemble, channelset, scan,
             quadrature=fp.quadrature)


def fit(fp: FitProblem, init: dict) -> FitResult:
    """Bounded Nelder-Mead minimization of the objective.

    Convergence requires both a relative simplex diameter below 1e-4 and a
    relative objective improvement below 1e-8 over 20 iterations; the search
    is capped at ``fp.max_evaluations`` objective evaluations and flags
    non-convergence (the best point found is still returned).
    """
    x0 = np.array([float(init[name]) for name in fp.free])
    lo = np.array([fp.bounds[n][0] for n in fp.free])
    hi = np.array([fp.bounds[n][1] for n in fp.free])
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("initial point outside bounds")
    validate_quadrature(fp, _vector_to_params(x0, fp))

    state = _SimplexState(lambda p: objective(p, fp), x0, lo, hi,
                          fp.max_evaluations)
    best_x, best_f, converged = state.run()

    curvature = _curvature(state.func, best_x, lo, hi, best_f)
    return FitResult(
        best_params=dict(zip(fp.free, best_x.tolist())),
        residual_norm=best_f,
        initial_residual_norm=state.initial_f,
        iterations=state.iterations,
        evaluations=state.evaluations,
        converged=converged,
        dof=max(fp.target_signal.size - len(fp.free), 1),
        curvature=curvature,
        trace=np.array(state.trace, float).reshape(-1, 2),
    )


def synthetic_target(spec: Spectrum, channel: str, noise_fraction: float,
                     seed: int):
    """Multiplicative-Gaussian noisy copy of a simulated signal."""
    rng = np.random.default_rng(seed)
    signal = spec.signal(channel)
    return signal * (1.0 + noise_fraction * rng.standard_normal(signal.size))


class _SimplexState:
    """Plain Nelder-Mead with reflective parameters 1, 2, 0.5, 0.5 and
    bound handling by projection onto the box."""

    def __init__(self, func, x0, lo, hi, max_evals):
        self.raw_func = func
        self.lo = lo
        self.hi = hi
        self.max_evals = max_evals
        self.evaluations = 0
        self.iterations = 0
        self.trace = []
        n = x0.size
        step = 0.05 * (hi - lo)
        verts = [self._clip(x0)]
        for i in range(n):
            v = x0.copy()
            v[i] = v[i] + step[i] if v[i] + step[i] <= hi[i] else v[i] - step[i]
            verts.append(self._clip(v))
        self.verts = np.array(verts)
        self.fvals = np.array([self.func(v) for v in self.verts])
        self.initial_f = float(self.fvals[0])
        self.best_history = [float(np.min(self.fvals))]

    def _clip(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def func(self, x):
        self.evaluations += 1
        f = self.raw_func(x)
        if not self.trace or f < self.trace[-1][1]:
            self.trace.append((self.evaluations, float(f)))
        return f

    def _budget(self, need=1):
        return self.evaluations + need <= self.max_evals

    def run(self):
        converged = False
        while True:
            order = np.argsort(self.fvals, kind="stable")
            self.verts = self.verts[order]
            self.fvals = self.fvals[order]
            if self._converged():
                converged = True
                break
            if not self._budget(2):
                break
            self.iterations += 1
            self._step()
            self.best_history.append(float(self.fvals.min()))
        order = np.argsort(self.fvals, kind="stable")
        i = order[0]
        return self.verts[i].copy(), float(self.fvals[i]), converged

    def _step(self):
        worst = -1
        centroid = np.mean(self.verts[:-1], axis=0)
        xr = self._clip(centroid + (centroid - self.verts[worst]))
        fr = self.func(xr)
        if fr < self.fvals[0]:
            if self._budget():
                xe = self._clip(centroid + 2.0 * (centroid - self.verts[worst]))
                fe = self.func(xe)
                if fe < fr:
                    self.verts[worst], self.fvals[worst] = xe, fe
                    return
            self.verts[worst], self.fvals[worst] = xr, fr
            return
        if fr < self.fvals[-2]:
            self.verts[worst], self.fvals[worst] = xr, fr
            return
        if not self._budget():
            return
        if fr < self.fvals[worst]:  # outside contraction
            xc = self._clip(centroid + 0.5 * (xr - centroid))
        else:                        # inside contraction
            xc = self._clip(centroid - 0.5 * (centroid - self.verts[worst]))
        fc = self.func(xc)
        if fc < min(fr, self.fvals[worst]):
            self.verts[worst], self.fvals[worst] = xc, fc
            return
        # shrink toward the best vertex
        for j in range(1, self.verts.shape[0]):
            if not self._budget():
                return
            self.verts[j] = self._clip(self.verts[0]
                                       + 0.5 * (self.verts[j] - self.verts[0]))
            self.fvals[j] = self.func(self.verts[j])

    def _converged(self):
        scale = np.maximum(np.abs(self.verts[0]),
                           1e-3 * (self.hi - self.lo))
        diam = np.max(np.abs(self.verts - self.verts[0]) / scale)
        if diam >= _DIAM_TOL:
            return False
        if len(self.best_history) <= _IMPROVE_WINDOW:
            return False
        f_now = self.best_history[-1]
        f_then = self.best_history[-1 - _IMPROVE_WINDOW]
        improvement = (f_then - f_now) / max(abs(f_now), 1e-300)
        return improvement < _IMPROVE_TOL


def _curvature(func, x, lo, hi, f_best):
    """Second-difference curvature of the objective at the minimum along each
    parameter; NaN where a parameter is pinned at a bound (one-sided)."""
    curvature = np.full(x.size, np.nan)
    for i in range(x.size):
        span = hi[i] - lo[i]
        h = min(1e-3 * span, x[i] - lo[i], hi[i] - x[i])
        if h < 1e-12 * span:
            continue
        step = np.where(np.arange(x.size) == i, h, 0.0)
        curvature[i] = (func(x + step) - 2.0 * f_best + func(x - step)) / h**2
    return curvature


def fit_report_dict(result: FitResult, fp: FitProblem) -> dict:
    """JSON-ready report of a completed fit."""
    return {
        "channel": fp.channel,
        "free_parameters": list(fp.free),
        "best_params": {k: result.best_params[k] for k in fp.free},
        "units": result.units,
        "residual_norm": result.residual_norm,
        "initial_residual_norm": result.initial_residual_norm,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "sensitivity": result.sensitivity,
        "convergence_trace": [[int(i), float(f)] for i, f in result.trace],
    }
