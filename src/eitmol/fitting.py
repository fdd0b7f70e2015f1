"""Least-squares recovery of the vibronic dipole moment and dephasings.

The workflow mirrors how such spectra are analyzed in practice: fit the
upper-level fluorescence first (its splitting pins the coupling Rabi
frequency and hence the dipole matrix element), then forward-simulate the
intermediate-level spectrum as a consistency check.

The fit is a variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10
(1973) 413).  ``amplitude_scale`` and ``baseline_offset`` enter the model
linearly, so at every point of the search they are solved for exactly, by
bounded least squares on the one simulated spectrum, and the search runs
over the other (nonlinear) free parameters only; with none, the spectrum at
the initial values is the whole fit.

The search is one Levenberg-Marquardt loop (Marquardt, J. SIAM 11 (1963)
431) on the projected residual, the residual at the solved linear values.
Its Jacobian is a forward difference with step h = 1e-3 (hi - lo), taken
backward where x + h would leave the box (Kaufman, BIT 15 (1975) 49, for
the projected Jacobian).  The damping starts at 1e-3, is divided by 10 on
an accepted step and multiplied by 10 on a rejected one, and each step is
clipped to the box.  A trial point is simulated in one call together with
its mu_coupling partner x + h e_mu, which shares its system (only the
coupling Rabi frequency differs), so an accepted point's mu column costs
nothing more; every other column costs one spectrum.  The search converges
when the proposed step, once clipped, moves no parameter x by more than
1e-4 max(|x|, 1e-3 (hi - lo)); that step is not simulated, and x, whose
Jacobian is complete, is the result.  The narrow lines of a Doppler-free
target give chi^2 several minima in mu, so there the search starts from the
best of the start and a bracket of mu values at the centres of
``_BRACKET`` equal cells of the box, simulated in one call.

The error bars come from the same Jacobian at the best point, with the
linear parameters' columns added (Golub & Pereyra, Inverse Problems 19
(2003) R1): no spectrum is simulated for them.  Every spectrum counts
against a hard cap.  Residuals are weighted by 1/sigma when the target
carries uncertainties.  Identical problems and starting points always
produce identical results.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .doppler import Ensemble, QuadratureSpec
from .spectrum import (ENGINE_ANALYTIC, SIGNALS, ScanConfig, Spectrum,
                       simulate_many)
from .sublevels import build_channels
from .system import CascadeSystem, LaserPair
from .units import angular_from_mhz, rabi_frequency

FIT_PARAMETERS = ("mu_coupling", "gamma12_col", "gamma13_col", "gamma23_col",
                  "amplitude_scale", "baseline_offset")
LINEAR_PARAMETERS = ("amplitude_scale", "baseline_offset")
PARAMETER_UNITS = {
    "mu_coupling": "au",
    "gamma12_col": "MHz",
    "gamma13_col": "MHz",
    "gamma23_col": "MHz",
    "amplitude_scale": "1",
    "baseline_offset": "signal",
}

_REL_TOL = 1e-4      # convergence: a step within 1e-4 max(|x|, 1e-3 (hi - lo))
_STEP = 1e-3         # Jacobian step, as a share of the box
_DAMPING = 1e-3      # initial Marquardt damping
_BRACKET = 12        # mu values of the Doppler-free bracket


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Target spectrum plus the fixed simulation context.

    ``target_sigma`` holds the target's 1-sigma uncertainties (None: every
    point weighs the same); ``engine`` and ``threads`` are passed to every
    simulation of the fit.
    """

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
    max_evaluations: int = 2000
    target_sigma: np.ndarray | None = None
    engine: str = ENGINE_ANALYTIC
    threads: int = 1

    def __post_init__(self):
        grid = np.asarray(self.target_delta1_mhz, float)
        sig = np.asarray(self.target_signal, float)
        if grid.shape != sig.shape or grid.ndim != 1:
            raise ValueError("target grid and signal must be equal-length 1-D")
        if not np.all(np.isfinite(sig)):
            raise ValueError("target_signal must be finite")
        try:   # the grid checks of every scan
            ScanConfig(grid)
        except ValueError as exc:
            raise ValueError(f"target_delta1_mhz: {exc}") from None
        object.__setattr__(self, "target_delta1_mhz", grid)
        object.__setattr__(self, "target_signal", sig)
        if self.target_sigma is not None:
            sigma = np.asarray(self.target_sigma, float)
            if sigma.shape != sig.shape:
                raise ValueError("target sigma must match the target signal")
            if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
                raise ValueError("target sigma must be finite and positive")
            object.__setattr__(self, "target_sigma", sigma)
        if self.channel not in SIGNALS:
            raise ValueError(f"channel must be one of {', '.join(SIGNALS)},"
                             f" got {self.channel!r}")
        if not self.free:
            raise ValueError("at least one free parameter is required")
        bad = set(self.free) - set(FIT_PARAMETERS)
        if bad:
            raise ValueError(f"unknown fit parameters: {sorted(bad)}")
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"free: each parameter at most once, got"
                             f" {list(self.free)}")
        if self.doppler_on != (self.ensemble is not None):
            raise ValueError(f"doppler_on = {self.doppler_on} needs"
                             f" {'an' if self.doppler_on else 'no'} ensemble")
        for name in self.free:
            if name not in self.bounds:
                raise ValueError(f"free parameter {name} has no bounds")
            lo, hi = self.bounds[name]
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name} must be finite, lo < hi")
        if not self.max_evaluations >= 1:
            raise ValueError(f"max_evaluations must be >= 1, got"
                             f" {self.max_evaluations}")
        # the line strengths, which no fit parameter moves; each spectrum
        # sets only the coupling's Rabi frequency (``_simulate``)
        object.__setattr__(self, "_channels", build_channels(
            self.system, self.mu_probe_au, self.mu_coupling_au,
            self.lasers.field_probe, self.lasers.field_coupling))
        # the unverified and the verified scan, indexed by ``verify``
        object.__setattr__(self, "_scans", tuple(ScanConfig(
            grid, self.delta2_mhz, (self.channel,), self.doppler_on,
            self.m_sum_on, self.engine, verify) for verify in (False, True)))


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
        """name -> {curvature, half_interval, tolerance_interval}: local
        scales from the Jacobian at the best point, not full confidence
        intervals.

        ``curvature`` is 2 / [(J^T W J)^-1]_ii, so ``half_interval``,
        sqrt(2 (chi^2/dof) / curvature), is the marginal 1-sigma with the
        noise level read from the residuals; ``tolerance_interval``,
        sqrt(2 chi^2 / curvature), is the move that doubles the best
        objective when the other parameters follow.  Both are NaN for a
        parameter pinned at a bound and inf where the curvature is not
        positive.
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
    gammas = {name: angular_from_mhz(params[name]) for name in
              ("gamma12_col", "gamma13_col", "gamma23_col") if name in params}
    sys = replace(fp.system, **gammas) if gammas else fp.system
    mu_c = params.get("mu_coupling", fp.mu_coupling_au)
    scale = params.get("amplitude_scale", 1.0)
    offset = params.get("baseline_offset", 0.0)
    return sys, mu_c, scale, offset


def _simulate(fp: FitProblem, points: list, verify: bool) -> list:
    """The spectra at ``points``, dicts of parameters, in one simulation;
    the points share the system, so they differ in mu_coupling at most."""
    sys = _context(fp, points[0])[0]
    channelsets = [fp._channels.with_coupling(rabi_frequency(
        _context(fp, params)[1], fp.lasers.field_coupling))
        for params in points]
    return simulate_many(sys, fp.lasers, fp.ensemble, channelsets,
                         fp._scans[verify], fp.quadrature, fp.threads)


def model_spectrum(fp: FitProblem, params: dict) -> Spectrum:
    """Unverified simulated spectrum on the target grid at params."""
    return _simulate(fp, [params], verify=False)[0]


def _residual(fp, model, scale, offset):
    """(Sigma-weighted) residual of scale*model + offset against the
    target."""
    resid = scale * model + offset - fp.target_signal
    if fp.target_sigma is not None:
        resid /= fp.target_sigma
    return resid


def _chi2(fp, model, scale, offset):
    """Sum of squared (sigma-weighted) residuals of scale*model + offset
    against the target."""
    resid = _residual(fp, model, scale, offset)
    return float(np.dot(resid, resid))


def validate_quadrature(fp: FitProblem, params: dict) -> Spectrum:
    """The spectrum at params, checked on doubled nodes if Doppler-on."""
    return _simulate(fp, [params], verify=True)[0]


def fit(fp: FitProblem, init: dict) -> FitResult:
    """Variable-projection least squares over the free parameters, by the
    search of the module docstring.  ``evaluations`` counts every spectrum
    the fit simulates (the error bars take none) and ``iterations`` the
    evaluated steps.  ``fp.max_evaluations`` caps all spectra: a batch that
    does not fit it is not started, and the search stops unconverged at the
    best point found.  ``curvature`` is 2 / [(J^T W J)^-1]_ii of the
    Jacobian J at the best point, NaN for a parameter pinned at a bound or
    whose column the budget left unsimulated (both are then held fixed).
    """
    missing = [name for name in fp.free if name not in init]
    if missing:
        raise ValueError(f"free parameters without an initial value:"
                         f" {missing}")
    x0 = np.array([float(init[name]) for name in fp.free])
    lo = np.array([fp.bounds[n][0] for n in fp.free])
    hi = np.array([fp.bounds[n][1] for n in fp.free])
    outside = [n for n, x, a, b in zip(fp.free, x0, lo, hi)
               if not a <= x <= b]      # a NaN is in no box
    if outside:
        raise ValueError(f"initial values not finite and within their"
                         f" bounds: {outside}")
    start = dict(zip(fp.free, x0))

    nonlinear = [i for i, n in enumerate(fp.free)
                 if n not in LINEAR_PARAMETERS]
    proj = _Projection(fp, [fp.free[i] for i in nonlinear], start)
    box = lo[nonlinear], hi[nonlinear]
    xn = x0[nonlinear]
    model = proj.spectra([xn])[0]
    _, _, scale, offset = _context(fp, start)
    initial_f = _chi2(fp, model, scale, offset)
    proj.note(proj.chi2(model))
    partners, converged, iterations = [], True, 0
    if nonlinear:
        if not fp.doppler_on and "mu_coupling" in proj.names:
            xn, model = _bracket(proj, xn, model, *box)
        xn, model, partners, converged, iterations = _search(proj, xn, model,
                                                             *box)
    residual, linear = proj.residual(model)
    best = dict(zip(proj.names, xn.tolist())) | linear
    best_x = np.array([best[n] for n in fp.free])
    slopes = {name: (p - model) / h for name, p, h in
              zip(proj.names, partners, _steps(xn, *box)) if p is not None}
    return FitResult(
        best_params=dict(zip(fp.free, best_x.tolist())),
        residual_norm=float(np.dot(residual, residual)),
        initial_residual_norm=initial_f,
        iterations=iterations,
        evaluations=proj.evaluations,
        converged=converged,
        dof=max(fp.target_signal.size - len(fp.free), 1),
        curvature=_curvature(fp, linear, model, slopes, best_x, lo, hi),
        trace=np.array(proj.trace, float).reshape(-1, 2),
    )


def synthetic_target(spec: Spectrum, channel: str, noise_fraction: float,
                     seed: int):
    """Multiplicative-Gaussian noisy copy of a simulated signal."""
    rng = np.random.default_rng(seed)
    signal = spec.signals[channel]
    return signal * (1.0 + noise_fraction * rng.standard_normal(signal.size))


def _steps(x, lo, hi):
    """Jacobian steps at x: 1e-3 of the box, backward where x + h > hi."""
    h = _STEP * (hi - lo)
    return np.where(x + h > hi, -h, h)


def _bracket(proj, x, model, lo, hi):
    """The best of x and the mu values at the centres of ``_BRACKET`` equal
    cells of the box, the other parameters as at x, simulated in one call
    (skipped when it does not fit the budget).  Returns (point, model)."""
    mu = proj.names.index("mu_coupling")
    points = np.repeat(x[None, :], _BRACKET, axis=0)
    points[:, mu] = lo[mu] + (np.arange(_BRACKET) + 0.5) * (
        (hi[mu] - lo[mu]) / _BRACKET)
    models = proj.spectra(list(points)) or []
    f = proj.chi2(model)
    for k, trial in enumerate(models):
        f_trial = proj.chi2(trial)
        proj.note(f_trial, k)
        if f_trial < f:
            x, model, f = points[k], trial, f_trial
    return x, model


def _search(proj, x, model, lo, hi):
    """Levenberg-Marquardt from x, whose model signal is ``model`` (see the
    module docstring).  Returns (x, model, partners, converged, iterations):
    the best point, its model, and per nonlinear parameter j the model at
    x + h_j e_j, None where the budget left it unsimulated.  It converges on
    a proposed step within the tolerance, which it does not simulate, so the
    Jacobian at the best point, for the error bars, is the one just used."""
    mu = proj.names.index("mu_coupling") if "mu_coupling" in proj.names \
        else None
    axes = np.eye(x.size)
    resid = proj.residual(model)[0]
    f = float(np.dot(resid, resid))
    partners = [None] * x.size
    jac = None
    damping, iterations = _DAMPING, 0
    while True:
        h = _steps(x, lo, hi)
        for j in range(x.size):   # the Jacobian at x
            if partners[j] is None:
                models = proj.spectra([x + h[j] * axes[j]])
                if models is None:
                    return x, model, partners, False, iterations
                partners[j] = models[0]
        if jac is None:
            jac = np.stack([(proj.residual(p)[0] - resid) / h[j]
                            for j, p in enumerate(partners)], axis=1)
        a = jac.T @ jac
        d = np.diag(a)      # Marquardt's scaling; 1 for a column of zeros
        step = np.linalg.solve(a + damping * np.diag(np.where(d > 0, d, 1.0)),
                               -(jac.T @ resid))
        trial = np.clip(x + step, lo, hi)
        if np.all(np.abs(trial - x) <= _REL_TOL * np.maximum(
                np.abs(x), 1e-3 * (hi - lo))):
            return x, model, partners, True, iterations
        batch = [trial] if mu is None else \
            [trial, trial + _steps(trial, lo, hi)[mu] * axes[mu]]
        models = proj.spectra(batch)
        if models is None:
            return x, model, partners, False, iterations
        iterations += 1
        trial_resid = proj.residual(models[0])[0]
        f_trial = float(np.dot(trial_resid, trial_resid))
        if f_trial < f:
            x, model, resid, f = trial, models[0], trial_resid, f_trial
            partners = [models[1] if j == mu else None for j in range(x.size)]
            jac = None
            proj.note(f)
            damping /= 10.0
        else:
            damping *= 10.0


def _curvature(fp, linear, model, slopes, x, lo, hi):
    """2 / [(J^T W J)^-1]_ii per free parameter at the best point x, for the
    Jacobian J of scale*model + offset: the model itself, ones, and scale
    times ``slopes`` (name -> forward difference of the model).

    A parameter pinned at a bound or without a slope is held fixed and
    reads NaN.  Each value is twice the Schur complement of its parameter
    in J^T W J, so a direction the data leave free reads 0, not NaN."""
    scale = _context(fp, linear)[2]
    columns = {"amplitude_scale": model,
               "baseline_offset": np.ones_like(model)}
    columns |= {name: scale * slope for name, slope in slopes.items()}
    use = [i for i, name in enumerate(fp.free) if name in columns
           and min(x[i] - lo[i], hi[i] - x[i]) >= 1e-12 * (hi[i] - lo[i])]
    jac = np.reshape([columns[fp.free[i]] for i in use],
                     (len(use), model.size))    # a row per parameter
    if fp.target_sigma is not None:
        jac /= fp.target_sigma
    a = jac @ jac.T
    curvature = np.full(len(fp.free), np.nan)
    for k, i in enumerate(use):
        rest = np.arange(len(use)) != k
        curvature[i] = 2.0 * (a[k, k] - a[k, rest] @ np.linalg.pinv(
            a[np.ix_(rest, rest)]) @ a[rest, k])
    return curvature


class _Projection:
    """chi^2 of the nonlinear parameters, with the linear ones at their exact
    bounded least-squares values.

    Simulates the fit's spectra, counting them against
    ``fp.max_evaluations``, and records the convergence trace; it keeps no
    model arrays.
    """

    def __init__(self, fp, names, start):
        self.fp = fp
        self.names = names
        self.scale0 = start.get("amplitude_scale", 1.0)
        self.weight = np.ones_like(fp.target_signal) \
            if fp.target_sigma is None else 1.0 / fp.target_sigma**2
        self.weight_sum = float(np.sum(self.weight))
        self.evaluations = 0
        self.batch = 0
        self.trace = []

    def spectra(self, xs):
        """The model signals at the nonlinear points xs (linear ones unset),
        simulated in one call, or None when they do not fit the budget.
        The points differ in mu_coupling at most; the first call, the fit's
        start alone, validates the quadrature."""
        if self.evaluations + len(xs) > self.fp.max_evaluations:
            return None
        verify = not self.evaluations
        self.evaluations += len(xs)
        self.batch = len(xs)
        points = [dict(zip(self.names, x.tolist())) for x in xs]
        return [spec.signals[self.fp.channel]
                for spec in _simulate(self.fp, points, verify)]

    def residual(self, model):
        """The residual at the model's best linear values, and those."""
        linear = self._solve(model)
        _, _, scale, offset = _context(self.fp, linear)
        return _residual(self.fp, model, scale, offset), linear

    def chi2(self, model):
        resid = self.residual(model)[0]
        return float(np.dot(resid, resid))

    def note(self, f, k=0):
        """Trace chi^2 f of spectrum k of the last batch if it is a new
        best."""
        if not self.trace or f < self.trace[-1][1]:
            self.trace.append((self.evaluations - self.batch + k + 1, f))

    def _solve(self, m):
        """Bounded weighted least squares for the free linear parameters.

        The normal-equation solution when it lies in the box, else the best
        of the clipped 1-D solutions along the box's edges; a scale whose
        model column is all zeros keeps its initial value.  Returns
        {name: value}."""
        fp, w, t = self.fp, self.weight, self.fp.target_signal
        free_s = "amplitude_scale" in fp.free
        free_o = "baseline_offset" in fp.free
        wm = w * m
        smm, sm = float(np.dot(wm, m)), float(np.sum(wm))
        smt, st = float(np.dot(wm, t)), float(np.dot(w, t))
        s1 = self.weight_sum
        # a linear parameter that is not free stays at 1 (scale) or 0
        s_lo, s_hi = fp.bounds.get("amplitude_scale", (1.0, 1.0))
        o_lo, o_hi = fp.bounds.get("baseline_offset", (0.0, 0.0))

        def best_s(o):
            if smm == 0.0:
                return self.scale0
            return min(max((smt - o * sm) / smm, s_lo), s_hi)

        def best_o(s):
            return min(max((st - s * sm) / s1, o_lo), o_hi)

        if free_s and free_o and smm > 0.0:
            det = smm * s1 - sm * sm
            s = o = math.nan
            if det > 0.0:
                s = (s1 * smt - sm * st) / det
                o = (smm * st - sm * smt) / det
            if not (s_lo <= s <= s_hi and o_lo <= o <= o_hi):
                edges = [(s_lo, best_o(s_lo)), (s_hi, best_o(s_hi)),
                         (best_s(o_lo), o_lo), (best_s(o_hi), o_hi)]
                s, o = min(edges, key=lambda so: _chi2(fp, m, *so))
        elif free_o:
            s, o = self.scale0, best_o(self.scale0)
        else:
            s, o = best_s(0.0), 0.0
        linear = {}
        if free_s:
            linear["amplitude_scale"] = float(s)
        if free_o:
            linear["baseline_offset"] = float(o)
        return linear


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
