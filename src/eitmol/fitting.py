"""Least-squares recovery of the vibronic dipole moment and dephasings.

The workflow mirrors how such spectra are analyzed in practice: fit the
upper-level fluorescence first (its splitting pins the coupling Rabi
frequency and hence the dipole matrix element), then forward-simulate the
intermediate-level spectrum as a consistency check.

The fit is a variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10
(1973) 413).  ``amplitude_scale`` and ``baseline_offset`` enter the model
linearly, so at every point of the search they are solved for exactly, by
bounded least squares on the one simulated spectrum, and the search runs
over the other (nonlinear) free parameters only.  That search is Powell's
conjugate-direction method (Powell, Comput. J. 7 (1964) 155), each line
search a bounded Brent golden-section and parabolic search (Brent,
Algorithms for Minimization without Derivatives, 1973): with one nonlinear
parameter, as in the dipole fit, a single Brent search; with none, the
spectrum at the initial values is the whole fit.

Objective evaluations are full spectrum simulations, so the search is
derivative-free with a hard evaluation cap.  Residuals are weighted by
1/sigma when the target carries uncertainties.  Identical problems and
starting points always produce identical results.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .doppler import Ensemble, QuadratureSpec
from .spectrum import ENGINE_ANALYTIC, SIGNALS, ScanConfig, Spectrum, simulate
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

_REL_TOL = 1e-4
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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
    gammas = {name: angular_from_mhz(params[name]) for name in
              ("gamma12_col", "gamma13_col", "gamma23_col") if name in params}
    sys = replace(fp.system, **gammas) if gammas else fp.system
    mu_c = params.get("mu_coupling", fp.mu_coupling_au)
    scale = params.get("amplitude_scale", 1.0)
    offset = params.get("baseline_offset", 0.0)
    return sys, mu_c, scale, offset


def _simulate(fp: FitProblem, params: dict, verify: bool) -> Spectrum:
    sys, mu_c, _, _ = _context(fp, params)
    channelset = fp._channels.with_coupling(
        rabi_frequency(mu_c, fp.lasers.field_coupling))
    scan = ScanConfig(
        delta1_mhz=fp.target_delta1_mhz,
        delta2_mhz=fp.delta2_mhz,
        channels=(fp.channel,),
        doppler_on=fp.doppler_on,
        m_sum_on=fp.m_sum_on,
        engine=fp.engine,
        verify_quadrature=verify,
    )
    return simulate(sys, fp.lasers, fp.ensemble, channelset, scan,
                    quadrature=fp.quadrature, threads=fp.threads)


def model_spectrum(fp: FitProblem, params: dict) -> Spectrum:
    """Unverified simulated spectrum on the target grid at params."""
    return _simulate(fp, params, verify=False)


def _chi2(fp, model, scale, offset):
    """Sum of squared (sigma-weighted) residuals of scale*model + offset
    against the target."""
    resid = scale * model + offset - fp.target_signal
    if fp.target_sigma is not None:
        resid /= fp.target_sigma
    return float(np.dot(resid, resid))


def validate_quadrature(fp: FitProblem, params: dict) -> Spectrum:
    """The spectrum at params, checked on doubled nodes if Doppler-on."""
    return _simulate(fp, params, verify=True)


def fit(fp: FitProblem, init: dict) -> FitResult:
    """Variable-projection least squares over the free parameters.

    The linear parameters are solved for exactly at every nonlinear point
    (see the module docstring for the search).  ``evaluations`` counts every
    spectrum the fit simulates: the start, whose quadrature is validated,
    the search's and two per nonlinear curvature.  The search converges when
    a cycle of Powell's method (Powell 1964) moves no nonlinear parameter x
    by more than Brent's tolerance 1e-4 max(|x|, 1e-3 (hi - lo)); with one,
    its Brent search is the whole search.  ``iterations`` counts the Brent
    steps of all line searches.  ``fp.max_evaluations`` caps all spectra: a
    search that reaches it flags non-convergence (the best point found is
    still returned), and a curvature that does not fit reads NaN.
    """
    missing = [name for name in fp.free if name not in init]
    if missing:
        raise ValueError(f"free parameters without an initial value:"
                         f" {missing}")
    x0 = np.array([float(init[name]) for name in fp.free])
    lo = np.array([fp.bounds[n][0] for n in fp.free])
    hi = np.array([fp.bounds[n][1] for n in fp.free])
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("initial point outside bounds")
    start = dict(zip(fp.free, x0))

    nonlinear = [i for i, n in enumerate(fp.free)
                 if n not in LINEAR_PARAMETERS]
    proj = _Projection(fp, [fp.free[i] for i in nonlinear], start)
    xn, xlo, xhi = x0[nonlinear], lo[nonlinear], hi[nonlinear]
    model = proj.spectrum(xn)
    _, _, scale, offset = _context(fp, start)
    initial_f = _chi2(fp, model, scale, offset)
    best_f = proj.project(xn, model)
    xn, best_f, converged, iterations = _powell(proj, xn, best_f, xlo, xhi,
                                                proj.room)
    linear, sum_wm2 = proj.solutions[xn.tobytes()]
    best = dict(zip(proj.names, xn.tolist())) | linear
    best_x = np.array([best[n] for n in fp.free])

    # second differences of chi^2 at the best linear values
    _, _, scale, offset = _context(fp, linear)
    curvature = np.full(len(fp.free), np.nan)
    for i, name in enumerate(fp.free):
        h = _half_step(best_x[i], lo[i], hi[i])
        if h is None:
            continue
        if name in LINEAR_PARAMETERS:  # chi^2 is exactly quadratic in it
            curvature[i] = 2.0 * (sum_wm2 if name == "amplitude_scale"
                                  else proj.weight_sum)
        elif proj.room(2):
            step = h * (np.arange(xn.size) == nonlinear.index(i))
            f_up, f_down = (_chi2(fp, proj.spectrum(x), scale, offset)
                            for x in (xn + step, xn - step))
            curvature[i] = (f_up - 2.0 * best_f + f_down) / h**2
    return FitResult(
        best_params=dict(zip(fp.free, best_x.tolist())),
        residual_norm=best_f,
        initial_residual_norm=initial_f,
        iterations=iterations,
        evaluations=proj.evaluations,
        converged=converged,
        dof=max(fp.target_signal.size - len(fp.free), 1),
        curvature=curvature,
        trace=np.array(proj.trace, float).reshape(-1, 2),
    )


def synthetic_target(spec: Spectrum, channel: str, noise_fraction: float,
                     seed: int):
    """Multiplicative-Gaussian noisy copy of a simulated signal."""
    rng = np.random.default_rng(seed)
    signal = spec.signals[channel]
    return signal * (1.0 + noise_fraction * rng.standard_normal(signal.size))


class _Projection:
    """chi^2 of the nonlinear parameters, with the linear ones at their exact
    bounded least-squares values.

    Counts the spectra it simulates against ``fp.max_evaluations``, records
    the convergence trace and keeps the linear solution (and the model's
    sum w m^2) at every point it evaluates, keyed by the point's bytes; it
    keeps no model arrays.
    """

    def __init__(self, fp, names, start):
        self.fp = fp
        self.names = names
        self.scale0 = start.get("amplitude_scale", 1.0)
        self.weight = np.ones_like(fp.target_signal) \
            if fp.target_sigma is None else 1.0 / fp.target_sigma**2
        self.weight_sum = float(np.sum(self.weight))
        self.evaluations = 0
        self.trace = []
        self.solutions = {}

    def room(self, n=1):
        """True when n more evaluations fit the budget."""
        return self.evaluations + n <= self.fp.max_evaluations

    def spectrum(self, x):
        """One model signal at the nonlinear point x (linear ones unset);
        the first, the fit's start, validates the quadrature."""
        simulate_at = model_spectrum if self.evaluations else \
            validate_quadrature
        self.evaluations += 1
        return simulate_at(self.fp, dict(zip(self.names, x.tolist()))) \
            .signals[self.fp.channel]

    def project(self, x, model):
        linear, sum_wm2 = self._solve(model)
        _, _, scale, offset = _context(self.fp, linear)
        f = _chi2(self.fp, model, scale, offset)
        self.solutions[x.tobytes()] = (linear, sum_wm2)
        if not self.trace or f < self.trace[-1][1]:
            self.trace.append((self.evaluations, f))
        return f

    def __call__(self, x):
        return self.project(x, self.spectrum(x))

    def _solve(self, m):
        """Bounded weighted least squares for the free linear parameters.

        The normal-equation solution when it lies in the box, else the best
        of the clipped 1-D solutions along the box's edges; a scale whose
        model column is all zeros keeps its initial value.  Returns
        ({name: value}, sum w m^2)."""
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
        return linear, smm


def _brent(func, x, fx, lo, hi, room):
    """Brent's bounded minimization of func on [lo, hi] from x, f(x) = fx.

    Golden-section steps, parabolic steps where the parabola through the
    three best points is trusted (Brent 1973, ch. 5).  It stops once the
    bracket around x lies within tol/2 of it, tol = 1e-4 max(|x|,
    1e-3 (hi - lo)); a minimum within tol of a bound is then compared with
    the bound itself, so a parameter pinned there lands exactly on it.
    ``room()`` says whether one more evaluation is allowed.  Returns
    (x, f(x), converged, iterations).
    """
    a, b = lo, hi
    v = w = x
    fv = fw = fx
    d = e = 0.0
    iterations = 0
    converged = False
    while True:
        tol = _REL_TOL * max(abs(x), 1e-3 * (hi - lo))
        tol1, tol2 = 0.25 * tol, 0.5 * tol
        xm = 0.5 * (a + b)
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        if not room():
            break
        iterations += 1
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) \
                    and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
                golden = False
        if golden:
            e = a - x if x >= xm else b - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = func(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    edge = lo if x - lo <= hi - x else hi
    if converged and x != edge and abs(x - edge) <= tol and room():
        fe = func(edge)
        if fe <= fx:
            x, fx = edge, fe
    return x, fx, converged, iterations


def _line(func, x, fx, d, lo, hi, room):
    """Brent's search of func along direction d through x, f(x) = fx.

    The line is parametrized by the coordinate k where |d| is largest and
    restricted to the segment that stays in the box, so along a coordinate
    axis this is ``_brent`` on that coordinate.  Returns (point, f(point),
    converged, iterations)."""
    k = int(np.argmax(np.abs(d)))
    d = d / d[k]
    others = (d != 0.0) & (np.arange(x.size) != k)
    ends = np.sort(x[k] + (np.stack([lo, hi])[:, others] - x[others])
                   / d[others], axis=0)
    t_lo = min(x[k], ends[0].max(initial=lo[k]))
    t_hi = max(x[k], ends[1].min(initial=hi[k]))

    def point(t):
        p = np.clip(x + (t - x[k]) * d, lo, hi)
        p[k] = t
        return p

    t, ft, converged, iterations = _brent(lambda t: func(point(t)), x[k], fx,
                                          t_lo, t_hi, room)
    # x itself when the search stays put: point(x[k]) may differ from x in
    # the sign of a zero, and the projection keeps solutions by the bytes
    return (x if t == x[k] else point(t)), ft, converged, iterations


def _powell(func, x, fx, lo, hi, room):
    """Powell's conjugate-direction minimization of func on the box [lo, hi]
    from x, f(x) = fx (Powell, Comput. J. 7 (1964) 155).

    A cycle runs ``_line`` along each direction, the axes at first; one that
    moves no coordinate by more than Brent's tolerance ends the search, as
    does the first line search in one dimension.  Otherwise Powell's test on
    f at the cycle's start, at its end x and at 2x - start decides whether a
    line search along the net move follows, the move then replacing the
    direction of largest decrease.  A net move that starts or would end on a
    face of the box in a coordinate it changes is not taken: a bound stopped
    it.  x is always the best point evaluated.  Returns (x, f(x), converged,
    the Brent steps of all line searches).
    """
    directions = list(np.eye(x.size))
    iterations = 0
    while True:
        start, f_start, drops = x, fx, []
        for d in directions:
            x, f, converged, steps = _line(func, x, fx, d, lo, hi, room)
            iterations += steps
            drops.append(fx - f)
            fx = f
            if not converged:
                return x, fx, False, iterations
        move = x - start
        if x.size == 1 or np.all(np.abs(move) <= _REL_TOL * np.maximum(
                np.abs(x), 1e-3 * (hi - lo))):
            return x, fx, True, iterations
        ahead = 2.0 * x - start
        if np.any((move != 0.0) & ((start <= lo) | (start >= hi)
                                   | (ahead <= lo) | (ahead >= hi))):
            continue
        if not room():
            return x, fx, False, iterations
        f_ahead, big = func(ahead), max(drops)
        if f_ahead < f_start and 2.0 * (f_start - 2.0 * fx + f_ahead) * (
                f_start - fx - big)**2 < big * (f_start - f_ahead)**2:
            x, fx, converged, steps = _line(func, x, fx, move, lo, hi, room)
            iterations += steps
            del directions[int(np.argmax(drops))]
            directions.append(move)
        if f_ahead < fx:   # also where that search stopped short of 2x - start
            x, fx = ahead, f_ahead
        if not converged:
            return x, fx, False, iterations


def _half_step(x, lo, hi):
    """Second-difference step at x in [lo, hi]; None when x is pinned at a
    bound (closer to it than 1e-12 of the span)."""
    h = min(1e-3 * (hi - lo), x - lo, hi - x)
    return None if h < 1e-12 * (hi - lo) else h


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
