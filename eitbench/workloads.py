"""The three benchmark workloads: their inputs, timed call and output checks.

Each workload is built once per process (inputs are prepared before timing),
then ``call()`` is timed round after round.  ``collect()`` runs between
rounds, outside the timed region, and keeps what ``check()`` needs; checks
run after the last round against references computed in ``reference.py``.
The seed only chooses which delta1 points are checked by adaptive
quadrature, so every seed times exactly the same work.
"""

import dataclasses
import os

import numpy as np

PEAK_TOL = 1e-6          # reference agreement, as a share of the column peak
DIP_TOL_MHZ = 10.0
FIT_MU_TRUTH = 1.45
FIT_MU_REL_TOL = 0.02
QUAD_POINTS = 5


def _channels(cfg, mu_coupling=None):
    from eitmol.sublevels import build_channels
    return build_channels(cfg.system, cfg.mu_probe_au,
                          mu_coupling or cfg.mu_coupling_au,
                          cfg.lasers.field_probe, cfg.lasers.field_coupling)


def parse_spectrum_csv(text):
    """delta1, rho22, rho33 columns of a spectrum CSV written by eitmol."""
    rows = [line.split(",") for line in text.splitlines()
            if not line.startswith("#")]
    if not rows or rows[0] != ["delta1_MHz", "rho22_au", "rho33_au"]:
        raise ValueError(f"unexpected CSV header {rows[:1]!r}")
    return np.array(rows[1:], float).T


def _check_points(rng, n, must=(), count=QUAD_POINTS):
    """The ``must`` indices plus ``count`` others drawn from the seed."""
    pool = np.setdiff1d(np.arange(n), must)
    return sorted(set(must) | set(rng.choice(pool, count, replace=False)))


class Scan:
    """``eitmol simulate`` on one bundled preset, through ``cli.main``."""

    def __init__(self, preset, seed, outdir):
        from eitmol.cli import main
        from eitmol.config import load_config
        self.cfg = load_config(preset)
        self.channelset = _channels(self.cfg)
        self.rng = np.random.default_rng(seed)
        self.argv = ["simulate", "--config", preset, "--threads", "1",
                     "--out", outdir]
        self.csv = os.path.join(outdir, self.cfg.output.basename + ".csv")
        self._main = main
        self.outputs = []

    def prepare(self):
        """Nothing to prepare: the preset is the input."""

    def call(self):
        """Timed: one full preset simulation plus its CSV/JSON write."""
        rc = self._main(self.argv)
        if rc != 0:
            raise RuntimeError(f"eitmol simulate exited with code {rc}")
        return 1

    def collect(self):
        if os.path.exists(self.csv):
            with open(self.csv, encoding="ascii") as fh:
                self.outputs.append(fh.read())
            os.remove(self.csv)
        else:
            self.outputs.append(None)

    def check(self):
        """One list of failure messages per collected round."""
        import reference
        cas = reference.Cascade(self.cfg, self.channelset.g1_bare,
                                self.channelset.g2_bare)
        common = []
        if list(cas.abs_m) != [c.abs_m for c in self.channelset.channels]:
            common.append("eitmol's |M| channels differ from the selection"
                          " rules")
        grid = self.cfg.scan.delta1_mhz
        self._quad = {}
        self._idx = None
        results = []
        for text in self.outputs:
            if text is None:
                results.append(["no CSV written"])
                continue
            try:
                out = parse_spectrum_csv(text)
            except ValueError as exc:
                results.append([f"CSV unreadable: {exc}"])
                continue
            if out[0].shape != grid.shape \
                    or np.max(np.abs(out[0] - grid)) > 1e-9:
                results.append(["delta1 grid differs from the preset"])
            else:
                results.append(common + self._check_one(reference, cas, *out))
        return results

    def _quad_errors(self, reference, cas, x, cols, must=()):
        """Both columns against quad at the dip (if any) and seeded points."""
        if self._idx is None:
            self._idx = _check_points(self.rng, x.size, must)
        scale = max(float(np.max(c)) for c in cols)
        errs = []
        for i in self._idx:
            if i not in self._quad:
                self._quad[i] = reference.quad_populations(
                    cas, x[i], self.cfg.scan.delta2_mhz, scale)
            for name, col, ref in zip(("rho22", "rho33"), cols, self._quad[i]):
                peak = float(np.max(col))
                if peak == 0.0:
                    if ref != 0.0:
                        errs.append(f"{name} at {x[i]:.2f} MHz: zero column"
                                    f" but quad gives {ref:.3e}")
                    continue
                dev = abs(col[i] - ref) / peak
                if not dev <= PEAK_TOL:
                    errs.append(f"{name} at {x[i]:.2f} MHz: {dev:.2e} of peak"
                                f" from quad (limit {PEAK_TOL:.0e})")
        return errs


class CouplingOffScan(Scan):
    """li2_fig3a: g2 = 0 in every channel, so rho22 is an exact Voigt sum."""

    def _check_one(self, reference, cas, x, r22, r33):
        errs = []
        dev = float(np.max(np.abs(r22 - reference.voigt_rho22(cas, x)))) \
            / float(np.max(r22))
        if not dev <= PEAK_TOL:
            errs.append(f"rho22 {dev:.2e} of peak from the Voigt sum")
        if np.any(r33 != 0.0):
            errs.append("rho33 column is not exactly zero with coupling off")
        return errs + self._quad_errors(reference, cas, x, (r22, r33))


class DetunedScan(Scan):
    """li2_fig6b: coupling detuned +1 GHz, EIT dip near -917 MHz."""

    def predicted_dip(self):
        """Modified two-photon resonance -(omega21/omega32) delta2, MHz."""
        s = self.cfg.system
        return -(s.omega21_cm / s.omega32_cm) * self.cfg.scan.delta2_mhz

    def _check_one(self, reference, cas, x, r22, r33):
        errs = []
        target = self.predicted_dip()
        dip_i, dip = _dip_near(x, r22, target)
        if not abs(dip - target) <= DIP_TOL_MHZ:
            errs.append(f"rho22 dip at {dip:.1f} MHz, predicted"
                        f" {target:.1f} +- {DIP_TOL_MHZ}")
        return errs + self._quad_errors(reference, cas, x, (r22, r33),
                                        must=(dip_i,))


def _dip_near(x, y, target):
    """Local minimum of y nearest target, refined by a parabola."""
    i = np.arange(1, y.size - 1)
    minima = i[(y[i] < y[i - 1]) & (y[i] <= y[i + 1])]
    if minima.size == 0:
        return int(np.argmin(y)), float("nan")
    k = int(minima[np.argmin(np.abs(x[minima] - target))])
    a, b, c = y[k - 1], y[k], y[k + 1]
    denom = a - 2.0 * b + c
    shift = 0.5 * (a - c) / denom if denom > 0 else 0.0
    return k, float(x[k] + shift * (x[k + 1] - x[k]))


class FitMu:
    """Criterion-4 dipole fit round trip, shrunk to 32 points x 2001 nodes.

    The target is the li2_fig4 upper-level (rho33) spectrum at mu = 1.45 au
    with 1% multiplicative noise from a fixed noise seed; mu_coupling and
    amplitude_scale are free, started at 1.2 au and 0.8.
    """

    GRID = (-1200.0, 1200.0, 32)
    NODES = 2001
    NOISE = 0.01
    NOISE_SEED = 20240817
    INIT = {"mu_coupling": 1.2, "amplitude_scale": 0.8}
    BOUNDS = {"mu_coupling": (0.8, 2.5), "amplitude_scale": (0.1, 10.0)}
    MODEL_TOL = 1e-4      # the program's own refinement tolerance

    def __init__(self, preset, seed, outdir):
        from eitmol.config import load_config
        self.cfg = load_config(preset)
        _channels(self.cfg)       # set-up as timed by setup_s; fit rebuilds
        self.rng = np.random.default_rng(seed)
        self.outputs = []

    def prepare(self):
        """Synthetic target; input preparation, never timed."""
        from eitmol.fitting import FitProblem, fit, synthetic_target
        from eitmol.spectrum import ScanConfig, simulate
        cfg = self.cfg
        quad = dataclasses.replace(cfg.quadrature, node_count=self.NODES)
        grid = np.linspace(*self.GRID)
        scan = ScanConfig(delta1_mhz=grid, delta2_mhz=0.0,
                          channels=("rho33",), doppler_on=True)
        truth = simulate(cfg.system, cfg.lasers, cfg.ensemble,
                         _channels(cfg, FIT_MU_TRUTH), scan, quadrature=quad)
        target = synthetic_target(truth, "rho33", self.NOISE,
                                  seed=self.NOISE_SEED)
        self.problem = FitProblem(
            target_delta1_mhz=grid, target_signal=target, channel="rho33",
            free=("mu_coupling", "amplitude_scale"), bounds=self.BOUNDS,
            system=cfg.system, lasers=cfg.lasers, ensemble=cfg.ensemble,
            mu_probe_au=cfg.mu_probe_au, mu_coupling_au=cfg.mu_coupling_au,
            delta2_mhz=0.0, doppler_on=True, quadrature=quad)
        self._fit = fit

    def call(self):
        """Timed: the whole fit, including its start-point validation."""
        self.result = self._fit(self.problem, self.INIT)
        return self.result.evaluations + 1

    def collect(self):
        self.outputs.append(self.result)
        self.result = None

    def check(self):
        models = {}
        results = []
        for res in self.outputs:
            errs = []
            mu = res.best_params["mu_coupling"]
            if not res.converged:
                errs.append(f"fit did not converge in {res.evaluations}"
                            " evaluations")
            if not abs(mu - FIT_MU_TRUTH) <= FIT_MU_REL_TOL * FIT_MU_TRUTH:
                errs.append(f"recovered mu {mu:.4f} au is more than"
                            f" {FIT_MU_REL_TOL:.0%} from {FIT_MU_TRUTH}")
            key = tuple(sorted(res.best_params.items()))
            if key not in models:
                models[key] = self._model_errors(res.best_params)
            results.append(errs + models[key])
        return results

    def _model_errors(self, params):
        """The converged model lineshape against quad at seeded points."""
        from eitmol.fitting import model_spectrum
        import reference
        spec = model_spectrum(self.problem, params)
        r33 = spec.signal_rho33
        peak = float(np.max(r33))
        cs = _channels(self.cfg, params["mu_coupling"])
        cas = reference.Cascade(self.cfg, cs.g1_bare, cs.g2_bare)
        errs = []
        for i in _check_points(self.rng, r33.size, count=3):
            _, ref = reference.quad_populations(cas, spec.delta1_mhz[i], 0.0,
                                                peak)
            dev = abs(r33[i] - ref) / peak
            if not dev <= self.MODEL_TOL:
                errs.append(f"best-fit rho33 at {spec.delta1_mhz[i]:.1f} MHz:"
                            f" {dev:.2e} of peak from quad")
        return errs


WORKLOADS = {
    "scan_detuned": (DetunedScan, "li2_fig6b"),
    "scan_coupling_off": (CouplingOffScan, "li2_fig3a"),
    "fit_mu": (FitMu, "li2_fig4"),
}


def make(name, seed, outdir):
    cls, preset = WORKLOADS[name]
    return cls(preset, seed, outdir)
