"""Objective behavior, Levenberg-Marquardt recovery, error bars and fit
determinism."""

import dataclasses

import numpy as np
import pytest

from eitmol.doppler import Ensemble, QuadratureSpec
from eitmol.fitting import (
    FitProblem,
    _chi2,
    fit,
    fit_report_dict,
    model_spectrum,
    synthetic_target,
    validate_quadrature,
)
from eitmol.spectrum import ScanConfig, simulate
from eitmol.sublevels import build_channels


def doppler_free_problem(li2, li2_lasers, free, bounds, mu_truth=1.45,
                         target_scale=1.0, noise=0.0, seed=7):
    """Small Doppler-free problem: fast objective, same code paths."""
    grid = np.linspace(-1200.0, 1200.0, 161)
    cs = build_channels(li2, 1.0, mu_truth, li2_lasers.field_probe,
                        li2_lasers.field_coupling)
    sc = ScanConfig(delta1_mhz=grid, channels=("rho33",), doppler_on=False)
    truth = simulate(li2, li2_lasers, None, cs, sc)
    target = target_scale * truth.signals["rho33"]
    if noise:
        target = target_scale * synthetic_target(truth, "rho33", noise, seed)
    return FitProblem(
        target_delta1_mhz=grid,
        target_signal=target,
        channel="rho33",
        free=free,
        bounds=bounds,
        system=li2,
        lasers=li2_lasers,
        ensemble=None,
        mu_probe_au=1.0,
        mu_coupling_au=1.45,
        doppler_on=False,
    )


def chi2(values, fp):
    """chi^2 of scale * model + offset at the free parameters ``values``,
    the fit's own residual sum."""
    params = dict(zip(fp.free, np.asarray(values, float)))
    return _chi2(fp, model_spectrum(fp, params).signals[fp.channel],
                 params.get("amplitude_scale", 1.0),
                 params.get("baseline_offset", 0.0))


def test_objective_zero_for_self_matching_target(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    assert chi2([1.45], fp) == pytest.approx(0.0, abs=1e-20)


def test_objective_increases_away_from_truth(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    # 1-D scan of the objective around the generating value
    mus = [1.45 * (1.0 + s) for s in (-0.1, -0.05, 0.0, 0.05, 0.1)]
    vals = [chi2([m], fp) for m in mus]
    assert vals[2] == min(vals)
    assert vals[3] > vals[2] and vals[1] > vals[2]
    # a 10% perturbation from truth strictly increases the objective
    assert vals[4] > vals[2] and vals[0] > vals[2]


def test_objective_zero_target_zero_scale(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("amplitude_scale",),
                              bounds={"amplitude_scale": (0.0, 10.0)},
                              target_scale=0.0)
    assert chi2([0.0], fp) == 0.0


def test_amplitude_only_fit_matches_linear_solution(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("amplitude_scale",),
                              bounds={"amplitude_scale": (0.0, 10.0)},
                              target_scale=2.3456)
    result = fit(fp, {"amplitude_scale": 1.0})
    assert result.converged
    # exact linear subproblem: model is the unit-scale signal
    assert result.best_params["amplitude_scale"] == pytest.approx(2.3456,
                                                                  rel=1e-6)
    assert result.residual_norm <= fp.target_signal.max()**2 * 1e-12


def test_fit_is_deterministic(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    init = {"mu_coupling": 1.2, "amplitude_scale": 0.8}
    r1 = fit(fp, init)
    r2 = fit(fp, init)
    assert r1.best_params == r2.best_params
    assert r1.evaluations == r2.evaluations
    assert r1.residual_norm == r2.residual_norm


def test_fit_builds_its_channels_once(li2, li2_lasers, monkeypatch):
    """The line strengths are built with the problem; no spectrum of the fit
    rebuilds them, and the fit is the one it was when each did."""
    from eitmol import fitting

    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    init = {"mu_coupling": 1.2, "amplitude_scale": 0.8}
    real = fitting.build_channels
    built = []

    def rebuilt(sys, mu_probe, mu_coupling, *fields):
        built.append(mu_coupling)
        return real(sys, mu_probe, mu_coupling, *fields)

    def per_spectrum(fp, points, verify):
        # what every spectrum of a fit did before: its own build_channels
        # and its own simulate
        out = []
        for params in points:
            sys, mu_c, _, _ = fitting._context(fp, params)
            cs = rebuilt(sys, fp.mu_probe_au, mu_c, fp.lasers.field_probe,
                         fp.lasers.field_coupling)
            scan = ScanConfig(delta1_mhz=fp.target_delta1_mhz,
                              channels=(fp.channel,), doppler_on=False)
            out.append(simulate(sys, fp.lasers, None, cs, scan))
        return out

    monkeypatch.setattr(fitting, "build_channels", rebuilt)
    result = fit(fp, init)
    assert built == []
    monkeypatch.setattr(fitting, "_simulate", per_spectrum)
    reference = fit(fp, init)
    assert len(built) == reference.evaluations
    assert result.best_params == reference.best_params
    assert result.residual_norm == reference.residual_norm
    assert result.evaluations == reference.evaluations


def test_fit_recovers_dipole_doppler_free(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    result = fit(fp, {"mu_coupling": 1.2, "amplitude_scale": 0.8})
    assert result.converged
    assert result.evaluations <= fp.max_evaluations
    assert result.best_params["mu_coupling"] == pytest.approx(1.45, rel=0.02)
    assert result.residual_norm <= result.initial_residual_norm


def test_residual_never_worse_than_initial(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)},
                              noise=0.05, seed=42)
    result = fit(fp, {"mu_coupling": 2.0})
    assert result.residual_norm <= result.initial_residual_norm


def test_init_outside_bounds_rejected(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    with pytest.raises(ValueError):
        fit(fp, {"mu_coupling": 5.0})


def test_problem_validation(li2, li2_lasers):
    with pytest.raises(ValueError):
        doppler_free_problem(li2, li2_lasers, free=(),
                             bounds={})
    with pytest.raises(ValueError):
        doppler_free_problem(li2, li2_lasers, free=("unknown_param",),
                             bounds={"unknown_param": (0, 1)})
    with pytest.raises(ValueError):
        doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                             bounds={"mu_coupling": (3.0, 0.5)})
    # the fitted channel is checked when the problem is built
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    with pytest.raises(ValueError, match="channel must be one of rho22,"
                       " rho33, got 'rho44'"):
        dataclasses.replace(fp, channel="rho44")


def test_problem_rejects_a_non_finite_target(li2, li2_lasers):
    """A NaN in the target signal, or a grid that a scan would refuse, is
    an error when the problem is built: not a NaN fit reported converged,
    nor an error about another object's field at the first spectrum."""
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    signal = fp.target_signal.copy()
    signal[5] = np.nan
    with pytest.raises(ValueError, match="target_signal must be finite"):
        dataclasses.replace(fp, target_signal=signal)
    for bad, reason in ((np.inf, "finite"),
                        (fp.target_delta1_mhz[4], "strictly increasing")):
        grid = fp.target_delta1_mhz.copy()
        grid[5] = bad
        with pytest.raises(ValueError, match="target_delta1_mhz: delta1 grid"
                           f" must be {reason}"):
            dataclasses.replace(fp, target_delta1_mhz=grid)
    with pytest.raises(ValueError, match="target_delta1_mhz: .* >= 2 points"):
        dataclasses.replace(fp, target_delta1_mhz=[0.0], target_signal=[1.0])


def test_problem_rejects_a_scan_it_cannot_run(li2, li2_lasers):
    """The fit's scans are built with the problem, so a non-finite delta2 or
    an unknown engine is an error there, not at the first spectrum."""
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    assert [scan.verify_quadrature for scan in fp._scans] == [False, True]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta2 must be finite"):
            dataclasses.replace(fp, delta2_mhz=bad)
    with pytest.raises(ValueError, match="unknown engine 'exact'"):
        dataclasses.replace(fp, engine="exact")


def test_branching_ratio_insensitivity(li2, li2_lasers, li2_ensemble):
    """Recovered dipole moment barely moves when the fixed upper branching
    ratio is swept over [0.1, 0.5]: the change stays within the reported
    fit-quality sensitivity interval."""
    grid = np.linspace(-900.0, 900.0, 81)
    quad = QuadratureSpec(node_count=2001)
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                        li2_lasers.field_coupling)
    sc = ScanConfig(delta1_mhz=grid, channels=("rho33",), doppler_on=True)
    truth = simulate(li2, li2_lasers, li2_ensemble, cs, sc, quadrature=quad)
    target = synthetic_target(truth, "rho33", 0.02, seed=11)

    results = {}
    for b3 in (0.1, 0.5):
        fp = FitProblem(
            target_delta1_mhz=grid,
            target_signal=target,
            channel="rho33",
            free=("mu_coupling", "amplitude_scale"),
            bounds={"mu_coupling": (0.8, 2.5),
                    "amplitude_scale": (0.1, 10.0)},
            system=dataclasses.replace(li2, b3=b3),
            lasers=li2_lasers,
            ensemble=li2_ensemble,
            mu_probe_au=1.0,
            mu_coupling_au=1.45,
            doppler_on=True,
            quadrature=quad,
        )
        results[b3] = fit(fp, {"mu_coupling": 1.3, "amplitude_scale": 1.0})
    mu_lo = results[0.1].best_params["mu_coupling"]
    mu_hi = results[0.5].best_params["mu_coupling"]
    interval = max(
        results[b].sensitivity["mu_coupling"]["tolerance_interval"]
        for b in (0.1, 0.5))
    assert abs(mu_lo - mu_hi) < interval
    # and the change is small on the scale of the value itself
    assert abs(mu_lo - mu_hi) < 0.05 * 1.45


def test_report_dict_shape(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("amplitude_scale",),
                              bounds={"amplitude_scale": (0.0, 10.0)},
                              target_scale=1.5)
    result = fit(fp, {"amplitude_scale": 1.0})
    report = fit_report_dict(result, fp)
    assert report["best_params"]["amplitude_scale"] == \
        result.best_params["amplitude_scale"]
    assert report["converged"] is True
    assert report["units"]["amplitude_scale"] == "1"
    assert report["convergence_trace"][0][0] == 1


def test_sensitivity_of_a_pinned_parameter(li2, li2_lasers):
    # the generating mu = 1.45 au lies above the box, so the fit pins mu
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 1.3),
                                      "amplitude_scale": (0.1, 10.0)})
    result = fit(fp, {"mu_coupling": 1.0, "amplitude_scale": 1.0})
    assert result.best_params["mu_coupling"] == 1.3
    assert result.units == {"mu_coupling": "au", "amplitude_scale": "1"}
    pinned = result.sensitivity["mu_coupling"]
    assert all(np.isnan(v) for v in pinned.values())
    free = result.sensitivity["amplitude_scale"]
    assert free["curvature"] > 0
    assert free["tolerance_interval"] == pytest.approx(
        free["half_interval"] * np.sqrt(fp.target_signal.size - 2))
    trace = fit_report_dict(result, fp)["convergence_trace"]
    assert trace[0][0] == 1 and trace[-1][0] <= result.evaluations
    assert trace[-1][1] <= result.residual_norm


def test_a_fit_pinned_in_every_parameter_reads_nan(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 1.3)})
    result = fit(fp, {"mu_coupling": 1.0})
    assert result.best_params == {"mu_coupling": 1.3}
    assert np.isnan(result.curvature).all()


def test_model_spectrum_uses_target_grid(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    spec = model_spectrum(fp, {"mu_coupling": 1.45})
    assert np.array_equal(spec.delta1_mhz, fp.target_delta1_mhz)


def test_search_recovers_dipole_with_a_dephasing(li2, li2_lasers):
    # two nonlinear parameters: one search over mu and gamma12_col
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "gamma12_col",
                                    "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "gamma12_col": (1.0, 20.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    result = fit(fp, {"mu_coupling": 1.3, "gamma12_col": 8.0,
                      "amplitude_scale": 0.8})
    assert result.converged
    assert result.best_params["mu_coupling"] == pytest.approx(1.45, rel=0.02)
    assert result.residual_norm <= result.initial_residual_norm


def test_search_recovers_dephasings_off_a_bound(li2, li2_lasers):
    # mu held at its true value; a search that lets gamma12 settle on its
    # 1 MHz bound ends near chi^2 = 6.4e-2, 31 times the true minimum
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("gamma12_col", "gamma13_col",
                                    "amplitude_scale"),
                              bounds={"gamma12_col": (1.0, 20.0),
                                      "gamma13_col": (0.1, 10.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    result = fit(fp, {"gamma12_col": 12.0, "gamma13_col": 4.0,
                      "amplitude_scale": 0.8})
    assert result.converged
    assert result.best_params["gamma12_col"] == pytest.approx(5.0, rel=0.05)
    assert result.residual_norm < 2.2e-3


def test_budget_spent_mid_search_is_not_converged(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "gamma12_col",
                                    "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "gamma12_col": (1.0, 20.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    fp = dataclasses.replace(fp, max_evaluations=10)
    result = fit(fp, {"mu_coupling": 1.2, "gamma12_col": 8.0,
                      "amplitude_scale": 0.8})
    assert not result.converged
    # the 12-spectrum bracket does not fit, so the search starts at the
    # start: its Jacobian (mu, gamma12), then two steps, each a trial with
    # its mu partner and a gamma12 column; the third trial's pair does not
    # fit the one spectrum left and is not started
    assert result.iterations == 2
    assert result.evaluations == 9
    assert result.residual_norm <= result.initial_residual_norm


class LinearModel:
    """A stand-in for ``fitting._Projection``: the model at x is x itself
    and its residual is A x - b, with ``budget`` spectra."""

    def __init__(self, names, budget, a, b):
        self.names, self.budget, self.a, self.b = names, budget, a, b
        self.batches = []

    def spectra(self, xs):
        if sum(map(len, self.batches)) + len(xs) > self.budget:
            return None
        self.batches.append([x.copy() for x in xs])
        return [x.copy() for x in xs]

    def residual(self, model):
        return self.a @ model - self.b, {}

    def note(self, f, k=0):
        pass


CORRELATED = np.array([[1.0, 0.75, -0.5], [0.0, 1.0, -0.5], [0.3, 0.0, 1.0],
                       [0.2, 0.1, 0.0]])


def test_search_batches_each_trial_with_its_mu_partner():
    """On a linear residual the search reaches the least-squares point; each
    trial is simulated together with x + h e_mu, and each other Jacobian
    column alone."""
    from eitmol import fitting

    names = ["gamma12_col", "mu_coupling", "gamma13_col"]
    best = np.array([-1.0, -2.0, 0.5])
    proj = LinearModel(names, 10**6, CORRELATED, CORRELATED @ best)
    lo, hi = np.full(3, -10.0), np.full(3, 10.0)
    x0 = np.array([-5.0, 3.0, 2.0])
    proj.spectra([x0])
    x, model, partners, converged, iterations = fitting._search(
        proj, x0, x0.copy(), lo, hi)
    assert converged
    assert np.allclose(x, best, atol=1e-9)
    assert np.array_equal(model, x)
    h = 1e-3 * 20.0
    assert [np.array_equal(p, x + h * e) for p, e in
            zip(partners, np.eye(3))] == [True] * 3
    pairs = [b for b in proj.batches if len(b) == 2]
    assert len(pairs) == iterations
    for trial, partner in pairs:
        assert np.array_equal(partner, trial + h * np.eye(3)[1])
    assert all(len(b) in (1, 2) for b in proj.batches)


def test_search_simulates_no_step_within_its_tolerance():
    """The search stops on a proposed step that moves no parameter by more
    than the tolerance, before simulating it: every simulated trial moved x
    by more, and the result is the last accepted point."""
    from eitmol import fitting

    names = ["gamma12_col", "mu_coupling", "gamma13_col"]
    best = np.array([-1.0, -2.0, 0.5])
    proj = LinearModel(names, 10**6, CORRELATED, CORRELATED @ best)
    lo, hi = np.full(3, -10.0), np.full(3, 10.0)
    x0 = np.array([-5.0, 3.0, 2.0])
    x, model, _, converged, iterations = fitting._search(
        proj, x0, x0.copy(), lo, hi)
    assert converged
    trials = [b[0] for b in proj.batches if len(b) == 2]
    assert len(trials) == iterations > 0

    def chi2(point):
        resid = proj.residual(point)[0]
        return float(np.dot(resid, resid))

    accepted = x0
    for trial in trials:
        tol = fitting._REL_TOL * np.maximum(np.abs(accepted), 1e-3 * (hi - lo))
        assert np.any(np.abs(trial - accepted) > tol)
        if chi2(trial) < chi2(accepted):
            accepted = trial
    assert np.array_equal(x, accepted)
    assert np.array_equal(model, x)
    assert np.allclose(x, best, atol=1e-6)


def test_search_clips_to_the_box_and_steps_back_at_an_upper_bound():
    """A least-squares point outside the box: the search lands exactly on
    the bound, and its Jacobian steps backward there."""
    from eitmol import fitting

    proj = LinearModel(["mu_coupling"], 10**6, np.eye(1), np.array([3.0]))
    lo, hi = np.array([0.0]), np.array([2.0])
    x, _, partners, converged, _ = fitting._search(
        proj, np.array([1.0]), np.array([1.0]), lo, hi)
    assert converged
    assert x.tolist() == [2.0]
    assert partners[0].tolist() == [2.0 - 2e-3]
    assert all(lo[0] <= p[0] <= hi[0] for b in proj.batches for p in b)


@pytest.mark.parametrize("budget", [3, 6, 9])
def test_search_starts_no_batch_that_does_not_fit(budget):
    """With the budget spent the search returns unconverged at the best
    point it accepted; the spectra it took never pass the budget, and no
    batch that would have fit was left out."""
    from eitmol import fitting

    names = ["gamma12_col", "mu_coupling", "gamma13_col"]
    proj = LinearModel(names, budget, CORRELATED,
                       CORRELATED @ np.array([-1.0, -2.0, 0.5]))
    x0 = np.array([-5.0, 3.0, 2.0])
    x, model, partners, converged, _ = fitting._search(
        proj, x0, x0.copy(), np.full(3, -10.0), np.full(3, 10.0))
    spent = sum(map(len, proj.batches))
    assert not converged
    assert budget - 2 < spent <= budget
    assert np.array_equal(model, x)
    assert any(np.array_equal(x, b[0]) for b in proj.batches) or \
        np.array_equal(x, x0)


def test_search_evaluates_only_points_in_the_box(li2, li2_lasers,
                                                 monkeypatch):
    from eitmol import fitting

    bounds = {"mu_coupling": (0.5, 3.0), "gamma12_col": (1.0, 20.0),
              "gamma13_col": (0.1, 10.0), "gamma23_col": (0.1, 10.0),
              "amplitude_scale": (0.1, 10.0),
              "baseline_offset": (-1e-3, 1e-3)}
    fp = doppler_free_problem(li2, li2_lasers, free=tuple(bounds),
                              bounds=bounds, noise=0.01)
    seen = []
    simulate_at = fitting._simulate

    def recording(fp, points, verify):
        seen.extend(map(dict, points))
        return simulate_at(fp, points, verify)

    monkeypatch.setattr(fitting, "_simulate", recording)
    result = fit(fp, {"mu_coupling": 1.3, "gamma12_col": 8.0,
                      "gamma13_col": 2.0, "gamma23_col": 4.0,
                      "amplitude_scale": 0.8, "baseline_offset": 0.0})
    assert result.converged
    # every spectrum: the start, the search's and two per curvature
    assert len(seen) == result.evaluations
    for params in seen:
        for name, value in params.items():
            lo, hi = bounds[name]
            assert lo <= value <= hi, (name, value)


def test_doppler_free_validation_is_the_unverified_spectrum(li2, li2_lasers):
    """A Doppler-free scan has no velocity average to check, so validating
    its quadrature gives the unverified spectrum, header included."""
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    checked = validate_quadrature(fp, {"mu_coupling": 1.3})
    plain = model_spectrum(fp, {"mu_coupling": 1.3})
    assert np.array_equal(checked.signals["rho33"], plain.signals["rho33"])
    assert checked.metadata == plain.metadata
    assert not any(k.startswith("quadrature.") for k in checked.metadata)


def doppler_on_problem(li2, li2_lasers, li2_ensemble):
    """The dipole fit of the benchmark, 32 points x 2001 nodes."""
    grid = np.linspace(-1200.0, 1200.0, 32)
    quad = QuadratureSpec(node_count=2001)
    cs = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                        li2_lasers.field_coupling)
    sc = ScanConfig(delta1_mhz=grid, channels=("rho33",), doppler_on=True)
    truth = simulate(li2, li2_lasers, li2_ensemble, cs, sc, quadrature=quad)
    return FitProblem(
        target_delta1_mhz=grid,
        target_signal=synthetic_target(truth, "rho33", 0.01, seed=5),
        channel="rho33", free=("mu_coupling", "amplitude_scale"),
        bounds={"mu_coupling": (0.8, 2.5), "amplitude_scale": (0.1, 10.0)},
        system=li2, lasers=li2_lasers, ensemble=li2_ensemble,
        mu_probe_au=1.0, mu_coupling_au=1.45, quadrature=quad)


@pytest.mark.parametrize("doppler_on, budget", [(True, 2000), (False, 2000),
                                                (False, 10)])
def test_every_spectrum_of_a_fit_is_counted(li2, li2_lasers, li2_ensemble,
                                            monkeypatch, doppler_on, budget):
    from eitmol import fitting

    if doppler_on:
        fp = doppler_on_problem(li2, li2_lasers, li2_ensemble)
        init = {"mu_coupling": 1.2, "amplitude_scale": 0.8}
    else:
        fp = doppler_free_problem(li2, li2_lasers,
                                  free=("mu_coupling", "gamma12_col",
                                        "amplitude_scale"),
                                  bounds={"mu_coupling": (0.5, 3.0),
                                          "gamma12_col": (1.0, 20.0),
                                          "amplitude_scale": (0.1, 10.0)},
                                  noise=0.01)
        init = {"mu_coupling": 1.2, "gamma12_col": 8.0,
                "amplitude_scale": 0.8}
    fp = dataclasses.replace(fp, max_evaluations=budget)
    verified = []
    simulate_at = fitting._simulate

    def recording(fp, points, verify):
        verified.extend([verify] * len(points))
        return simulate_at(fp, points, verify)

    monkeypatch.setattr(fitting, "_simulate", recording)
    result = fit(fp, init)
    assert len(verified) == result.evaluations <= budget
    # the start spectrum is the one that validates the quadrature (a
    # Doppler-free scan has none to check: see the next test)
    assert verified == [True] + [False] * (len(verified) - 1)
    curvature = dict(zip(fp.free, result.curvature.tolist()))
    assert curvature["amplitude_scale"] > 0
    if budget == 10:
        # the next trial and its mu partner do not fit the one spectrum left,
        # and gamma12 stopped on its 20 MHz bound, where it reads NaN
        assert result.evaluations == 9
        assert result.best_params["gamma12_col"] == 20.0
        assert np.isnan(curvature["gamma12_col"])
    # the Jacobian at the best point, from spectra the fit already took
    monkeypatch.undo()
    held = [name for name in fp.free if not np.isnan(curvature[name])]
    assert len(held) == len(fp.free) - (budget == 10)
    expect = jacobian_curvature(fp, result.best_params, held)
    for name, value in zip(held, expect):
        assert curvature[name] == pytest.approx(value, rel=1e-9)


def jacobian_curvature(fp, best, names):
    """2 / [(J^T W J)^-1]_ii over ``names`` at ``best``, the others held:
    J is the model itself and ones for the linear parameters, else the
    scale times a forward difference of ``model_spectrum`` with step 1e-3 of
    the box, backward where it would pass the upper bound."""
    model = model_spectrum(fp, best).signals[fp.channel]
    columns = []
    for name in names:
        if name == "amplitude_scale":
            columns.append(model)
        elif name == "baseline_offset":
            columns.append(np.ones_like(model))
        else:
            lo, hi = fp.bounds[name]
            h = 1e-3 * (hi - lo)
            h = -h if best[name] + h > hi else h
            moved = model_spectrum(fp, best | {name: best[name] + h})
            columns.append(best.get("amplitude_scale", 1.0)
                           * (moved.signals[fp.channel] - model) / h)
    jac = np.stack(columns, axis=1)
    if fp.target_sigma is not None:
        jac /= fp.target_sigma[:, None]
    return 2.0 / np.diag(np.linalg.inv(jac.T @ jac))


@pytest.mark.parametrize("change, init, name", [
    ({"bounds": {"mu_coupling": (0.5, 3.0)}}, None, "amplitude_scale"),
    ({"max_evaluations": 0}, None, "max_evaluations"),
    ({"max_evaluations": -3}, None, "max_evaluations"),
    ({}, {"mu_coupling": 1.2}, "amplitude_scale"),
    ({}, {"mu_coupling": np.nan, "amplitude_scale": 0.8}, "mu_coupling"),
    ({}, {"mu_coupling": 1.2, "amplitude_scale": np.nan}, "amplitude_scale"),
    ({"free": ("mu_coupling", "mu_coupling")}, {"mu_coupling": 1.2}, "free"),
    ({"doppler_on": True}, None, "doppler_on"),
    ({"ensemble": Ensemble(temperature_k=1000.0, mass_amu=14.0)}, None,
     "doppler_on"),
], ids=["unbounded", "zero_budget", "negative_budget", "no_init", "nan_mu",
        "nan_scale", "repeated_free", "doppler_without_ensemble",
        "ensemble_without_doppler"])
def test_bad_fit_input_raises_value_error(li2, li2_lasers, monkeypatch,
                                          change, init, name):
    """A free parameter without bounds or a finite initial value, a free
    parameter named twice, a budget below one spectrum, or a doppler_on
    that disagrees with the ensemble, is a ValueError naming it, before
    any spectrum."""
    from eitmol import fitting

    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)})
    monkeypatch.setattr(fitting, "_simulate", None)  # a spectrum would raise
    with pytest.raises(ValueError, match=name):
        fit(dataclasses.replace(fp, **change),
            init or {"mu_coupling": 1.2, "amplitude_scale": 0.8})


def test_dipole_fit_needs_few_spectra(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    result = fit(fp, {"mu_coupling": 1.2, "amplitude_scale": 0.8})
    assert result.converged
    assert result.evaluations <= 30


def test_doppler_on_dipole_fit_skips_its_last_batch(li2, li2_lasers,
                                                    li2_ensemble):
    """The benchmark's dipole fit: the start, its Jacobian column and two
    steps with their mu partners; the step that converges is not
    simulated."""
    fp = doppler_on_problem(li2, li2_lasers, li2_ensemble)
    result = fit(fp, {"mu_coupling": 1.2, "amplitude_scale": 0.8})
    assert result.converged
    assert result.evaluations <= 6
    assert result.best_params["mu_coupling"] == pytest.approx(1.452688,
                                                              rel=1e-4)


def brute_force_linear_fit(model, target, weight, s_range, o_range, n=401):
    """Grid minimum of sum w (s m + o - t)^2 over the (s, o) box."""
    offsets = np.linspace(*o_range, n)
    best = (np.inf, None, None)
    for s in np.linspace(*s_range, n):
        resid = s * model[None, :] + offsets[:, None] - target[None, :]
        chi2 = np.sum(weight * resid**2, axis=1)
        k = int(np.argmin(chi2))
        if chi2[k] < best[0]:
            best = (float(chi2[k]), s, offsets[k])
    return best, np.diff(s_range)[0] / (n - 1), np.diff(o_range)[0] / (n - 1)


@pytest.mark.parametrize("pinned", ["amplitude_scale", "baseline_offset"])
def test_linear_parameters_match_brute_force_with_active_bound(
        li2, li2_lasers, pinned):
    fp = doppler_free_problem(li2, li2_lasers, free=("amplitude_scale",),
                              bounds={"amplitude_scale": (0.1, 10.0)},
                              noise=0.02)
    model = model_spectrum(fp, {}).signals["rho33"]
    peak = float(np.max(model))
    rng = np.random.default_rng(3)
    sigma = peak * (0.01 + 0.05 * rng.random(model.size))
    if pinned == "baseline_offset":
        # unconstrained optimum near (2.0, 0.3 peak): the offset box stops at
        # 0.1 peak
        target = 2.0 * fp.target_signal + 0.3 * peak
        bounds = {"amplitude_scale": (1.5, 2.5),
                  "baseline_offset": (0.0, 0.1 * peak)}
    else:
        # unconstrained optimum near (2.0, 0.05 peak): the scale box stops
        # at 1.8
        target = 2.0 * fp.target_signal + 0.05 * peak
        bounds = {"amplitude_scale": (1.0, 1.8),
                  "baseline_offset": (0.0, 0.2 * peak)}
    fp = dataclasses.replace(fp, target_signal=target, target_sigma=sigma,
                             free=("amplitude_scale", "baseline_offset"),
                             bounds=bounds)
    result = fit(fp, {"amplitude_scale": 1.6, "baseline_offset": 0.0})
    weight = 1.0 / sigma**2
    (chi2, s, o), ds, do = brute_force_linear_fit(
        model, target, weight, bounds["amplitude_scale"],
        bounds["baseline_offset"])
    best = result.best_params
    assert result.converged
    assert best[pinned] == bounds[pinned][1]
    assert best["amplitude_scale"] == pytest.approx(s, abs=ds)
    assert best["baseline_offset"] == pytest.approx(o, abs=do)
    assert result.residual_norm <= chi2
    resid = (best["amplitude_scale"] * model + best["baseline_offset"]
             - target) / sigma
    assert result.residual_norm == float(np.dot(resid, resid))
    # closed-form curvature: 2 sum w m^2 and 2 sum w; NaN at the bound
    expect = {"amplitude_scale": 2.0 * np.sum(weight * model**2),
              "baseline_offset": 2.0 * np.sum(weight)}
    for name, curv in zip(fp.free, result.curvature):
        if name == pinned:
            assert np.isnan(curv)
        else:
            assert curv == pytest.approx(expect[name], rel=1e-12)


@pytest.mark.parametrize("free", [("amplitude_scale",), ("baseline_offset",),
                                  ("amplitude_scale", "baseline_offset")])
def test_linear_only_fit_takes_one_spectrum(li2, li2_lasers, free):
    bounds = {"amplitude_scale": (0.1, 10.0), "baseline_offset": (-1.0, 1.0)}
    fp = doppler_free_problem(li2, li2_lasers, free=free,
                              bounds={n: bounds[n] for n in free},
                              target_scale=1.7)
    result = fit(fp, {"amplitude_scale": 1.0, "baseline_offset": 0.0})
    assert result.evaluations == 1
    assert result.iterations == 0
    assert result.converged
    assert result.trace.tolist() == [[1.0, result.residual_norm]]


def test_all_zero_model_keeps_the_initial_scale(li2, li2_lasers):
    # coupling off: the rho33 model is exactly zero, so the scale is free
    # to take any value and stays where it started
    lasers = dataclasses.replace(li2_lasers, power_coupling_w=0.0)
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("amplitude_scale", "baseline_offset"),
                              bounds={"amplitude_scale": (0.1, 10.0),
                                      "baseline_offset": (-1.0, 1.0)})
    fp = dataclasses.replace(fp, lasers=lasers,
                             target_signal=np.linspace(0.0, 0.02, 161))
    result = fit(fp, {"amplitude_scale": 3.0, "baseline_offset": 0.5})
    assert result.best_params["amplitude_scale"] == 3.0
    assert result.best_params["baseline_offset"] == pytest.approx(0.01,
                                                                  rel=1e-12)
    assert result.sensitivity["amplitude_scale"]["half_interval"] == np.inf


@pytest.mark.parametrize("budget", [
    12,    # the 12-spectrum bracket does not fit after the start
    13,    # it fits, and then no Jacobian column does
])
def test_a_batch_that_does_not_fit_the_budget_is_not_started(
        li2, li2_lasers, monkeypatch, budget):
    from eitmol import fitting

    fp = doppler_free_problem(li2, li2_lasers,
                              free=("mu_coupling", "amplitude_scale"),
                              bounds={"mu_coupling": (0.5, 3.0),
                                      "amplitude_scale": (0.1, 10.0)},
                              noise=0.01)
    fp = dataclasses.replace(fp, max_evaluations=budget)
    sizes = []
    simulate_at = fitting._simulate

    def recording(fp, points, verify):
        sizes.append(len(points))
        return simulate_at(fp, points, verify)

    monkeypatch.setattr(fitting, "_simulate", recording)
    result = fit(fp, {"mu_coupling": 1.2, "amplitude_scale": 0.8})
    # every spectrum of every batch counts
    assert sum(sizes) == result.evaluations <= budget
    assert (12 in sizes) == (budget == 13)
    assert not result.converged
    # the search stopped at a batch of one or two that did not fit
    assert result.evaluations >= budget - 1
    if budget == 13:
        assert result.iterations == 0
        assert np.isnan(result.curvature[0])


def test_four_parameter_doppler_on_fit_takes_few_spectra(li2, li2_lasers,
                                                         li2_ensemble):
    """mu, gamma23, gamma13 and the scale on the 32-point, 2001-node dipole
    problem, from either side of the truth: at most 93 spectra, half the
    186 that the Powell search took from its best start, and both starts
    reach the same point."""
    fp = doppler_on_problem(li2, li2_lasers, li2_ensemble)
    fp = dataclasses.replace(
        fp, free=("mu_coupling", "gamma23_col", "gamma13_col",
                  "amplitude_scale"),
        bounds=fp.bounds | {"gamma23_col": (0.1, 20.0),
                            "gamma13_col": (0.1, 20.0)})
    results = [fit(fp, init) for init in (
        {"mu_coupling": 1.2, "gamma23_col": 4.0, "gamma13_col": 4.0,
         "amplitude_scale": 0.8},
        {"mu_coupling": 1.8, "gamma23_col": 8.0, "gamma13_col": 0.5,
         "amplitude_scale": 2.0})]
    for result in results:
        assert result.converged
        assert result.evaluations <= 93
        assert result.best_params["mu_coupling"] == pytest.approx(1.45,
                                                                  rel=0.02)
    assert results[0].best_params["mu_coupling"] == pytest.approx(
        results[1].best_params["mu_coupling"], rel=1e-4)


@pytest.mark.parametrize("doppler_on", [True, False])
def test_refit_scatter_matches_the_jacobian_sigma(li2, li2_lasers,
                                                  li2_ensemble, doppler_on):
    """Forty targets with 1% multiplicative noise, each weighted by its
    true sigma: the fitted mu scatter within 1.5x of the median reported
    half_interval, either way.  The second-difference curvature of the
    Powell search read 2.0x on the Doppler-averaged problem."""
    if doppler_on:
        fp = doppler_on_problem(li2, li2_lasers, li2_ensemble)
        truth = model_spectrum(fp, {"mu_coupling": 1.45})
    else:
        fp = doppler_free_problem(li2, li2_lasers,
                                  free=("mu_coupling", "amplitude_scale"),
                                  bounds={"mu_coupling": (0.5, 3.0),
                                          "amplitude_scale": (0.1, 10.0)})
        truth = model_spectrum(fp, {"mu_coupling": 1.45})
    sigma = 0.01 * truth.signals["rho33"]
    mus, reported = [], []
    for seed in range(40):
        target = synthetic_target(truth, "rho33", 0.01, seed)
        result = fit(dataclasses.replace(fp, target_signal=target,
                                         target_sigma=sigma),
                     {"mu_coupling": 1.2, "amplitude_scale": 0.8})
        mus.append(result.best_params["mu_coupling"])
        reported.append(result.sensitivity["mu_coupling"]["half_interval"])
    ratio = np.std(mus, ddof=1) / np.median(reported)
    assert 1 / 1.5 <= ratio <= 1.5
