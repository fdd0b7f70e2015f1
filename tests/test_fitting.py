"""Objective behavior, Powell-search recovery, and fit determinism."""

import dataclasses

import numpy as np
import pytest

from eitmol.doppler import QuadratureSpec
from eitmol.fitting import (
    FitProblem,
    _chi2,
    fit,
    fit_report_dict,
    model_spectrum,
    synthetic_target,
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
    target = target_scale * truth.signal_rho33
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
    return _chi2(fp, model_spectrum(fp, params).signal(fp.channel),
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


def test_model_spectrum_uses_target_grid(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    spec = model_spectrum(fp, {"mu_coupling": 1.45})
    assert np.array_equal(spec.delta1_mhz, fp.target_delta1_mhz)


def test_powell_path_recovers_dipole(li2, li2_lasers):
    # two nonlinear parameters: Powell's search over mu and gamma12_col
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


def test_powell_path_recovers_dephasings_off_a_bound(li2, li2_lasers):
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


def test_budget_spent_mid_line_search_is_not_converged(li2, li2_lasers):
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
    # ten spectra: the start and nine Brent steps along mu, cut before mu
    # converged, so gamma12 was never searched
    assert result.iterations == 9
    assert result.best_params["gamma12_col"] == 8.0
    assert result.residual_norm <= result.initial_residual_norm


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

    def recording(fp, params, verify):
        seen.append(dict(params))
        return simulate_at(fp, params, verify)

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

    def recording(fp, params, verify):
        verified.append(verify)
        return simulate_at(fp, params, verify)

    monkeypatch.setattr(fitting, "_simulate", recording)
    result = fit(fp, init)
    assert len(verified) == result.evaluations <= budget
    # the start spectrum is the one that validates the quadrature
    assert verified == [doppler_on] + [False] * (len(verified) - 1)
    curvature = dict(zip(fp.free, result.curvature.tolist()))
    assert curvature["amplitude_scale"] > 0
    if budget == 10:
        # the search spends the budget, so no curvature spectrum fits it
        assert result.evaluations == 10
        assert np.isnan(curvature["mu_coupling"])
        assert np.isnan(curvature["gamma12_col"])
        return
    # the same chi^2 as the fit's residual sum, bit for bit
    best = np.array([result.best_params[n] for n in fp.free])
    monkeypatch.undo()
    for i, name in enumerate(fp.free):
        if name == "amplitude_scale":
            continue
        lo, hi = fp.bounds[name]
        h = min(1e-3 * (hi - lo), best[i] - lo, hi - best[i])
        step = h * (np.arange(best.size) == i)
        assert curvature[name] == (chi2(best + step, fp)
                                   - 2.0 * result.residual_norm
                                   + chi2(best - step, fp)) / h**2


@pytest.mark.parametrize("change, init, name", [
    ({"bounds": {"mu_coupling": (0.5, 3.0)}}, None, "amplitude_scale"),
    ({"max_evaluations": 0}, None, "max_evaluations"),
    ({"max_evaluations": -3}, None, "max_evaluations"),
    ({}, {"mu_coupling": 1.2}, "amplitude_scale"),
], ids=["unbounded", "zero_budget", "negative_budget", "no_init"])
def test_bad_fit_input_raises_value_error(li2, li2_lasers, monkeypatch,
                                          change, init, name):
    """A free parameter without bounds or initial value, or a budget below
    one spectrum, is a ValueError naming it, before any spectrum."""
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
    model = model_spectrum(fp, {}).signal_rho33
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
