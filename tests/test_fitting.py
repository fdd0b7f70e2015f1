"""Objective behavior, simplex recovery, and fit determinism."""

import dataclasses

import numpy as np
import pytest

from eitmol.doppler import QuadratureSpec
from eitmol.fitting import (
    FitProblem,
    fit,
    fit_report_dict,
    model_spectrum,
    objective,
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


def test_objective_zero_for_self_matching_target(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    assert objective([1.45], fp) == pytest.approx(0.0, abs=1e-20)


def test_objective_increases_away_from_truth(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers, free=("mu_coupling",),
                              bounds={"mu_coupling": (0.5, 3.0)})
    # 1-D scan of the objective around the generating value
    mus = [1.45 * (1.0 + s) for s in (-0.1, -0.05, 0.0, 0.05, 0.1)]
    vals = [objective([m], fp) for m in mus]
    assert vals[2] == min(vals)
    assert vals[3] > vals[2] and vals[1] > vals[2]
    # a 10% perturbation from truth strictly increases the objective
    assert vals[4] > vals[2] and vals[0] > vals[2]


def test_objective_zero_target_zero_scale(li2, li2_lasers):
    fp = doppler_free_problem(li2, li2_lasers,
                              free=("amplitude_scale",),
                              bounds={"amplitude_scale": (0.0, 10.0)},
                              target_scale=0.0)
    assert objective([0.0], fp) == 0.0


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
