"""Command-line interface.

Subcommands: simulate, components, fit, dip, oracle-check.  Exit codes:
0 success, 2 configuration/input error, 3 numeric non-convergence,
4 fit non-convergence.  ``--json-errors`` switches error reporting to a
machine-readable JSON object on stderr, which then also carries the
warnings of the run.
"""

import argparse
import dataclasses
import json
import os
import sys as _sys
import warnings

import numpy as np

from . import __version__
from .analytic import population_rho22, population_rho33
from .bloch import populations_grid
from .config import available_presets, load_config, load_spectrum
from .errors import EitmolError, ParseError, UnitError, ValidationError
from .features import predict_dip_position
from .fitting import FitProblem, fit, fit_report_dict, validate_quadrature
from .spectrum import (
    ENGINE_ANALYTIC,
    ENGINE_ORACLE,
    per_m_components,
    simulate,
    write_spectrum,
)
from .sublevels import build_channels

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FIT = 4

# The oracle check: weak-probe analytic populations against the exact 9x9
# solve.  The probe Rabi frequency is pinned to 1e-3 gamma2, so the analytic
# lowest-order-in-probe result is in its domain of validity; the (delta1,
# delta2) detunings and the coupling strengths, in units of gamma2, span weak
# to strong coupling.
ORACLE_CHECK_TOL = 1e-4
ORACLE_PROBE = 1e-3
ORACLE_DETUNINGS = np.array([-50.0, -5.0, 0.0, 5.0, 50.0])
ORACLE_COUPLINGS = np.array([0.01, 0.2, 2.0, 20.0, 100.0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitmol",
        description="Steady-state EIT / dark-fluorescence lineshape engine"
                    " for Doppler-broadened cascade molecular systems.")
    parser.add_argument("--version", action="version",
                        version=f"eitmol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="config file path or preset name"
                             f" ({', '.join(available_presets())})")
    common.add_argument("--json-errors", action="store_true",
                        help="report errors as JSON on stderr")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--engine", choices=(ENGINE_ANALYTIC, ENGINE_ORACLE),
                        help="override the scan engine")
    engine.add_argument("--threads", type=int, default=1,
                        help="worker threads for the scan (default 1)")
    engine.add_argument("--out", help="output directory (default from config)")

    p = sub.add_parser("simulate", parents=[common, engine],
                       help="write the simulated spectrum as CSV + JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("components", parents=[common, engine],
                       help="write one spectrum per |M| channel")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("fit", parents=[common, engine],
                       help="fit free parameters to a measured spectrum")
    p.add_argument("--data", required=True, help="measured spectrum file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dip", parents=[common],
                       help="print the predicted dip position")
    p.set_defaults(func=cmd_dip)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="compare analytic populations against the exact"
                            " steady-state solve")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # held back during the run, so that a --json-errors report is the only
    # thing on stderr; shown after it otherwise, also when the run raises
    caught, error = [], None
    try:
        with warnings.catch_warnings(record=True) as caught:
            code, error = _run(args)
    finally:
        if error is None or not args.json_errors:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename,
                                     w.lineno)
    if error is not None and args.json_errors:
        payload = {"error": type(error).__name__, "message": str(error),
                   "exit_code": code,
                   "warnings": [f"{os.path.basename(w.filename)}:{w.lineno}:"
                                f" {w.category.__name__}: {w.message}"
                                for w in caught]}
        print(json.dumps(payload), file=_sys.stderr)
    elif error is not None:
        print(f"eitmol: error: {error}", file=_sys.stderr)
    return code


def _run(args):
    """(exit code, the error that set it or None)."""
    try:
        return args.func(args), None
    except (ParseError, ValidationError, UnitError, OSError) as exc:
        return EXIT_CONFIG, exc
    except (EitmolError, ArithmeticError) as exc:
        return EXIT_NUMERIC, exc


def _prepare(args):
    if args.threads < 1:  # argparse would print usage, not --json-errors
        raise ValidationError(f"--threads: must be at least 1, got"
                              f" {args.threads}")
    cfg = load_config(args.config)
    scan = cfg.scan
    if getattr(args, "engine", None):
        scan = dataclasses.replace(scan, engine=args.engine)
    channelset = build_channels(cfg.system, cfg.mu_probe_au,
                                cfg.mu_coupling_au, cfg.lasers.field_probe,
                                cfg.lasers.field_coupling)
    return cfg, scan, channelset


def _outdir(args, cfg):
    out = args.out if getattr(args, "out", None) else cfg.output.directory
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg, scan, channelset = _prepare(args)
    spec = simulate(cfg.system, cfg.lasers, cfg.ensemble, channelset, scan,
                    quadrature=cfg.quadrature, threads=args.threads)
    out = _outdir(args, cfg)
    base = os.path.join(out, cfg.output.basename)
    write_spectrum(spec, base + ".csv", base + ".json")
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


def cmd_components(args) -> int:
    cfg, scan, channelset = _prepare(args)
    if not scan.m_sum_on:
        raise ValidationError(f"{cfg.source}: [scan] m_sum: must be on for"
                              " components: off leaves only the bare"
                              " pseudo-channel, which is no |M| sublevel")
    comps = per_m_components(cfg.system, cfg.lasers, cfg.ensemble, channelset,
                             scan, quadrature=cfg.quadrature,
                             threads=args.threads)
    out = _outdir(args, cfg)
    for spec in comps:
        m = spec.metadata["component.abs_m"]
        base = os.path.join(out, f"{cfg.output.basename}_m{m:02d}")
        write_spectrum(spec, base + ".csv", base + ".json")
    print(f"wrote {len(comps)} |M| components to {out}")
    return EXIT_OK


def cmd_dip(args) -> int:
    cfg = load_config(args.config)
    pos = predict_dip_position(cfg.scan.delta2_mhz, cfg.system.omega21_cm,
                               cfg.system.omega32_cm, cfg.ensemble)
    print(f"{pos:.1f} MHz")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg, scan, _ = _prepare(args)
    if cfg.fit is None:
        raise ValidationError(f"{cfg.source}: fitting requires a [fit] section")
    data = load_spectrum(args.data, abscissa=cfg.fit.data_abscissa,
                         resonance_cm=cfg.system.omega21_cm)
    problem = FitProblem(
        target_delta1_mhz=data.delta1_mhz,
        target_signal=data.signal,
        channel=cfg.fit.channel,
        free=cfg.fit.free,
        bounds=cfg.fit.bounds,
        system=cfg.system,
        lasers=cfg.lasers,
        ensemble=cfg.ensemble,
        mu_probe_au=cfg.mu_probe_au,
        mu_coupling_au=cfg.mu_coupling_au,
        delta2_mhz=scan.delta2_mhz,
        doppler_on=scan.doppler_on,
        m_sum_on=scan.m_sum_on,
        quadrature=cfg.quadrature,
        max_evaluations=cfg.fit.max_evaluations,
        target_sigma=data.sigma,
        engine=scan.engine,
        threads=args.threads,
    )
    result = fit(problem, cfg.fit.init)
    # the raw model at the best point, checked before any file is written
    best = validate_quadrature(problem, result.best_params)
    out = _outdir(args, cfg)
    base = os.path.join(out, cfg.output.basename)
    with open(base + "_fit.json", "w", encoding="ascii") as fh:
        json.dump(fit_report_dict(result, problem), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    best_signal = (result.best_params.get("amplitude_scale", 1.0)
                   * best.signal(problem.channel)
                   + result.best_params.get("baseline_offset", 0.0))
    best = dataclasses.replace(
        best, **{f"signal_{problem.channel}": best_signal})
    write_spectrum(best, base + "_bestfit.csv", base + "_bestfit.json")
    for name in problem.free:
        unit = result.units[name]
        print(f"{name} = {result.best_params[name]:.6g} {unit}"
              f" (+- {result.sensitivity[name]['half_interval']:.2g},"
              " curvature sensitivity)")
    print(f"residual {result.residual_norm:.6g} after"
          f" {result.evaluations} evaluations;"
          f" converged: {result.converged}")
    if not result.converged:
        return EXIT_FIT
    return EXIT_OK


def oracle_deviation(system) -> float:
    """Worst relative deviation of the analytic populations from the exact
    solve over the oracle-check grid (see ``ORACLE_DETUNINGS``)."""
    gam = system.gamma2
    g1 = ORACLE_PROBE * gam
    d1 = ORACLE_DETUNINGS[:, None] * gam
    d2 = ORACLE_DETUNINGS[None, :] * gam
    devs = []
    for g2 in ORACLE_COUPLINGS * gam:
        o22, o33 = populations_grid(system, g1, g2, d1, d2)
        a22 = population_rho22(system, g1, g2, d1, d2)
        a33 = population_rho33(system, g1, g2, d1, d2)
        devs += [np.abs(a22 - o22) / np.abs(o22),
                 np.abs(a33 - o33) / np.abs(o33)]
    return float(np.max(devs))  # NaN propagates, and then fails the check


def cmd_oracle_check(args) -> int:
    """Weak-probe analytic populations vs the 9x9 direct solve."""
    worst = oracle_deviation(load_config(args.config).system)
    ok = worst <= ORACLE_CHECK_TOL
    n, m = ORACLE_DETUNINGS.size, ORACLE_COUPLINGS.size
    print(f"oracle check: max relative deviation {worst:.3e} over"
          f" {n}x{n}x{m} grid"
          f" (tolerance {ORACLE_CHECK_TOL:.0e}): {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
