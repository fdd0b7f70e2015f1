"""Fluorescence lineshape scan engine.

For each probe detuning delta1 the reported signal of level i is

    signal_i(delta1, delta2) = sum_|M| multiplicity(|M|) *
        integral rho_ii(D1(vz), D2(vz); g1(|M|), g2(|M|)) N(vz) dvz

i.e. the per-channel steady-state population, Doppler averaged, then summed
over magnetic sublevel channels.  Signals are non-normalized (arbitrary
units); an overall scale is left to the fitting layer.

The velocity integral is taken in one of two ways.  With the analytic
engine and Doppler on, it is the closed form of
``analytic.doppler_averaged_populations``, for all channels and delta1
points at once.  When the quadrature is verified, that result is checked
against the trapezoid of ``doppler.node_plan`` and its doubled rule at every
50th point, the last point and the extremes of each summed signal, and the
worst deviation is echoed as ``quadrature.max_refinement_shift`` with
``quadrature.scheme = faddeeva``.  The oracle engine and Doppler-free scans
average on the trapezoid itself (a single node vz = 0 without Doppler), and
a verified oracle scan checks every point against the doubled rule.

Determinism: the trapezoid grid is processed in blocks of about 2^15
points x nodes, so that a block's complex temporaries stay in cache; their
boundaries depend only on the grid and the node count, never on the thread
count.  Each velocity reduction (``doppler.weighted_sum``) gives a row the
same bits whatever block it is reduced in, the closed form runs in one
thread, and the channel sum runs in ascending-|M| order, so outputs are
bit-identical for any ``threads`` value.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analytic import (
    channel_populations,
    doppler_averaged_populations,
    population_rho22,  # noqa: F401  (re-exported as spectrum.population_rho22)
)
from .bloch import populations_grid
from .doppler import (
    CO_PROPAGATING,
    FADDEEVA,
    TRAPEZOID,
    Ensemble,
    QuadratureSpec,
    node_plan,
    rest_frame_plan,
    velocity_detunings,
    weighted_sum,
)
from .errors import QuadratureNotConverged, UnphysicalSignal
from .sublevels import ChannelSet
from .system import CascadeSystem, LaserPair
from .units import angular_from_mhz

ENGINE_ANALYTIC = "analytic"
ENGINE_ORACLE = "oracle"

RHO22 = "rho22"
RHO33 = "rho33"

# points x nodes per work unit: a block's complex temporaries stay in cache
_BLOCK = 1 << 15
_SPOT_CHECK_STRIDE = 50  # closed form: trapezoid-checked every 50th point


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Probe-detuning scan description (detunings in cyclic MHz)."""

    delta1_mhz: np.ndarray
    delta2_mhz: float = 0.0
    channels: tuple = (RHO22, RHO33)
    doppler_on: bool = True
    m_sum_on: bool = True
    engine: str = ENGINE_ANALYTIC
    verify_quadrature: bool = True
    feature_resolution_mhz: float | None = None

    def __post_init__(self):
        grid = np.asarray(self.delta1_mhz, float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("delta1 grid must be a 1-D array of >= 2 points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("delta1 grid must be finite")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("delta1 grid must be strictly increasing")
        object.__setattr__(self, "delta1_mhz", grid)
        if not np.isfinite(self.delta2_mhz):
            raise ValueError("delta2 must be finite")
        if not self.channels or not set(self.channels) <= {RHO22, RHO33}:
            raise ValueError("channels must be a non-empty subset of"
                             " {rho22, rho33}")
        if self.engine not in (ENGINE_ANALYTIC, ENGINE_ORACLE):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.feature_resolution_mhz is not None:
            if not np.isfinite(self.feature_resolution_mhz):
                raise ValueError("feature resolution must be finite")
            if np.max(np.diff(grid)) > self.feature_resolution_mhz:
                raise ValueError("grid spacing exceeds the requested feature"
                                 " resolution")


@dataclass(eq=False)
class Spectrum:
    """Signals on the probe-detuning grid plus a full parameter echo."""

    delta1_mhz: np.ndarray
    signal_rho22: np.ndarray
    signal_rho33: np.ndarray
    metadata: dict = field(default_factory=dict)

    def signal(self, channel: str) -> np.ndarray:
        if channel == RHO22:
            return self.signal_rho22
        if channel == RHO33:
            return self.signal_rho33
        raise KeyError(channel)


def simulate(sys: CascadeSystem, lasers: LaserPair, ensemble: Ensemble | None,
             channelset: ChannelSet, scan: ScanConfig,
             quadrature: QuadratureSpec | None = None,
             threads: int = 1) -> Spectrum:
    """Run the scan and return the |M|-summed spectrum."""
    quadrature = quadrature or QuadratureSpec()
    channels = _active_channels(channelset, scan)
    per = _per_channel_spectra(sys, ensemble, channels, scan, quadrature,
                               threads)
    return _spectrum(per, channels, sys, lasers, ensemble, channelset, scan,
                     quadrature)


def per_m_components(sys: CascadeSystem, lasers: LaserPair,
                     ensemble: Ensemble | None, channelset: ChannelSet,
                     scan: ScanConfig,
                     quadrature: QuadratureSpec | None = None,
                     threads: int = 1) -> list:
    """Per-|M| spectra (multiplicity applied) before the channel sum."""
    quadrature = quadrature or QuadratureSpec()
    channels = _active_channels(channelset, scan)
    values, check = _per_channel_spectra(sys, ensemble, channels, scan,
                                         quadrature, threads)
    out = []
    for i, ch in enumerate(channels):
        one = slice(i, i + 1)
        row_check = None if check is None else \
            (check[0], check[1][:, one], check[2][:, one])
        spec = _spectrum((values[:, one], row_check), [ch], sys, lasers,
                         ensemble, channelset, scan, quadrature)
        spec.metadata["component.abs_m"] = ch.abs_m
        spec.metadata["component.multiplicity"] = ch.multiplicity
        out.append(spec)
    return out


# engine internals -----------------------------------------------------------

SIGNALS = (RHO22, RHO33)  # row order of the per-channel signal arrays


def _active_channels(channelset: ChannelSet, scan: ScanConfig):
    if scan.m_sum_on:
        return list(channelset.channels)
    return [channelset.bare_channel()]


def _channel_rows(sys, scan, channels, d1, d2):
    """Yield (i, rho22, rho33) on the detuning grid for each channel i.

    A population the scan does not request is None, and so is the analytic
    rho33 of a channel with g2 == 0: it carries an explicit factor g2^2, so
    it is exactly zero and ``channel_populations`` does not evaluate it.
    The oracle solve yields both populations together, so nothing is
    skipped there.
    """
    wanted = (RHO22 in scan.channels, RHO33 in scan.channels)
    if scan.engine == ENGINE_ANALYTIC:
        yield from channel_populations(
            sys, [ch.g1 for ch in channels], [ch.g2 for ch in channels], d1,
            d2, sys.rho11_init, *wanted)
        return
    for i, ch in enumerate(channels):
        pops = populations_grid(sys, ch.g1, ch.g2, d1, d2, sys.rho11_init)
        yield (i, *(p if want else None for p, want in zip(pops, wanted)))


def _closed_form(scan):
    """True when the Doppler average is taken in closed form."""
    return scan.engine == ENGINE_ANALYTIC and scan.doppler_on


def _per_channel_spectra(sys, ensemble, channels, scan, quadrature, threads):
    """Velocity-averaged signals of each channel, before multiplicity.

    Returns (values, check).  ``values`` has shape (signals, channels,
    points).  ``check`` is None when the quadrature is not verified, else
    (idx, coarse, fine): the trapezoid averages on the N-node rule and on
    its doubled rule at the delta1 indices ``idx``, shaped like ``values``
    restricted to those points.  The analytic engine averages in closed form
    and is checked at a few points; the oracle engine averages on the
    trapezoid and is checked everywhere.  A Doppler-free scan runs the
    trapezoid path on the single node vz = 0.
    """
    if scan.doppler_on and ensemble is None:
        raise ValueError("doppler_on scan requires an Ensemble")
    grid = scan.delta1_mhz
    if _closed_form(scan):
        values = _doppler_closed_form(sys, ensemble, channels, scan)
        if not scan.verify_quadrature:
            return values, None
        idx = _spot_check_points(values, channels, scan)
        coarse, fine = _trapezoid(sys, ensemble, channels, scan, grid[idx],
                                  node_plan(ensemble, quadrature), threads)
        return values, (idx, coarse, fine)
    if scan.doppler_on:
        plan = node_plan(ensemble, quadrature, scan.verify_quadrature)
    else:
        plan = rest_frame_plan()
    coarse, fine = _trapezoid(sys, ensemble, channels, scan, grid, plan,
                              threads)
    return coarse, None if fine is None else (np.arange(grid.size), coarse,
                                              fine)


def _doppler_closed_form(sys, ensemble, channels, scan):
    """Closed-form Maxwellian averages of the analytic populations."""
    d1 = angular_from_mhz(scan.delta1_mhz)
    d2 = angular_from_mhz(scan.delta2_mhz)
    # slopes of D1 and D2 in t = vz/u_p
    b1, b2 = velocity_detunings(0.0, 0.0, sys.omega21_angular + d1,
                                sys.omega32_angular + d2, ensemble.u_p,
                                ensemble.geometry)
    return np.stack(doppler_averaged_populations(
        sys, [ch.g1 for ch in channels], [ch.g2 for ch in channels], d1, d2,
        b1, b2, sys.rho11_init, RHO22 in scan.channels,
        RHO33 in scan.channels))


def _spot_check_points(values, channels, scan):
    """Every 50th delta1 index, the last one, and the extremes of each
    requested summed signal."""
    n = scan.delta1_mhz.size
    total = _channel_sum(values, channels)
    idx = set(range(0, n, _SPOT_CHECK_STRIDE)) | {n - 1}
    for sig in scan.channels:
        s = SIGNALS.index(sig)
        idx |= {int(np.argmax(total[s])), int(np.argmin(total[s]))}
    return np.array(sorted(idx))


def _trapezoid(sys, ensemble, channels, scan, delta1_mhz, plan, threads):
    """Trapezoid averages of each channel at ``delta1_mhz`` over ``plan``.

    Returns (coarse, fine), each of shape (signals, channels, points); fine
    is None when the plan carries no doubled rule.  Rows a scan does not
    evaluate stay zero.  Each channel's rows are reduced as soon as they are
    produced, one block of about ``_BLOCK`` points x nodes at a time.
    """
    geometry = ensemble.geometry if ensemble is not None else CO_PROPAGATING
    n = delta1_mhz.size
    shape = (len(SIGNALS), len(channels), n)
    coarse = np.zeros(shape)
    fine = None if plan.fine is None else np.zeros(shape)
    rules = [(out, rule) for out, rule in ((coarse, plan.coarse),
                                           (fine, plan.fine))
             if rule is not None]
    step = max(1, _BLOCK // plan.vz.size)

    def work(lo):
        hi = min(lo + step, n)
        d1 = angular_from_mhz(delta1_mhz[lo:hi])[:, None]
        d2 = angular_from_mhz(scan.delta2_mhz)
        big_d1, big_d2 = velocity_detunings(
            d1, d2, sys.omega21_angular + d1, sys.omega32_angular + d2,
            plan.vz[None, :], geometry)
        for i, *rows in _channel_rows(sys, scan, channels, big_d1, big_d2):
            for s, row in enumerate(rows):
                if row is None:
                    continue
                for out, (sl, w) in rules:
                    out[s, i, lo:hi] = weighted_sum(row[..., sl], w)

    blocks = range(0, n, step)
    if threads <= 1:
        for lo in blocks:
            work(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return coarse, fine


def _spectrum(per, channels, sys, lasers, ensemble, channelset, scan,
              quadrature):
    """Sum per-channel rows over ``channels``, check and finalize them."""
    values, check = per
    total = _channel_sum(values, channels)
    _require_finite(total, scan.delta1_mhz)
    shift = None
    if check is not None:
        idx, coarse, fine = check
        coarse, fine = (_channel_sum(p, channels) for p in (coarse, fine))
        for part in (coarse, fine):
            _require_finite(part, scan.delta1_mhz[idx])
        shift = _check_refinement(total, coarse, fine, idx, scan, quadrature)
    return Spectrum(
        delta1_mhz=scan.delta1_mhz.copy(),
        signal_rho22=_finalize(total[0]),
        signal_rho33=_finalize(total[1]),
        metadata=_metadata(sys, lasers, ensemble, channelset, scan,
                           quadrature, shift),
    )


def _channel_sum(per, channels):
    """Multiplicity-weighted channel sum, accumulated in ascending |M|."""
    total = np.zeros((per.shape[0], per.shape[2]))
    for i, ch in enumerate(channels):
        total += ch.multiplicity * per[:, i]
    return total


def _require_finite(total, delta1_mhz):
    bad = np.argwhere(~np.isfinite(total))
    if bad.size:
        s, k = bad[0]
        raise UnphysicalSignal(
            f"non-finite {SIGNALS[s]} signal at delta1 ="
            f" {delta1_mhz[k]:g} MHz")


def _check_refinement(total, coarse, fine, idx, scan, quadrature):
    """Largest move of a reported point against the doubled rule, relative
    to the peak of its signal.

    At each checked index both the reported value and the N-node trapezoid
    are compared with the doubled-rule trapezoid; on the trapezoid path the
    reported value is the N-node average itself.
    """
    worst, where = 0.0, None
    for sig in scan.channels:
        s = SIGNALS.index(sig)
        peak = float(np.max(np.abs(total[s])))
        if peak == 0.0:
            continue
        reported = np.abs(fine[s] - total[s, idx]) / peak
        rule = np.abs(fine[s] - coarse[s]) / peak
        dev = np.maximum(reported, rule)
        k = int(np.argmax(dev))
        if dev[k] > worst:
            worst = float(dev[k])
            where = sig, scan.delta1_mhz[idx[k]], rule[k] >= reported[k]
    if worst > quadrature.refinement_tolerance:
        sig, x, by_rule = where
        hint = (f"increase node_count above {quadrature.node_count}"
                if by_rule else
                "the trapezoid agrees with its doubled rule but not with the"
                f" closed form; widen span above {quadrature.span} u_p")
        raise QuadratureNotConverged(
            f"{sig} at delta1 = {x:g} MHz moved by {worst:.3e} of peak"
            f" against the doubled {2 * quadrature.node_count - 1}-node"
            f" trapezoid; {hint}")
    return worst


def _finalize(signal):
    """Clip negative rounding noise; genuine negatives indicate a bug."""
    floor = -1e-12 * max(float(np.max(np.abs(signal))), np.finfo(float).tiny)
    if float(np.min(signal)) < floor:
        raise UnphysicalSignal(
            "negative population signal beyond rounding noise")
    return np.clip(signal, 0.0, None)


def _metadata(sys, lasers, ensemble, channelset, scan, quadrature, shift):
    meta = {
        "package": f"eitmol {__version__}",
        "engine": scan.engine,
        "system.omega21_cm": sys.omega21_cm,
        "system.omega32_cm": sys.omega32_cm,
        "system.gamma2_Mrad_s": sys.gamma2,
        "system.gamma3_Mrad_s": sys.gamma3,
        "system.b2": sys.b2,
        "system.b3": sys.b3,
        "system.gamma12_col_Mrad_s": sys.gamma12_col,
        "system.gamma13_col_Mrad_s": sys.gamma13_col,
        "system.gamma23_col_Mrad_s": sys.gamma23_col,
        "system.transit_rate_Mrad_s": sys.transit_rate,
        "system.refill_rate_Mrad_s": sys.refill_rate,
        "system.J": f"{sys.J1},{sys.J2},{sys.J3}",
        "system.branches": f"{sys.branch_probe},{sys.branch_coupling}",
        "scan.delta2_MHz": scan.delta2_mhz,
        "scan.points": int(scan.delta1_mhz.size),
        "scan.delta1_min_MHz": float(scan.delta1_mhz[0]),
        "scan.delta1_max_MHz": float(scan.delta1_mhz[-1]),
        "scan.channels": ",".join(scan.channels),
        "scan.doppler_on": scan.doppler_on,
        "scan.m_sum_on": scan.m_sum_on,
        "channels.count": len(channelset),
        "channels.probe_coupled": channelset.probe_coupled_count,
        "channels.coupling_coupled": channelset.coupling_coupled_count,
        "channels.g1_bare_Mrad_s": channelset.g1_bare,
        "channels.g2_bare_Mrad_s": channelset.g2_bare,
        "quadrature.scheme": FADDEEVA if _closed_form(scan) else TRAPEZOID,
        "quadrature.node_count": quadrature.node_count,
        "quadrature.span_u_p": quadrature.span,
        "quadrature.refinement_tolerance": quadrature.refinement_tolerance,
        "quadrature.max_refinement_shift": shift,
        "quadrature.verified": shift is not None,
    }
    if lasers is not None:
        meta["lasers.omega_probe_cm"] = lasers.omega_probe_cm
        meta["lasers.omega_coupling_cm"] = lasers.omega_coupling_cm
        meta["lasers.power_probe_W"] = lasers.power_probe_w
        meta["lasers.power_coupling_W"] = lasers.power_coupling_w
        meta["lasers.waist_probe_m"] = lasers.waist_probe_m
        meta["lasers.waist_coupling_m"] = lasers.waist_coupling_m
    if ensemble is not None:
        meta["ensemble.temperature_K"] = ensemble.temperature_k
        meta["ensemble.mass_amu"] = ensemble.mass_amu
        meta["ensemble.geometry"] = ensemble.geometry
        meta["ensemble.u_p_m_s"] = ensemble.u_p
    return meta


# serialization ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _plain(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def spectrum_csv_text(spec: Spectrum) -> str:
    lines = ["# eitmol spectrum"]
    for key in sorted(spec.metadata):
        lines.append(f"# {key} = {_plain(spec.metadata[key])}")
    lines.append("delta1_MHz,rho22_au,rho33_au")
    for x, a, b in zip(spec.delta1_mhz, spec.signal_rho22, spec.signal_rho33):
        lines.append(f"{_fmt(x)},{_fmt(a)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def spectrum_json_dict(spec: Spectrum) -> dict:
    return {
        "metadata": {k: _plain(spec.metadata[k]) for k in sorted(spec.metadata)},
        "delta1_MHz": [float(_fmt(x)) for x in spec.delta1_mhz],
        "rho22_au": [float(_fmt(x)) for x in spec.signal_rho22],
        "rho33_au": [float(_fmt(x)) for x in spec.signal_rho33],
    }


def write_spectrum(spec: Spectrum, csv_path, json_path=None) -> None:
    import json

    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(spectrum_csv_text(spec))
    if json_path is not None:
        with open(json_path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(spectrum_json_dict(spec), fh, indent=1, sort_keys=True)
            fh.write("\n")
