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
at every 50th point, the last point and the extremes of each summed signal
against both rules of ``doppler.graded_rule`` (``_graded_check``): panels
graded toward each (g2, delta1) row's poles, Gauss-7 and Kronrod-15 on each,
with the values from the real-arithmetic kernel.  The worst deviation is
echoed as ``quadrature.max_refinement_shift`` with
``quadrature.scheme = faddeeva``.  The oracle engine averages on the
trapezoid of ``doppler.node_plan``, and a verified oracle scan checks every
point against its doubled rule.  A Doppler-free scan is the population
table on the delta1 grid.

A scan is one pass (``_spectra``): its inputs are converted once, every
channel's table comes from one kernel call, and each spectrum's channels
are summed once.  The spot-check points are read from those sums, and the
oracle's N-node rule is the reported sum itself.

Determinism: the graded check runs in fixed blocks of ``_ROWS`` rows, each
padded to its widest row, and the oracle's trapezoid in blocks of about
``_BLOCK`` points x nodes; their boundaries depend only on the inputs,
never on the thread count.  Each row is reduced on its own (einsum on the
graded rule, ``doppler.weighted_sum`` on the trapezoid), so its bits depend
only on the row and its (padded) length; on the graded rule a row the
channels of one g2 share is reduced once, and the channel scales are
applied after the last block.  The closed form runs in one thread, and the
channel sum runs in ascending-|M| order, so outputs are bit-identical for
any ``threads`` value.
"""

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import __version__, analytic
from .analytic import (
    _poles,
    channel_populations,
    doppler_averaged_populations,
    group_factors,
    population_rho22,  # noqa: F401  (re-exported as spectrum.population_rho22)
)
from .bloch import populations_grid
from .doppler import (
    FADDEEVA,
    TRAPEZOID,
    Ensemble,
    QuadratureSpec,
    graded_rule,
    node_plan,
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
SIGNALS = (RHO22, RHO33)  # order of the written columns and the signal rows

# points x nodes per work unit of the oracle's trapezoid
_BLOCK = 1 << 14
# (g2, delta1) rows per block of the graded spot-check: fixed, so that a
# row's padded width, and with it its bits, never depends on ``threads``
_ROWS = 16
_SPOT_CHECK_STRIDE = 50  # closed form: checked at every 50th point


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Probe-detuning scan description (detunings in cyclic MHz)."""

    delta1_mhz: np.ndarray
    delta2_mhz: float = 0.0
    channels: tuple = SIGNALS
    doppler_on: bool = True
    m_sum_on: bool = True
    engine: str = ENGINE_ANALYTIC
    verify_quadrature: bool = True

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
        if not 0 < len({*self.channels} & {*SIGNALS}) == len(self.channels):
            raise ValueError("channels must be one or more distinct names out"
                             f" of {', '.join(SIGNALS)}")
        if self.engine not in (ENGINE_ANALYTIC, ENGINE_ORACLE):
            raise ValueError(f"unknown engine {self.engine!r}")

    @property
    def requested(self) -> tuple:
        """One flag per name of ``SIGNALS``, in its order: is it in
        ``channels``."""
        return RHO22 in self.channels, RHO33 in self.channels


@dataclass(eq=False)
class Spectrum:
    """Signals on the probe-detuning grid plus a full parameter echo.

    ``signals`` maps each name of ``SIGNALS`` to its array; a signal the
    scan did not request reads 0."""

    delta1_mhz: np.ndarray
    signals: dict
    metadata: dict = field(default_factory=dict)

    @property
    def signal_rho33(self) -> np.ndarray:
        """Read-only alias of ``signals["rho33"]``."""
        return self.signals[RHO33]


def simulate(sys: CascadeSystem, lasers: LaserPair, ensemble: Ensemble | None,
             channelset: ChannelSet, scan: ScanConfig,
             quadrature: QuadratureSpec | None = None,
             threads: int = 1) -> Spectrum:
    """Run the scan and return the |M|-summed spectrum."""
    return simulate_many(sys, lasers, ensemble, [channelset], scan,
                         quadrature, threads)[0]


def simulate_many(sys: CascadeSystem, lasers: LaserPair,
                  ensemble: Ensemble | None, channelsets, scan: ScanConfig,
                  quadrature: QuadratureSpec | None = None,
                  threads: int = 1) -> list:
    """One spectrum per ``ChannelSet`` of ``channelsets``, from one kernel
    call over all their channels: the sets share the system, lasers,
    ensemble and scan.  Each spectrum is the one ``simulate`` gives its set
    alone, bit for bit.  A verified Doppler-averaged scan is checked at
    points of its own signals, so it takes one set only (ValueError)."""
    if len(channelsets) > 1 and scan.doppler_on and scan.verify_quadrature:
        raise ValueError("a verified Doppler-averaged scan simulates one"
                         " channel set per call")
    return _spectra(sys, lasers, ensemble, [
        (cs, _active_channels(cs, scan)) for cs in channelsets], scan,
        quadrature, threads)


def per_m_components(sys: CascadeSystem, lasers: LaserPair,
                     ensemble: Ensemble | None, channelset: ChannelSet,
                     scan: ScanConfig,
                     quadrature: QuadratureSpec | None = None,
                     threads: int = 1) -> list:
    """Per-|M| spectra (multiplicity applied) before the channel sum.

    Needs ``scan.m_sum_on``: without it the scan has only the bare
    pseudo-channel, which is no |M| sublevel."""
    if not scan.m_sum_on:
        raise ValueError("per-|M| components need scan.m_sum_on")
    channels = _active_channels(channelset, scan)
    out = _spectra(sys, lasers, ensemble, [(channelset, [ch])
                                           for ch in channels],
                   scan, quadrature, threads)
    for ch, spec in zip(channels, out):
        spec.metadata["component.abs_m"] = ch.abs_m
        spec.metadata["component.multiplicity"] = ch.multiplicity
    return out


# engine internals -----------------------------------------------------------

def _active_channels(channelset: ChannelSet, scan: ScanConfig):
    if scan.m_sum_on:
        return list(channelset.channels)
    return [channelset.bare_channel()]


def _spectra(sys, lasers, ensemble, pieces, scan, quadrature, threads):
    """One spectrum per (channel set, channels) of ``pieces``, in one pass
    over all their channels.

    The delta1 and delta2 inputs are converted and the g1/g2 lists built
    once.  Every channel's signals, before multiplicity, come from one call:
    the kernel table on the delta1 grid without Doppler, else its velocity
    averages, in closed form (analytic engine) or on the trapezoid (oracle
    engine).  Each piece's channels are then summed once.  A verified
    Doppler-averaged scan checks each piece against a fine rule: the
    closed form at the spot-check points of the pieces' summed totals on
    the graded rule, the oracle's trapezoid at every point on its doubled
    rule, its N-node rule being the reported total itself."""
    if scan.doppler_on != (ensemble is not None):
        raise ValueError("an Ensemble is given exactly for a doppler_on scan")
    quadrature = quadrature or QuadratureSpec()
    channels = [ch for _, piece in pieces for ch in piece]
    grid = scan.delta1_mhz
    d1 = angular_from_mhz(grid)
    d2 = angular_from_mhz(scan.delta2_mhz)
    g1 = [ch.g1 for ch in channels]
    g2 = [ch.g2 for ch in channels]
    check = None    # (idx, coarse or None for the reported total, fine)
    if not scan.doppler_on:
        if scan.engine == ENGINE_ANALYTIC:
            values = channel_populations(sys, g1, g2, d1, d2, *scan.requested)
        else:
            values = populations_grid(sys, np.array(g1)[:, None],
                                      np.array(g2)[:, None], d1, d2)
            values[np.logical_not(scan.requested)] = 0.0
    elif scan.engine == ENGINE_ANALYTIC:
        # slopes of D1 and D2 in t = vz/u_p
        b1, b2 = velocity_detunings(0.0, 0.0, sys.omega21_angular + d1,
                                    sys.omega32_angular + d2, ensemble.u_p,
                                    ensemble.geometry)
        values = doppler_averaged_populations(sys, g1, g2, d1, d2, b1, b2,
                                              *scan.requested)
    else:
        values, fine = _trapezoid(sys, ensemble, channels, scan, grid,
                                  node_plan(ensemble, quadrature,
                                            scan.verify_quadrature), threads)
        if fine is not None:
            check = np.arange(grid.size), None, fine
    totals, lo = [], 0
    for _, piece in pieces:
        totals.append(_channel_sum(values[:, lo:lo + len(piece)], piece))
        lo += len(piece)
    if scan.doppler_on and scan.verify_quadrature and \
            scan.engine == ENGINE_ANALYTIC:
        # sum adds the pieces from +0.0 in ascending |M|, as _channel_sum
        # adds channels, so these are the bits of the whole set's sum
        idx = _spot_check_points(sum(totals), scan)
        check = (idx, *_graded_check(sys, ensemble, channels, scan,
                                     grid[idx], quadrature, threads))
    out, lo = [], 0
    for (channelset, piece), total in zip(pieces, totals):
        _require_finite(total, grid)
        shift = None
        if check is not None:
            idx, coarse, fine = check
            hi = lo + len(piece)
            sums = [total if rule is None else
                    _channel_sum(rule[:, lo:hi], piece)
                    for rule in (coarse, fine)]
            lo = hi
            for part in sums:
                _require_finite(part, grid[idx])
            shift = _check_refinement(total, *sums, idx, scan, quadrature)
        out.append(Spectrum(
            delta1_mhz=grid.copy(),
            signals={s: _finalize(row) for s, row in zip(SIGNALS, total)},
            metadata=_metadata(sys, lasers, ensemble, channelset, scan,
                               quadrature, shift)))
    return out


def _spot_check_points(total, scan):
    """Every 50th delta1 index, the last one, and the extremes of each
    requested signal of ``total``, the scan's summed signals."""
    n = scan.delta1_mhz.size
    idx = set(range(0, n, _SPOT_CHECK_STRIDE)) | {n - 1}
    for row in compress(total, scan.requested):
        idx |= {int(np.argmax(row)), int(np.argmin(row))}
    return np.array(sorted(idx))


def _trapezoid(sys, ensemble, channels, scan, delta1_mhz, plan, threads):
    """The oracle engine's trapezoid averages of each channel at
    ``delta1_mhz`` over ``plan``.

    Returns (coarse, fine), each of shape (signals, channels, points); fine
    is None when the plan carries no doubled rule.  A signal not requested
    stays zero.  Block by block (about ``_BLOCK`` points x nodes), each
    channel's rows of the 9x9 solve are reduced once per rule."""
    n = delta1_mhz.size
    rules = [rule for rule in (plan.coarse, plan.fine) if rule is not None]
    d2 = angular_from_mhz(scan.delta2_mhz)
    omega2 = sys.omega32_angular + d2
    d2_row = velocity_detunings(0.0, d2, 0.0, omega2, plan.nodes,
                                ensemble.geometry)[1]
    wanted = np.flatnonzero(scan.requested)
    out = [np.zeros((len(SIGNALS), len(channels), n)) for _ in rules]
    step = max(1, _BLOCK // plan.nodes.size)

    def work(lo):
        hi = min(lo + step, n)
        d1 = angular_from_mhz(delta1_mhz[lo:hi])[:, None]
        big_d1 = velocity_detunings(d1, d2, sys.omega21_angular + d1, omega2,
                                    plan.nodes, ensemble.geometry)[0]
        for i, ch in enumerate(channels):
            pops = populations_grid(sys, ch.g1, ch.g2, big_d1, d2_row)
            for s in wanted:
                for table, (sl, w) in zip(out, rules):
                    table[s, i, lo:hi] = weighted_sum(pops[s][..., sl], w)

    _run_blocks(work, range(0, n, step), threads)
    return out[0], (out[1] if len(out) > 1 else None)


def _graded_check(sys, ensemble, channels, scan, delta1_mhz, quadrature,
                  threads):
    """Each channel's average at ``delta1_mhz`` on both rules of
    ``doppler.graded_rule``, as (coarse, fine) shaped like ``_trapezoid``'s.

    A row is one distinct g2 at one point.  Its nodes are graded toward the
    poles that ``analytic._poles`` places (no Z is evaluated); its values
    come from the real-arithmetic kernel, ``group_factors`` with g2 as a
    per-row column and 1/D in the weights, and it is reduced alone by
    einsum.  The rows run in fixed blocks of ``_ROWS``, each padded to its
    widest row, and ``threads`` splits the blocks.  After the last block
    each row is scaled for each channel of its g2.  Rows a scan does not
    evaluate stay zero, and so does rho33 at g2 == 0."""
    wanted = scan.requested
    members = {}    # g2 -> channel indices; rho33 alone skips g2 == 0
    for i, ch in enumerate(channels):
        if wanted[0] or ch.g2 != 0.0:
            members.setdefault(ch.g2, []).append(i)
    n = delta1_mhz.size
    d1 = angular_from_mhz(delta1_mhz)
    d2 = angular_from_mhz(scan.delta2_mhz)
    b1, b2 = velocity_detunings(0.0, 0.0, sys.omega21_angular + d1,
                                sys.omega32_angular + d2, ensemble.u_p,
                                ensemble.geometry)
    g2 = np.array(list(members), float)
    poles = np.stack(np.broadcast_arrays(
        *_poles(sys, g2[:, None], d1, d2, b1, b2)[0]), axis=-1)
    # row r holds g2[r // n] at point r % n
    poles = poles.reshape(-1, poles.shape[-1])
    g2_row = np.repeat(g2, n)[:, None]
    d1_row, b1_row = (np.tile(a, g2.size)[:, None] for a in (d1, b1))
    reduced = np.zeros((2, len(SIGNALS), len(poles)))  # (rule, signal, row)

    def work(lo):
        at = slice(lo, lo + _ROWS)
        t, *rules = graded_rule(poles[at], quadrature.span)
        big_d1 = d1_row[at] + b1_row[at] * t
        big_d2 = d2 + b2 * t
        A, D, c = analytic._coupling_terms(sys, g2_row[at],
                                           big_d2**2 + sys.G32**2)
        [factors] = group_factors(sys, [(g2_row[at], None, A, D, c)],
                                  big_d1, big_d2, *wanted)
        for table, w in zip(reduced, rules):
            w /= D
            for s, f in enumerate(factors):
                if f is not None:
                    table[s, at] = np.einsum("rk,rk->r", f, w)

    _run_blocks(work, range(0, len(poles), _ROWS), threads)
    out = np.zeros((2, len(SIGNALS), len(channels), n))
    for g, (value, idx) in enumerate(members.items()):
        row = reduced[..., g * n:(g + 1) * n]
        for i in idx:
            g1 = channels[i].g1
            if wanted[0]:
                out[:, 0, i] = -(g1**2 * sys.rho11_init) / 2.0 * row[:, 0]
            if wanted[1] and value != 0.0:
                out[:, 1, i] = analytic._rho33_from(sys, g1, value, 1.0,
                                                    1.0) * row[:, 1]
    return out[0], out[1]


def _run_blocks(work, blocks, threads):
    """``work(block)`` for each block, on ``threads`` threads."""
    if threads <= 1:
        for lo in blocks:
            work(lo)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))


def _channel_sum(per, channels):
    """Multiplicity-weighted channel sum, accumulated in ascending |M| from
    +0.0: numpy reduces the channel axis in order while the points, two or
    more, are its inner loop."""
    weights = np.array([ch.multiplicity for ch in channels], float)
    return np.add.reduce(per * weights[:, None], axis=1, initial=0.0)


def _require_finite(total, delta1_mhz):
    bad = np.argwhere(~np.isfinite(total))
    if bad.size:
        s, k = bad[0]
        raise UnphysicalSignal(
            f"non-finite {SIGNALS[s]} signal at delta1 ="
            f" {delta1_mhz[k]:g} MHz")


def _check_refinement(total, coarse, fine, idx, scan, quadrature):
    """Largest move of a reported point against the fine rule, relative to
    the peak of its signal.

    At each checked index both the reported value and the coarse rule are
    compared with the fine rule: on the closed-form path the Gauss-7 and
    Kronrod-15 rules of ``_graded_check``, on the oracle's the N-node
    trapezoid, which is the reported value itself, and its doubled rule.
    """
    worst, where = 0.0, None
    for s, sig in compress(enumerate(SIGNALS), scan.requested):
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
        if scan.engine == ENGINE_ORACLE:
            against = (f"the doubled {2 * quadrature.node_count - 1}-node"
                       " trapezoid")
            hint = f"increase node_count above {quadrature.node_count}"
        else:
            against = "the Kronrod-15 rule on pole-graded panels"
            hint = ("its Gauss-7 rule disagrees as well: the panels do not"
                    " resolve the integrand" if by_rule else
                    "the rule agrees with its Gauss-7 rule but not with the"
                    f" closed form; widen span above {quadrature.span} u_p")
        raise QuadratureNotConverged(
            f"{sig} at delta1 = {x:g} MHz moved by {worst:.3e} of peak"
            f" against {against}; {hint}")
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
    }
    if lasers is not None:
        meta["lasers.omega_probe_cm"] = sys.omega21_cm
        meta["lasers.omega_coupling_cm"] = sys.omega32_cm
        meta["lasers.power_probe_W"] = lasers.power_probe_w
        meta["lasers.power_coupling_W"] = lasers.power_coupling_w
        meta["lasers.waist_probe_m"] = lasers.waist_probe_m
        meta["lasers.waist_coupling_m"] = lasers.waist_coupling_m
    if ensemble is None:  # Doppler-free: no velocity average to echo
        return meta
    if ensemble.u_p_override is None:  # T and m set u_p
        meta["ensemble.temperature_K"] = ensemble.temperature_k
        meta["ensemble.mass_amu"] = ensemble.mass_amu
    meta["ensemble.geometry"] = ensemble.geometry
    meta["ensemble.u_p_m_s"] = ensemble.u_p
    meta["quadrature.scheme"] = (FADDEEVA if scan.engine == ENGINE_ANALYTIC
                                 else TRAPEZOID)
    meta["quadrature.node_count"] = quadrature.node_count
    meta["quadrature.span_u_p"] = quadrature.span
    meta["quadrature.refinement_tolerance"] = quadrature.refinement_tolerance
    meta["quadrature.max_refinement_shift"] = shift
    meta["quadrature.verified"] = shift is not None
    return meta


# serialization ---------------------------------------------------------------

_NUMBER = "%.12g"  # every written value: 12 significant digits
# exponents of a _NUMBER text whose repr differs in more than a ".0": repr
# writes 1e12 <= |x| < 1e16 in fixed notation, a subnormal in fewer digits
_REPR_EXPONENTS = frozenset([*(f"e+{k}" for k in range(12, 16)),
                             *(f"e-{k}" for k in range(308, 325))])


def _json_numbers(texts):
    """``repr(float(t))`` of each ``_NUMBER`` text ``t``, which the json
    module writes for a finite value.  A normal double's 12 significant
    digits are already its shortest repr, so a text is kept, with ".0"
    added to an integral one; only the ``_REPR_EXPONENTS`` go through
    ``repr``."""
    out = []
    for t in texts:
        if "e" in t:
            out.append(repr(float(t)) if t[t.index("e"):] in _REPR_EXPONENTS
                       else t)
        elif "." in t or not t[-1].isdigit():     # fixed, inf or nan
            out.append(t)
        else:                                       # integral
            out.append(t + ".0")
    return out


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def _columns(spec: Spectrum) -> dict:
    """The written columns by name, formatted with ``_NUMBER``."""
    cols = {"delta1_MHz": spec.delta1_mhz,
            **{f"{s}_au": spec.signals[s] for s in SIGNALS}}
    return {k: [_NUMBER % v for v in c.tolist()] for k, c in cols.items()}


def spectrum_csv_text(spec: Spectrum) -> str:
    return _csv_text(spec, _columns(spec))


def _csv_text(spec, columns):
    lines = ["# eitmol spectrum"]
    lines += (f"# {k} = {_plain(v)}" for k, v in sorted(spec.metadata.items()))
    lines += [",".join(columns), *map(",".join, zip(*columns.values()))]
    return "\n".join(lines) + "\n"


def spectrum_json_dict(spec: Spectrum) -> dict:
    return {
        "metadata": {k: _plain(spec.metadata[k]) for k in sorted(spec.metadata)},
        **{k: [float(s) for s in c] for k, c in _columns(spec).items()},
    }


def _json_text(spec, columns):
    """What ``json.dump(spectrum_json_dict(spec), fh, indent=1,
    sort_keys=True)`` writes, without its pure-Python encoder."""
    from json import dumps

    def block(brackets, items, pad="\n "):    # the layout of indent=1
        return f"{brackets[0]}{pad} {f',{pad} '.join(items)}{pad}{brackets[1]}"

    top = {k: block("[]", _json_numbers(c)) for k, c in columns.items()}
    top["metadata"] = block("{}", (f"{dumps(k)}: {dumps(_plain(v))}" for
                                   k, v in sorted(spec.metadata.items())))
    return block("{}", (f"{dumps(k)}: {top[k]}" for k in sorted(top)), "\n")


def write_spectrum(spec: Spectrum, csv_path, json_path=None) -> None:
    columns = _columns(spec)      # formatted once for both files
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_csv_text(spec, columns))
    if json_path is not None:
        with open(json_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(_json_text(spec, columns) + "\n")
