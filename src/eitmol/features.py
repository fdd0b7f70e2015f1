"""Feature extraction: peaks, dips, widths, splittings, and the dip law.

Peak and dip positions are refined by three-point parabolic interpolation,
so they resolve below the scan grid step.  The dip of a two-peak spectrum is
measured against a linear baseline drawn between the flanking peak tops,
which matches how depths are read off plotted spectra.
"""

from dataclasses import dataclass

import numpy as np

from .doppler import CO_PROPAGATING, Ensemble
from .errors import FewerThanTwoPeaks, NoDipFound

_PEAK_FLOOR = 1e-6  # of the spectrum maximum


@dataclass(frozen=True)
class LineFeatures:
    peak_positions: tuple       # MHz, ascending
    peak_heights: tuple
    dip_position: float         # MHz
    dip_value: float
    dip_depth_fraction: float   # 1 - dip/baseline, in [0, 1]
    fwhm: float                 # MHz, width of the tallest peak structure
    dip_fwhm: float             # MHz, full width of the dip at half depth
    at_splitting: float         # MHz, distance between the two largest peaks


def predict_dip_position(delta2_mhz: float, omega1_cm: float,
                         omega2_cm: float, ensemble: Ensemble | None) -> float:
    """Dip location of the two-photon interference feature, in MHz.

    With an ``ensemble`` (Doppler on, as in ``simulate``) the dip sits where
    the velocity class resonant with the coupling beam sees the probe
    resonant: delta1 = -|k1/k2| delta2 with counter-propagating beams,
    +|k1/k2| delta2 with co-propagating ones.  With None (Doppler-free) it
    sits at -delta2.  A zero dip is +0.0, never -0.0.
    """
    if omega2_cm == 0:
        raise ValueError("coupling wavenumber must be nonzero")
    if ensemble is not None:
        sign = 1.0 if ensemble.geometry == CO_PROPAGATING else -1.0
        return sign * abs(omega1_cm / omega2_cm) * delta2_mhz + 0.0
    return 0.0 - float(delta2_mhz)


def _parabolic_refine(x, y, i):
    """Vertex of the parabola through points i-1, i, i+1."""
    if i == 0 or i == len(y) - 1:
        return float(x[i]), float(y[i])
    a, b, c = y[i - 1], y[i], y[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return float(x[i]), float(b)
    shift = 0.5 * (a - c) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    pos = x[i] + shift * 0.5 * (x[i + 1] - x[i - 1])
    height = b - 0.25 * (a - c) * shift
    return float(pos), float(height)


def find_peaks(x, y, floor_frac: float = _PEAK_FLOOR):
    """Local maxima above the noise floor, parabolic-refined, ascending x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    floor = floor_frac * float(np.max(y))
    peaks = []
    for i in range(1, y.size - 1):
        if y[i] < y[i - 1] or y[i] < y[i + 1] or y[i] <= floor:
            continue
        if y[i] == y[i - 1]:  # plateau: keep only its first sample
            continue
        peaks.append(_parabolic_refine(x, y, i))
    return peaks


def extract_features(spectrum, channel: str) -> LineFeatures:
    """Quantify a two-peak spectrum; raises for weak-coupling single peaks."""
    x = np.asarray(spectrum.delta1_mhz, float)
    y = np.asarray(spectrum.signals[channel], float)
    peaks = find_peaks(x, y)
    if len(peaks) < 2:
        raise FewerThanTwoPeaks(
            f"{channel}: found {len(peaks)} peak(s); need two for dip and"
            " splitting analysis")
    by_height = sorted(peaks, key=lambda p: p[1], reverse=True)
    (p_left, h_left), (p_right, h_right) = sorted(by_height[:2])

    inside = np.where((x > p_left) & (x < p_right))[0]
    if inside.size == 0:
        raise NoDipFound("no grid points between the two largest peaks")
    j = int(inside[np.argmin(y[inside])])
    dip_pos, dip_val = _parabolic_refine(x, -y, j)
    dip_val = -dip_val
    baseline = h_left + (h_right - h_left) * (dip_pos - p_left) / (p_right - p_left)
    if baseline <= 0 or dip_val >= baseline:
        raise NoDipFound("no depression below the inter-peak baseline")
    depth_fraction = float(np.clip(1.0 - dip_val / baseline, 0.0, 1.0))

    return LineFeatures(
        peak_positions=tuple(p for p, _ in sorted(peaks)),
        peak_heights=tuple(h for _, h in sorted(peaks)),
        dip_position=dip_pos,
        dip_value=dip_val,
        dip_depth_fraction=depth_fraction,
        fwhm=_half_max_width(x, y),
        dip_fwhm=_dip_width(x, y, (p_left, h_left), (p_right, h_right),
                            dip_pos, dip_val),
        at_splitting=p_right - p_left,
    )


def profile_fwhm(x, y):
    """(peak position, FWHM) of a single-peak profile."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    i = int(np.argmax(y))
    pos, height = _parabolic_refine(x, y, i)
    return pos, _half_max_width(x, y, level=0.5 * height)


def _crossing(x, y, start, level, step):
    """Where y first falls below ``level`` going from ``start`` by ``step``
    (+1 to the right, -1 to the left), linearly interpolated; NaN if never."""
    for i in range(start, y.size - 1 if step > 0 else 0, step):
        if y[i + step] < level <= y[i]:
            frac = (y[i] - level) / (y[i] - y[i + step])
            return float(x[i] + frac * (x[i + step] - x[i]))
    return float("nan")


def _half_max_width(x, y, level=None):
    i = int(np.argmax(y))
    if level is None:
        level = 0.5 * float(y[i])
    return _crossing(x, y, i, level, 1) - _crossing(x, y, i, level, -1)


def _dip_width(x, y, left_peak, right_peak, dip_pos, dip_val):
    """Full width of the dip at half its depth below the linear baseline."""
    (pl, hl), (pr, hr) = left_peak, right_peak
    mask = (x >= pl) & (x <= pr)
    xs = x[mask]
    baseline = hl + (hr - hl) * (xs - pl) / (pr - pl)
    depth = baseline - y[mask]  # dip appears as a peak of this curve
    j = int(np.argmin(np.abs(xs - dip_pos)))
    level = 0.5 * float(np.max(depth))
    return (_crossing(xs, depth, j, level, 1)
            - _crossing(xs, depth, j, level, -1))
