"""Peak/dip extraction and the coherent dip-position law."""

import math

import numpy as np
import pytest

from eitmol.doppler import Ensemble
from eitmol.errors import FewerThanTwoPeaks
from eitmol.features import (
    extract_features,
    find_peaks,
    predict_dip_position,
    profile_fwhm,
)
from eitmol.spectrum import Spectrum


def make_spectrum(x, y22=None, y33=None):
    zeros = np.zeros_like(np.asarray(x, float))
    return Spectrum(delta1_mhz=np.asarray(x, float), signals={
        "rho22": zeros if y22 is None else np.asarray(y22),
        "rho33": zeros if y33 is None else np.asarray(y33)})


def gaussian(x, center, sigma):
    return np.exp(-0.5 * ((x - center) / sigma) ** 2)


COUNTER = Ensemble(temperature_k=1000.0, mass_amu=14.0)
CO = Ensemble(temperature_k=1000.0, mass_amu=14.0, geometry="co_propagating")


def test_dip_position_law_doppler_on():
    pos = predict_dip_position(420.0, 15642.636, 17053.954, COUNTER)
    assert pos == pytest.approx(-385.2, abs=0.05)
    pos = predict_dip_position(1000.0, 15642.636, 17053.954, COUNTER)
    assert pos == pytest.approx(-917.2, abs=0.05)
    # co-propagating beams flip the sign of the coupling beam's shift
    pos = predict_dip_position(420.0, 15642.636, 17053.954, CO)
    assert pos == pytest.approx(385.2, abs=0.05)


def test_dip_position_law_doppler_free():
    assert predict_dip_position(420.0, 15642.636, 17053.954, None) == -420.0
    assert predict_dip_position(0.0, 15642.636, 17053.954, None) == 0.0
    # the law follows the ensemble, so it has no default
    with pytest.raises(TypeError):
        predict_dip_position(420.0, 15642.636, 17053.954)


@pytest.mark.parametrize("doppler_on, geometry", [
    (True, "counter_propagating"), (True, "co_propagating"),
    (False, "counter_propagating")])
def test_zero_dip_is_unsigned(doppler_on, geometry):
    ensemble = Ensemble(temperature_k=1000.0, mass_amu=14.0,
                        geometry=geometry) if doppler_on else None
    pos = predict_dip_position(0.0, 15642.636, 17053.954, ensemble)
    assert pos == 0.0
    assert math.copysign(1.0, pos) == 1.0


def test_symmetric_double_peak_splitting():
    x = np.linspace(-2000.0, 2000.0, 401)  # 10 MHz step
    y = gaussian(x, -500.0, 120.0) + gaussian(x, 500.0, 120.0)
    f = extract_features(make_spectrum(x, y33=y), "rho33")
    assert f.at_splitting == pytest.approx(1000.0, abs=10.0)
    assert f.dip_position == pytest.approx(0.0, abs=10.0)
    assert -500.0 < f.dip_position < 500.0
    assert 0.0 < f.dip_depth_fraction <= 1.0


def test_dip_lies_between_flanking_peaks():
    x = np.linspace(-1000.0, 1000.0, 801)
    y = 1.1 * gaussian(x, -300.0, 90.0) + gaussian(x, 350.0, 110.0)
    f = extract_features(make_spectrum(x, y22=y), "rho22")
    lo, hi = f.peak_positions[0], f.peak_positions[-1]
    assert lo < f.dip_position < hi


def test_single_peak_raises():
    x = np.linspace(-1000.0, 1000.0, 201)
    y = gaussian(x, 40.0, 200.0)
    with pytest.raises(FewerThanTwoPeaks):
        extract_features(make_spectrum(x, y33=y), "rho33")


def test_parabolic_refinement_beats_grid():
    x = np.linspace(-100.0, 100.0, 41)  # 5 MHz step
    y = gaussian(x, 1.7, 25.0)          # peak off-grid
    peaks = find_peaks(x, y)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(1.7, abs=0.2)


def test_noise_floor_suppresses_microscopic_peaks():
    x = np.linspace(-100.0, 100.0, 201)
    y = gaussian(x, 0.0, 10.0)
    y[5] += 1e-8  # far below the 1e-6 floor
    assert len(find_peaks(x, y)) == 1


def test_profile_fwhm_of_gaussian():
    x = np.linspace(-4000.0, 4000.0, 1601)
    sigma = 600.0
    pos, fwhm = profile_fwhm(x, gaussian(x, 37.0, sigma))
    assert pos == pytest.approx(37.0, abs=2.0)
    assert fwhm == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma,
                                 rel=1e-3)


def test_dip_width_of_constructed_notch():
    x = np.linspace(-1000.0, 1000.0, 2001)
    notch_fwhm = 80.0
    y = 1.0 - 0.5 * (notch_fwhm / 2) ** 2 / ((x - 10) ** 2 + (notch_fwhm / 2) ** 2)
    y *= gaussian(x, 0.0, 4000.0)  # broad envelope so edges fall off
    f = extract_features(make_spectrum(x, y22=y), "rho22")
    assert f.dip_position == pytest.approx(10.0, abs=2.0)
    assert f.dip_fwhm == pytest.approx(notch_fwhm, rel=0.15)
