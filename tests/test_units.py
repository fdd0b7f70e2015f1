import math

import pytest
from hypothesis import given, strategies as st

from eitmol import constants
from eitmol.errors import UnitError
from eitmol.units import (
    _UNITS,
    ANGULAR_MRADS,
    DIPOLE_AU,
    FREQUENCY_MHZ,
    POWER_W,
    TEMPERATURE_K,
    TIME_NS,
    WAVENUMBER_CM,
    field_amplitude,
    parse_quantity,
    rabi_frequency,
)


def test_wavenumber_to_mhz_definition_of_c():
    value = parse_quantity("1 cm-1", FREQUENCY_MHZ)
    assert value == pytest.approx(29979.2458, rel=1e-12)


def test_lifetime_to_decay_rate_is_inverse_lifetime():
    # 18 ns -> gamma = 1/tau = 55.5556 in the canonical angular unit
    rate = parse_quantity("18 ns", ANGULAR_MRADS)
    assert rate == pytest.approx(1e3 / 18.0, rel=1e-12)
    assert rate == pytest.approx(55.5556, rel=1e-5)
    # and back
    back = parse_quantity(f"{rate!r} {ANGULAR_MRADS}", TIME_NS)
    assert back == pytest.approx(18.0, rel=1e-12)


def test_mhz_to_angular_carries_two_pi():
    assert parse_quantity("2 MHz", ANGULAR_MRADS) == 2.0 * (2.0 * math.pi)


def test_zero_converts_to_zero():
    for text, target in [("0 cm-1", FREQUENCY_MHZ),
                         ("0 MHz", ANGULAR_MRADS),
                         ("0 a.u.", DIPOLE_AU),
                         ("0 mW", POWER_W)]:
        assert parse_quantity(text, target) == 0.0


def test_incompatible_dimensions_rejected():
    for text, target in [("1 W", TEMPERATURE_K), ("1 cm-1", POWER_W),
                         ("1 furlongs", FREQUENCY_MHZ),
                         ("0 MHz", TIME_NS)]:  # a zero rate has no lifetime
        with pytest.raises(UnitError):
            parse_quantity(text, target)


_SPECTROSCOPIC = [WAVENUMBER_CM, FREQUENCY_MHZ, ANGULAR_MRADS]


@given(value=st.floats(min_value=1e-6, max_value=1e6),
       src=st.sampled_from(_SPECTROSCOPIC + [TIME_NS]),
       dst=st.sampled_from(_SPECTROSCOPIC + [TIME_NS]))
def test_round_trip_property(value, src, dst):
    there = parse_quantity(f"{value!r} {src}", dst)
    back = parse_quantity(f"{there!r} {dst}", src)
    assert back == pytest.approx(value, rel=1e-12)


@given(value=st.floats(allow_nan=False, allow_infinity=False),
       suffix=st.sampled_from(sorted(_UNITS)))
def test_value_in_its_own_unit_is_read_as_written(value, suffix):
    assert parse_quantity(f"{value!r} {suffix}", suffix) == value


def test_field_amplitude_zero_power():
    assert field_amplitude(0.0, 360e-6) == 0.0


def test_field_amplitude_coupling_preset():
    # hand evaluation of I0 = 2P/(pi w0^2), E = sqrt(2 I0/(eps0 c))
    # for P = 0.48 W, w0 = 360 um gives 4.21491e4 V/m
    assert field_amplitude(0.48, 360e-6) == pytest.approx(4.21491e4, rel=1e-5)


def test_field_amplitude_square_root_power_law():
    e1 = field_amplitude(0.1, 300e-6)
    e4 = field_amplitude(0.4, 300e-6)
    assert e4 == pytest.approx(2.0 * e1, rel=1e-12)


def test_field_amplitude_monotonicity():
    assert field_amplitude(0.2, 300e-6) > field_amplitude(0.1, 300e-6)
    assert field_amplitude(0.1, 400e-6) < field_amplitude(0.1, 300e-6)


def test_field_amplitude_domain_errors():
    with pytest.raises(ValueError):
        field_amplitude(0.1, 0.0)
    with pytest.raises(ValueError):
        field_amplitude(-0.1, 300e-6)


def test_rabi_frequency_scale():
    # 1 a.u. dipole in a 1e4 V/m field
    expected = 8.4783536e-30 * 1e4 / constants.HBAR / 1e6
    assert rabi_frequency(1.0, 1e4) == pytest.approx(expected, rel=1e-12)


def test_constants_table_file_matches_module():
    text = constants.shipped_constants_text()
    assert text == constants.constants_table_text()
    table = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name, value, _unit = line.split()
        table[name] = float(value)
    assert table["speed_of_light"] == constants.SPEED_OF_LIGHT
    assert table["hbar"] == constants.HBAR
    assert table["dipole_atomic_unit"] == constants.DIPOLE_AU_CM
    assert table["wavenumber_to_MHz"] == constants.WAVENUMBER_TO_MHZ
