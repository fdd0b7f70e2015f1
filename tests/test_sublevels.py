"""Line-strength factors and the |M|-channel decomposition."""

import math

import numpy as np
import pytest

from eitmol.analytic import population_rho33
from eitmol.sublevels import build_channels, line_strength_P, line_strength_Q
from eitmol.units import rabi_frequency


def test_q_factor_values():
    assert line_strength_Q(14, 0) == 0.0
    assert line_strength_Q(14, 14) == pytest.approx(14 / math.sqrt(210),
                                                    rel=1e-12)
    assert line_strength_Q(14, -14) == line_strength_Q(14, 14)
    assert line_strength_Q(14, 7) == pytest.approx(
        0.5 * line_strength_Q(14, 14), rel=1e-12)


def test_p_factor_values():
    assert line_strength_P(15, 15) == 0.0
    assert line_strength_P(15, -15) == 0.0
    assert line_strength_P(15, 0) == pytest.approx(math.sqrt(225 / (31 * 29)),
                                                   rel=1e-12)
    assert line_strength_P(15, 0) == pytest.approx(0.5002780, rel=1e-6)


def test_p_factor_monotone_decreasing_in_abs_m():
    vals = [line_strength_P(15, m) for m in range(0, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_factor_domain_errors():
    with pytest.raises(ValueError):
        line_strength_Q(14, 15)
    with pytest.raises(ValueError):
        line_strength_P(15, 16)
    with pytest.raises(ValueError):
        line_strength_Q(0, 0)


def test_factors_bounded_by_unity():
    for j in (1, 5, 14, 15, 40):
        for m in range(0, j + 1):
            assert 0.0 <= line_strength_Q(j, m) <= 1.0
            assert 0.0 <= line_strength_P(j, m) <= 1.0


def test_channel_counts_for_the_li2_configuration(li2_channels):
    # P probe from J = 15 with edge sublevels decoupled: 29 couplings;
    # Q coupling at J = 14 with no M = 0 coupling: 28.
    assert len(li2_channels) == 15
    assert li2_channels.probe_coupled_count == 29
    assert li2_channels.coupling_coupled_count == 28
    assert [c.abs_m for c in li2_channels] == list(range(0, 15))
    assert li2_channels.channel(0).multiplicity == 1
    assert all(li2_channels.channel(m).multiplicity == 2
               for m in range(1, 15))


def test_m_zero_channel_is_two_level(li2_channels):
    ch = li2_channels.channel(0)
    assert ch.f_coupling == 0.0
    assert ch.g2 == 0.0
    assert ch.g1 > 0.0


def test_zero_fields_give_zero_rabi(li2):
    cs = build_channels(li2, 1.0, 1.45, 0.0, 0.0)
    assert all(c.g1 == 0.0 and c.g2 == 0.0 for c in cs)


def test_unsupported_branch_rejected(li2):
    """J -> J+1 is the R branch, which has no line-strength formula."""
    import dataclasses

    with pytest.raises(ValueError, match="is no P"):
        dataclasses.replace(li2, J2=li2.J1 + 1)


def test_non_integer_j_rejected(li2):
    """A float J would construct and fail later inside ``build_channels``;
    it is rejected where the system is built, naming the field.  numpy
    integers are integers."""
    import dataclasses

    with pytest.raises(ValueError, match="J1 must be an integer"):
        dataclasses.replace(li2, J1=15.0, J2=14.0, J3=14.0)
    for name, bad in (("J2", 14.5), ("J3", 14.0), ("J3", "14")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            dataclasses.replace(li2, **{name: bad})
    system = dataclasses.replace(li2, J1=np.int64(15), J2=np.int32(14),
                                 J3=np.int64(14))
    assert len(build_channels(system, 1.0, 1.45, 100.0, 100.0)) == 15


def test_branch_quantum_number_consistency(li2):
    """The J pair fixes the branch: J3 = J2 + 1 is rejected, J3 = J2 - 1 is
    a P-branch coupling that drops the coupling's edge sublevels."""
    import dataclasses

    from eitmol.config import preset_config

    with pytest.raises(ValueError):
        build_channels(dataclasses.replace(li2, J3=15), 1.0, 1.45, 100.0,
                       100.0)
    cfg = preset_config("li2_fig4")
    system = dataclasses.replace(cfg.system, J3=13)
    assert (system.branch_probe, system.branch_coupling) == ("P", "P")
    cs = build_channels(system, cfg.mu_probe_au, cfg.mu_coupling_au,
                        cfg.lasers.field_probe, cfg.lasers.field_coupling)
    assert len(cs) == 15
    assert cs.probe_coupled_count == 29
    assert cs.coupling_coupled_count == 27


def test_fourteen_upper_state_channels(li2, li2_channels):
    """Only |M| >= 1 contributes to the upper level: 14 distinct values."""
    contributing = [c.abs_m for c in li2_channels
                    if population_rho33(li2, c.g1, c.g2, 0.0, 0.0) > 0]
    assert contributing == list(range(1, 15))


def test_splitting_proportional_to_abs_m_single_velocity(li2, li2_channels):
    """Doppler-free Autler-Townes splitting of channel |M| vs |M|/2."""
    splittings = {}
    for m in (7, 14):
        ch = li2_channels.channel(m)
        d1 = np.linspace(-2.5 * ch.g2, 2.5 * ch.g2, 60001)
        r33 = population_rho33(li2, ch.g1, ch.g2, d1, 0.0)
        peaks = np.where((r33[1:-1] > r33[:-2]) & (r33[1:-1] >= r33[2:]))[0] + 1
        assert peaks.size == 2
        splittings[m] = d1[peaks[1]] - d1[peaks[0]]
    assert splittings[14] / splittings[7] == pytest.approx(2.0, rel=0.10)


def test_summed_dip_floor_at_least_m_zero_value(li2, li2_channels):
    """At double resonance the |M|-summed intermediate population cannot drop
    below the decoupled M = 0 two-level contribution."""
    from eitmol.analytic import population_rho22

    per = {c.abs_m: c.multiplicity
           * population_rho22(li2, c.g1, c.g2, 0.0, 0.0)
           for c in li2_channels}
    total = sum(per[m] for m in sorted(per))
    assert per[0] > 0.0
    assert total >= per[0]


@pytest.mark.parametrize("mu_coupling", [0.0, 0.8, 1.4520537467393058, 2.5])
def test_with_coupling_rebuilds_the_channels_bit_for_bit(li2, li2_lasers,
                                                        mu_coupling):
    """Setting the bare coupling Rabi frequency on a built channel set gives
    exactly the channels ``build_channels`` makes at that dipole."""
    built = build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                           li2_lasers.field_coupling)
    moved = built.with_coupling(rabi_frequency(mu_coupling,
                                               li2_lasers.field_coupling))
    assert moved == build_channels(li2, 1.0, mu_coupling,
                                   li2_lasers.field_probe,
                                   li2_lasers.field_coupling)
