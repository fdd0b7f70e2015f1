import numpy as np
import pytest

from eitmol.doppler import Ensemble, QuadratureSpec
from eitmol.sublevels import build_channels
from eitmol.system import CascadeSystem, LaserPair
from eitmol.units import angular_from_mhz

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def li2() -> CascadeSystem:
    """The molecular cascade system used throughout: Li2 X -> A -> G."""
    return CascadeSystem(
        omega21_cm=15642.636,
        omega32_cm=17053.954,
        gamma2=1e3 / 18.0,
        gamma3=1e3 / 16.15,
        b2=0.1,
        b3=0.2,
        gamma12_col=angular_from_mhz(5.0),
        gamma13_col=angular_from_mhz(1.0),
        gamma23_col=angular_from_mhz(1.0),
        transit_rate=angular_from_mhz(2.0),
        refill_rate=angular_from_mhz(2.0),
        J1=15,
        J2=14,
        J3=14,
    )


@pytest.fixture(scope="session")
def li2_lasers() -> LaserPair:
    return LaserPair(
        power_probe_w=1e-3,
        power_coupling_w=0.48,
        waist_probe_m=222e-6,
        waist_coupling_m=360e-6,
    )


@pytest.fixture(scope="session")
def li2_channels(li2, li2_lasers):
    return build_channels(li2, 1.0, 1.45, li2_lasers.field_probe,
                          li2_lasers.field_coupling)


@pytest.fixture(scope="session")
def li2_ensemble() -> Ensemble:
    return Ensemble(temperature_k=1000.0, mass_amu=14.0)


@pytest.fixture(scope="session")
def fast_quadrature() -> QuadratureSpec:
    """Coarser-but-sufficient quadrature for the cheaper engine tests."""
    return QuadratureSpec(node_count=2001)


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` routes ``module.name`` through a recorder and
    returns the list of its calls, each (args, result), in call order."""
    def watch(module, name):
        calls = []
        real = getattr(module, name)

        def recorded(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(module, name, recorded)
        return calls

    return watch
