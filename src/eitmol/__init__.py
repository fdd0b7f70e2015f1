"""Steady-state EIT and dark-fluorescence lineshapes for open, Doppler
broadened, magnetically degenerate cascade molecular systems."""

__version__ = "0.1.0"

from .bloch import solve_steady_state
from .doppler import Ensemble, QuadratureSpec
from .features import extract_features, predict_dip_position
from .spectrum import ScanConfig, Spectrum, simulate
from .sublevels import build_channels
from .system import CascadeSystem, LaserPair

__all__ = [
    "CascadeSystem", "Ensemble", "LaserPair", "QuadratureSpec", "ScanConfig",
    "Spectrum", "build_channels", "extract_features", "predict_dip_position",
    "simulate", "solve_steady_state",
]
