"""Single source of truth for physical constants.

Every other module imports from here; nothing else hard-codes a constant.
The same table is shipped as ``data/constants.txt`` so that downstream
consumers (and the test suite) can pin the exact values in use.
"""

from importlib import resources

SPEED_OF_LIGHT = 299792458.0            # m/s, exact
PLANCK_H = 6.62607015e-34               # J*s, exact (SI 2019)
HBAR = 1.054571817e-34                  # J*s
BOLTZMANN_K = 1.380649e-23              # J/K, exact (SI 2019)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m, CODATA 2018
ATOMIC_MASS_KG = 1.66053906660e-27      # kg, CODATA 2018
DIPOLE_AU_CM = 8.4783536e-30            # C*m per atomic unit (e*a0)
WAVENUMBER_TO_MHZ = 29979.2458          # MHz per cm^-1, exact (c/1e6 in cm/s)

_TABLE = (
    ("speed_of_light", SPEED_OF_LIGHT, "m/s"),
    ("planck_h", PLANCK_H, "J*s"),
    ("hbar", HBAR, "J*s"),
    ("boltzmann_k", BOLTZMANN_K, "J/K"),
    ("vacuum_permittivity", VACUUM_PERMITTIVITY, "F/m"),
    ("atomic_mass", ATOMIC_MASS_KG, "kg"),
    ("dipole_atomic_unit", DIPOLE_AU_CM, "C*m"),
    ("wavenumber_to_MHz", WAVENUMBER_TO_MHZ, "MHz/cm-1"),
)


def constants_table_text() -> str:
    """Render the constants table as the canonical name/value/unit text."""
    lines = ["# eitmol constants table: name value unit"]
    for name, value, unit in _TABLE:
        lines.append(f"{name} {value!r} {unit}")
    return "\n".join(lines) + "\n"


def shipped_constants_text() -> str:
    """Content of the constants file bundled with the package."""
    return resources.files("eitmol").joinpath("data/constants.txt").read_text("ascii")
