"""Single source of truth for physical constants.

Every other module imports from here; nothing else hard-codes a constant.
"""

SPEED_OF_LIGHT = 299792458.0            # m/s, exact
HBAR = 1.054571817e-34                  # J*s
BOLTZMANN_K = 1.380649e-23              # J/K, exact (SI 2019)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m, CODATA 2018
ATOMIC_MASS_KG = 1.66053906660e-27      # kg, CODATA 2018
DIPOLE_AU_CM = 8.4783536e-30            # C*m per atomic unit (e*a0)
WAVENUMBER_TO_MHZ = 29979.2458          # MHz per cm^-1, exact (c/1e6 in cm/s)
