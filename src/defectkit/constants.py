"""Physical constants and unit conversions used across the toolkit.

Canonical internal units: MHz for spin-transition frequencies, Gauss for
magnetic fields, ns for correlation delays, 1/s for kinetic rates, meV for
phonon energies, cm^2 for absorption cross-sections.
"""
import numpy as np

# Bohr magneton over Planck constant: 13.996244936 GHz/T = 1.3996... MHz/G.
# Multiply by the g-factor to get the electron gyromagnetic ratio.
MU_B_MHZ_PER_G = 1.39962449

# Planck constant and speed of light (SI).
H_PLANCK_J_S = 6.62607015e-34
C_LIGHT_M_S = 2.99792458e8

# hc in convenient spectroscopic units.
HC_EV_NM = 1239.841984
HC_J_NM = H_PLANCK_J_S * C_LIGHT_M_S * 1e9  # J * nm

# Highest phonon energy of the diamond lattice (meV). The one-phonon band of
# a defect in diamond is supported below this cutoff; it is the default of
# every psb cutoff and of the CLI's cutoff_mev.
DIAMOND_PHONON_CUTOFF_MEV = 168.0

# Grid spacing (meV) of a band or spectrum whose input names none.
DEFAULT_SPACING_MEV = 0.25

# Dipolar spin-spin prefactor 3*mu0*g^2*muB^2/(16*pi*h) in MHz*nm^3, for
# converting the dimensionless defect-molecule tensors to frequency units.
_MU_0 = 1.25663706212e-6  # N/A^2
_MU_B = 9.2740100783e-24  # J/T
_G_E = 2.0
SPIN_SPIN_PREFACTOR_MHZ_NM3 = (
    3.0 * _MU_0 * _G_E**2 * _MU_B**2 / (16.0 * np.pi * H_PLANCK_J_S) * 1e27 * 1e-6
)

# Dimensionless S=1 operators in the |+1>, |0>, |-1> basis.
_SQ2 = 1.0 / np.sqrt(2.0)
SPIN1_X = np.array([[0, _SQ2, 0], [_SQ2, 0, _SQ2], [0, _SQ2, 0]], dtype=complex)
SPIN1_Y = np.array(
    [[0, -1j * _SQ2, 0], [1j * _SQ2, 0, -1j * _SQ2], [0, 1j * _SQ2, 0]], dtype=complex
)
SPIN1_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
SPIN1_ID = np.eye(3, dtype=complex)


def photon_energy_J(wavelength_nm):
    """Photon energy in joules at the given vacuum wavelength."""
    return HC_J_NM / wavelength_nm
