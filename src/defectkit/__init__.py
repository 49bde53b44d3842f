"""defectkit: quantitative analysis of singlet-ground-state color centers.

Submodules:
  spin_hamiltonian  S=1 zero-field splitting, ODMR lines, field sweeps, fits
  photodynamics     five-level kinetics, analytic g2, rate inversion
  g2_processing     coincidence-histogram reduction, multi-exponential fits
  psb               phonon-sideband synthesis and deconvolution
  defect_model      symmetrized MOs, selection rules, spin-spin tensors
  datasets, cli     file ingestion and the command-line pipelines
"""

__version__ = "0.1.0"
