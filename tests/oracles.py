"""Reference implementations the tests hold the library against.

None of these runs in a pipeline. Each computes by the plain definition what
the library computes by a faster route: band convolutions and the Poisson
series by direct summation (the library sums the series in the Fourier
domain), and the spin Hamiltonian as a matrix (the library takes the ODMR
lines in closed form).
"""
from math import factorial

import numpy as np

from defectkit.psb import SpectralBand, _as_band, _check_spacing
from defectkit.spin_hamiltonian import _batched_hamiltonian, _defect_field


def convolve(f, g) -> SpectralBand:
    """Linear convolution of two bands, (f (x) g)(w) = int f(w-x) g(x) dx, as the
    O(N^2) sliding sum on their shared grid spacing."""
    f, g = _as_band(f), _as_band(g)
    d = f.spacing
    _check_spacing(g, d)
    vals = np.zeros(f.values.size + g.values.size - 1)
    for j, gj in enumerate(g.values):
        if gj != 0.0:
            vals[j:j + f.values.size] += f.values * gj
    vals *= d
    start = f.start_index + g.start_index
    return SpectralBand(d * np.arange(start, start + vals.size), vals)


def n_phonon_bands(i1, n_max):
    """The bands I1..In_max from successive self-convolutions of I1.

    Each In keeps unit norm (rectangle-rule convolution is exactly
    norm-preserving) and is supported on [0, n*cutoff].
    """
    bands = [_as_band(i1)]
    for _ in range(2, n_max + 1):
        bands.append(convolve(bands[-1], i1))
    return bands


def direct_series(i1, s, i0, n_max, first=0):
    """sum_{first<=n<=n_max} S^n/n! I0 (x) In by direct summation; exp(-S) times
    it (first=0) is the band synthesize_band builds."""
    d = _as_band(i1).spacing
    bands = n_phonon_bands(i1, n_max)
    comb = np.zeros(bands[-1].values.size)
    if first == 0:
        comb[0] = 1.0 / d  # delta(w)
    for n, band in enumerate(bands, start=1):
        if n >= first:
            comb[: band.values.size] += s**n / factorial(n) * band.values
    return convolve(SpectralBand(d * np.arange(comb.size), comb), i0)


def build_hamiltonian(p, b):
    """3x3 Hermitian spin Hamiltonian in MHz of ZfsParams p in FieldVec b."""
    return _batched_hamiltonian(p.D, p.E, _defect_field(p.g, p.axes, b.B[None]))[0]
