"""Linear symmetric-mode phonon-sideband model.

An optical band is the ZPL shape convolved with a Poisson-weighted series of
n-phonon bands,

    I(w) = exp(-S) * I0(w) (x) [ delta(w) + sum_n S^n/n! In(w) ],

where S is the total Huang-Rhys factor and In is the n-fold self-convolution
of the one-phonon spectral density I1 (unit norm, supported on [0, Omega]
with Omega the lattice phonon cutoff). This module synthesizes bands from a
one-phonon density and inverts measured bands back to I1, either directly in
the Fourier domain or by the iterative subtraction scheme, and compares the
result against a phonon density of states.

All bands live on uniform energy grids (meV). Bands entering convolution or
embedding arithmetic must additionally sit on integer multiples of the
spacing so that convolutions reduce to exact index arithmetic (absolute-axis
emission spectra may sit anywhere). Band integrals use the rectangle rule,
under which discrete convolution preserves norms exactly.
"""
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DIAMOND_PHONON_CUTOFF_MEV
from .errors import DivergenceError, InvalidParameterError

_ALIGN_TOL = 1e-6

# The longest grid the module builds, 8 MB as floats. A finer spacing, or a
# wider range, ZPL or series, is refused rather than allocated.
MAX_GRID_POINTS = 1 << 20

# The most work one Poisson series may take, in n_max Horner passes over the
# n_fft//2 + 1 points of its rfft: 0.35 s at n_fft 2^16 and 0.87 s at 2^20,
# where the two 8 MB buffers no longer stay in cache (one core of a 2-vCPU
# Xeon VM). n_max and the grid can each be within their caps while their
# product is not.
MAX_SERIES_WORK = 1 << 27


def _grid_length(n):
    """n, the length of a grid about to be built, refused beyond MAX_GRID_POINTS."""
    if not n <= MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"grid would exceed {MAX_GRID_POINTS} points: the spacing is too fine "
            "for the range, width or n_max")
    return n


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidParameterError("grid must be a 1-d array with >= 2 points")
    steps = np.diff(grid)
    d = steps[0]
    if d <= 0 or np.max(np.abs(steps - d)) > 1e-9 * abs(d):
        raise InvalidParameterError("grid must be uniform and ascending")
    return grid


@dataclass
class SpectralBand:
    """Intensity values on a uniform energy grid (meV)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = _check_grid(self.grid)
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidParameterError("values must match the grid shape")
        vmax = np.max(np.abs(v)) if v.size else 0.0
        if np.any(v < -1e-12 * max(vmax, 1.0)):
            warnings.warn(
                "negative intensities beyond numerical residue; clipping",
                RuntimeWarning,
            )
        self.values = np.clip(v, 0.0, None)

    @property
    def spacing(self):
        return float(self.grid[1] - self.grid[0])

    @property
    def start_index(self):
        """Grid origin in units of the spacing (exact integer).

        Convolution and embedding arithmetic needs grid points on integer
        multiples of the spacing; bands that only get read (emission
        spectra on absolute photon-energy axes) may sit anywhere.
        """
        start = self.grid[0] / self.spacing
        if abs(start - round(start)) > _ALIGN_TOL:
            raise InvalidParameterError(
                "grid points must be integer multiples of the spacing"
            )
        return int(round(start))

    def integral(self):
        return float(self.values.sum() * self.spacing)

    def normalized(self):
        norm = self.integral()
        if norm <= 0:
            raise InvalidParameterError("cannot normalize a zero band")
        return SpectralBand(self.grid, self.values / norm)


def make_grid(lo_mev, hi_mev, spacing_mev):
    """Uniform grid on multiples of the spacing covering [lo, hi]."""
    if not spacing_mev > 0:
        raise InvalidParameterError("grid spacing must be positive")
    i0 = np.floor(lo_mev / spacing_mev + 1e-12)
    n = _grid_length(np.ceil(hi_mev / spacing_mev - 1e-12) - i0 + 1)
    return spacing_mev * (i0 + np.arange(n))


@dataclass
class ZplShape:
    """Zero-phonon line shape: narrow, centered at zero, unit norm."""

    band: SpectralBand

    def __post_init__(self):
        if abs(self.band.integral() - 1.0) > 1e-9:
            raise InvalidParameterError("ZPL shape must have unit norm")

    @classmethod
    def delta(cls, spacing_mev):
        """Single-bin line at w=0 (the resolution-limited ideal ZPL)."""
        grid = spacing_mev * np.arange(-1, 2)
        values = np.zeros(3)
        values[1] = 1.0 / spacing_mev
        return cls(SpectralBand(grid, values))

    @classmethod
    def gaussian(cls, spacing_mev, sigma_mev):
        """Gaussian line of standard deviation sigma_mev, cut at five sigma."""
        if not sigma_mev > 0:
            raise InvalidParameterError("ZPL width must be positive")
        half = np.ceil(5.0 * sigma_mev / spacing_mev)
        _grid_length(2 * half + 1)
        n = max(int(half), 1)
        grid = spacing_mev * np.arange(-n, n + 1)
        values = np.exp(-0.5 * (grid / sigma_mev) ** 2)
        band = SpectralBand(grid, values)
        return cls(band.normalized())


@dataclass
class OnePhononBand:
    """One-phonon spectral density: unit norm, supported on [0, cutoff]."""

    band: SpectralBand
    cutoff_mev: float = DIAMOND_PHONON_CUTOFF_MEV

    def __post_init__(self):
        b = self.band
        if abs(b.integral() - 1.0) > 1e-6:
            raise InvalidParameterError("one-phonon band must have unit norm")
        outside = (b.grid < -1e-9) | (b.grid > self.cutoff_mev + 1e-9)
        if np.any(b.values[outside] > 1e-12 * b.values.max()):
            raise InvalidParameterError(
                "one-phonon band has weight outside [0, cutoff]"
            )

    @property
    def grid(self):
        return self.band.grid

    @property
    def values(self):
        return self.band.values


def _as_band(obj):
    return obj.band if isinstance(obj, (OnePhononBand, ZplShape)) else obj


def _check_spacing(band, d):
    if abs(band.spacing - d) > 1e-9 * d:
        raise InvalidParameterError("bands must share one grid spacing")


def poisson_n_max(s):
    """Smallest truncation order with Poisson tail sum below 1e-8."""
    if s < 0:
        raise InvalidParameterError("Huang-Rhys factor must be >= 0")
    term = np.exp(-s)
    tail = 1.0 - term
    n = 0
    while tail >= 1e-8 and n < 400:
        n += 1
        term *= s / n
        tail -= term
    return max(n, 1)


def poisson_truncation_bound(s, n_max):
    """Total Poisson weight beyond n_max (the norm deficit of a synthesis)."""
    term = np.exp(-s)
    acc = term
    for n in range(1, n_max + 1):
        term *= s / n
        acc += term
    return max(1.0 - acc, 0.0)


def _series_support(n_max, n1, i0, d):
    """Length of sum_{n<=n_max} I0 (x) In (len(I1) = n1), and an FFT length past it;
    a series of more than MAX_SERIES_WORK point-passes is refused."""
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    _check_spacing(i0, d)
    size = _grid_length(n_max * (n1 - 1) + i0.values.size)
    n_fft = 1 << (size - 1).bit_length()
    if n_max * (n_fft // 2 + 1) > MAX_SERIES_WORK:
        raise InvalidParameterError(
            f"Poisson series would exceed {MAX_SERIES_WORK} point-passes: n_max "
            f"{n_max} over {n_fft // 2 + 1} frequencies; lower n_max or coarsen "
            "the spacing")
    return size, n_fft


def _poisson_series(i1_values, s, n_max, n_fft, d):
    """x = S F[I1] and sum_{n<=n_max} x^n/n! by Horner's rule (F[In] = F[I1]^n);
    F[I0] times the series transforms sum_{n<=n_max} S^n/n! I0 (x) In."""
    x = s * d * np.fft.rfft(i1_values, n_fft)
    # In place, the bits of series = 1.0 + x / n * series: numpy's complex x / n
    # is x * (1/n) for finite x, and the product keeps its operand order (the
    # SIMD complex multiply uses FMA, so term * series and series * term can
    # differ in the last bit).
    series = (x.view(float) * (1.0 / n_max)).view(complex) + 1.0
    term = np.empty_like(x)
    for n in range(n_max - 1, 0, -1):
        np.multiply(x.view(float), 1.0 / n, out=term.view(float))
        np.multiply(term, series, out=series)
        np.add(series, 1.0, out=series)
    return x, series


def synthesize_band(i1: OnePhononBand, s, i0: ZplShape, n_max=None) -> SpectralBand:
    """Build the full optical band from the one-phonon density.

    Truncates the Poisson series at n_max (default: tail weight < 1e-8); the
    output norm equals 1 minus the truncation bound and the ZPL carries the
    Debye-Waller weight exp(-S). The series is summed in the Fourier domain,
    F[I] = exp(-S) F[I0] sum_{n<=n_max} (S F[I1])^n/n!.
    """
    if n_max is None:
        n_max = poisson_n_max(s)
    i1_band = _as_band(i1)
    if i1_band.start_index != 0:
        raise InvalidParameterError("one-phonon band grid must start at zero")
    d = i1_band.spacing
    i0_band = _as_band(i0)
    size, n_fft = _series_support(n_max, i1_band.values.size, i0_band, d)
    _, series = _poisson_series(i1_band.values, s, n_max, n_fft, d)
    vals = np.exp(-s) * np.fft.irfft(np.fft.rfft(i0_band.values, n_fft) * series,
                                     n_fft)[:size]
    return SpectralBand(d * (i0_band.start_index + np.arange(size)), vals)


def estimate_huang_rhys(band: SpectralBand, zpl_window):
    """S = -ln(ZPL fraction): the ZPL weight is the Debye-Waller factor.

    zpl_window is the (lo, hi) energy range in meV containing the resolved
    ZPL and nothing else.
    """
    lo, hi = zpl_window
    mask = (band.grid >= lo) & (band.grid <= hi)
    total = band.integral()
    if total <= 0:
        raise InvalidParameterError("band has no weight")
    frac = float(band.values[mask].sum() * band.spacing) / total
    if frac <= 0.0 or frac > 1.0:
        raise InvalidParameterError("ZPL fraction must lie in (0, 1]")
    # fraction exactly 1 is the uncoupled limit, S = 0
    return -np.log(frac)


def _circular_buffers(band: SpectralBand, i0: ZplShape):
    """Embed band and ZPL on a power-of-two circular grid with w=0 at 0."""
    i0_band = _as_band(i0)
    _check_spacing(i0_band, band.spacing)
    span = band.values.size + i0_band.values.size
    n = 1 << (2 * span - 1).bit_length()

    def wrap(b):
        return np.roll(np.pad(b.values, (0, n - b.values.size)), b.start_index)
    return wrap(band), wrap(i0_band), n


def _window_points(cutoff_mev, d):
    """Points of the [0, cutoff] window on spacing d."""
    steps = cutoff_mev / d
    _grid_length(steps + 1)
    return int(round(steps)) + 1


def direct_fourier_deconvolve(band: SpectralBand, s, i0: ZplShape,
                              cutoff_mev=DIAMOND_PHONON_CUTOFF_MEV) -> OnePhononBand:
    """One-phonon band by Fourier-domain inversion of the Poisson series.

    In the transform domain the band factorizes as F[I] = exp(-S) F[I0]
    exp(S F[I1]), so F[I1] = 1 + log(F[I]/F[I0]) / S with the complex log
    taken on the unwrapped phase. Transform magnitudes are floored at 1e-12
    of their maximum before the log to keep spectral noise out of the
    logarithm.
    The result is clipped to [0, cutoff] and renormalized.

    The inversion is noise-sensitive and is intended as an initial estimate
    for iterative_deconvolve rather than as a final answer.
    """
    if s <= 0:
        raise InvalidParameterError("Huang-Rhys factor must be positive")
    floor = 1e-12
    buf_band, buf_zpl, n = _circular_buffers(band, i0)
    d = band.spacing
    bt = np.fft.fft(buf_band) * d
    zt = np.fft.fft(buf_zpl) * d
    ratio = bt / np.where(np.abs(zt) < floor, floor, zt)
    mag = np.abs(ratio)
    mag = np.maximum(mag, floor * mag.max())
    log_ratio = np.log(mag) + 1j * np.unwrap(np.angle(ratio))
    u = (log_ratio + s) / s
    i1_buf = np.real(np.fft.ifft(u)) / d
    n_keep = _window_points(cutoff_mev, d)
    vals = np.clip(i1_buf[:n_keep], 0.0, None)
    grid = d * np.arange(n_keep)
    return OnePhononBand(SpectralBand(grid, vals).normalized(), cutoff_mev=cutoff_mev)


def _window(values, start_index, n):
    """Values whose first point sits at start_index, on the index window [0, n)."""
    out = np.zeros(n)
    lo, hi = max(start_index, 0), min(start_index + values.size, n)
    if lo < hi:
        out[lo:hi] = values[lo - start_index:hi - start_index]
    return out


def smooth_and_taper(raw: SpectralBand, cutoff_mev=DIAMOND_PHONON_CUTOFF_MEV,
                     smooth_bins=5, taper_fraction=0.1) -> OnePhononBand:
    """Condition a raw one-phonon estimate for the iterative scheme.

    Applies a moving average of smooth_bins, then a cosine ramp to zero over
    taper_fraction of the cutoff at both ends of [0, cutoff], clips the
    result to that support and renormalizes. A moving average longer than
    that window is refused.
    """
    d = raw.spacing
    n_keep = _window_points(cutoff_mev, d)
    if smooth_bins > n_keep:
        raise InvalidParameterError(
            f"smooth_bins {smooth_bins} exceeds the {n_keep} points of [0, cutoff]")
    grid = d * np.arange(n_keep)
    vals = _window(raw.values, raw.start_index, n_keep)
    if smooth_bins > 1:
        kernel = np.ones(smooth_bins) / smooth_bins
        vals = np.convolve(vals, kernel, mode="same")
    ramp = np.ones(n_keep)
    n_taper = min(max(int(round(taper_fraction * cutoff_mev / d)), 1), n_keep // 2)
    up = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_taper) / n_taper))
    ramp[:n_taper] *= up
    ramp[-n_taper:] *= up[::-1]
    vals = np.clip(vals * ramp, 0.0, None)
    return OnePhononBand(SpectralBand(grid, vals).normalized(),
                         cutoff_mev=cutoff_mev)


@dataclass
class ConvergenceTrace:
    """Iteration history of the deconvolution loop."""

    converged: bool
    n_iter: int
    step_l2: list = field(default_factory=list)
    resync_l2: list = field(default_factory=list)


def _l2(values, d):
    return float(np.sqrt(np.sum(values**2) * d))


def iterative_deconvolve(band: SpectralBand, s, i0: ZplShape,
                         i1_init: OnePhononBand, max_iter=50, tol=1e-6):
    """Refine a one-phonon estimate by iterative series subtraction.

    Each pass subtracts the multi-phonon remainder of the current iterate,
    with the zero-phonon term, from the measured band:

        I1_new = exp(S) I - I0 - sum_{n>=2} S^n/n! I0 (x) In,

    then clips the result to [0, cutoff], drops negatives and renormalizes;
    the cutoff is i1_init's and the series stops at poisson_n_max(S).
    One Fourier-domain Poisson series (see synthesize_band) is evaluated per
    iterate: the series of a pass's update gives that pass's resynthesis
    and, less its n<=1 terms, the remainder the next pass subtracts.
    Iteration stops when the L2 change of the iterate falls below tol, and
    aborts with DivergenceError (carrying the best iterate) if the
    resynthesis residual grows three passes in a row. Returns the final
    OnePhononBand and a ConvergenceTrace.
    """
    cutoff_mev, n_max = i1_init.cutoff_mev, poisson_n_max(s)
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    d = band.spacing
    i0_band = _as_band(i0)
    i0_start = i0_band.start_index
    n_keep = _window_points(cutoff_mev, d)

    # measured-band terms of the update, embedded on the [0, cutoff] window
    lhs = np.exp(s) * _window(band.values, band.start_index, n_keep)
    lhs -= _window(i0_band.values, i0_start, n_keep)

    current = _window(i1_init.values, i1_init.band.start_index, n_keep)
    norm = current.sum() * d
    if norm <= 0:
        raise InvalidParameterError("initial estimate has no weight")
    current /= norm

    size, n_fft = _series_support(n_max, n_keep, i0_band, d)
    f0 = np.fft.rfft(i0_band.values, n_fft)
    lo = min(band.start_index, i0_start)
    width = max(band.start_index + band.values.size, i0_start + size) - lo
    measured = _window(band.values, band.start_index - lo, width)
    x, series = _poisson_series(current, s, n_max, n_fft, d)

    trace = ConvergenceTrace(converged=False, n_iter=0)
    best, best_resid, grow_streak = current, np.inf, 0
    grid = d * np.arange(n_keep)

    def diverged(message):
        return DivergenceError(message, diagnostics=trace, best_iterate=OnePhononBand(
            SpectralBand(grid, best), cutoff_mev=cutoff_mev))

    for it in range(1, max_iter + 1):
        # left as an expression: past 256 KiB numpy's temporary elision sets
        # this product's operand order, on which its FMA rounding depends
        remainder = np.fft.irfft(f0 * (series - 1.0 - x), n_fft)[:size]
        update = np.clip(lhs - _window(remainder, i0_start, n_keep), 0.0, None)
        total = update.sum() * d
        if total <= 0:
            raise diverged("iterative update lost all weight")
        update /= total

        x, series = _poisson_series(update, s, n_max, n_fft, d)
        resynth = np.exp(-s) * np.fft.irfft(f0 * series, n_fft)[:size]
        resid = _l2(measured - _window(resynth, i0_start - lo, width), d)

        step = _l2(update - current, d)
        trace.n_iter = it
        trace.step_l2.append(step)
        trace.resync_l2.append(resid)
        current = update
        if resid < best_resid:
            best, best_resid = current, resid
            grow_streak = 0
        elif resid > 1.05 * best_resid:
            # material growth only; jitter around the noise floor is normal
            grow_streak += 1
            if grow_streak >= 3:
                raise diverged("resynthesis residual grew for three consecutive passes")
        if step < tol:
            trace.converged = True
            break
    return OnePhononBand(SpectralBand(grid, current), cutoff_mev=cutoff_mev), trace


def bandshape_from_emission(emission: SpectralBand, omega0_mev) -> SpectralBand:
    """Turn an emission spectrum into the bandshape in phonon energy.

    The emission axis is photon energy; the bandshape is I_em at phonon
    energy w = omega0 - E divided by the cube of the photon energy (the
    spontaneous-emission frequency factor), renormalized to unit area. The
    ZPL position is snapped to the nearest grid point so the phonon-energy
    grid stays on spacing multiples; a 5 meV margin of negative phonon
    energies is kept to hold the ZPL's own linewidth.
    """
    if not emission.grid[0] <= omega0_mev <= emission.grid[-1]:
        raise InvalidParameterError("omega0 lies outside the emission grid")
    if np.any(emission.grid <= 0):
        raise InvalidParameterError("photon-energy grid must be positive")
    d = emission.spacing
    zpl_idx = int(round((omega0_mev - emission.grid[0]) / d))
    omega0 = emission.grid[zpl_idx]
    # snap onto exact spacing multiples so the band composes with the
    # convolution index arithmetic downstream
    phonon = d * np.round((omega0 - emission.grid[::-1]) / d)
    vals = (emission.values / emission.grid**3)[::-1]
    keep = phonon >= -5.0 - 1e-9 * d
    band = SpectralBand(phonon[keep], vals[keep])
    return band.normalized()


def _nearest_higher(h):
    """For each entry of h, the index of the nearest strictly higher entry to
    its left (-1 if none) and to its right (h.size if none).

    Binary lifting over a sparse table of running maxima (table[l][i] is the
    maximum of h[i:i + 2^l]): O(k log k) time and memory for k entries.
    """
    k = h.size
    table = [h]
    while 2 ** len(table) <= k:
        w = 2 ** (len(table) - 1)
        table.append(np.maximum(table[-1][:-w], table[-1][w:]))
    # h[left:i] and h[i + 1:right + 1] hold nothing higher than h[i]
    left = np.arange(k)
    right = np.arange(k)
    for level in range(len(table) - 1, -1, -1):
        w, t = 2 ** level, table[level]
        step = left - w
        ok = (step >= 0) & (t[np.maximum(step, 0)] <= h)
        left = np.where(ok, step, left)
        ok = (right + w < k) & (t[np.minimum(right + 1, t.size - 1)] <= h)
        right = np.where(ok, right + w, right)
    return left - 1, right + 1


def _find_peaks(x, min_prominence):
    """Indices of the peaks of x with prominence >= min_prominence, and those
    prominences (tests/test_psb.py holds both to a library oracle, bit for bit).

    A peak is the middle sample of a run of equal samples higher than both
    its neighbours (a run at either end is none). Its prominence is its
    height above the higher of the two minima between it and the nearest
    higher peak, or the end of x, on each side; no peak has more than its
    height above x.min(), so lower ones are dropped before that search.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    none = np.zeros(0, dtype=np.intp), np.zeros(0)
    if n < 3:
        return none
    last = np.flatnonzero(x[1:] != x[:-1])  # the last sample of each run but one
    run = np.flatnonzero((x[last + 1] > x[last])[:-1] & (x[last + 1] < x[last])[1:])
    peaks = (last[run] + 1 + last[run + 1]) // 2
    peaks = peaks[x[peaks] - x.min() >= min_prominence]
    if not peaks.size:
        return none
    height = x[peaks]
    left, right = _nearest_higher(height)
    lo = np.where(left >= 0, peaks[np.maximum(left, 0)], 0)
    hi = np.where(right < peaks.size, peaks[np.minimum(right, peaks.size - 1)], n - 1)
    # minima over x[lo:peak + 1] and x[peak:hi + 1], the latter on reversed x
    # so that every reduceat index stays below n
    lmin = np.minimum.reduceat(x, np.column_stack([lo, peaks + 1]).ravel())[::2]
    rmin = np.minimum.reduceat(x[::-1], np.column_stack([n - 1 - hi, n - peaks]).ravel())[::2]
    prominences = height - np.maximum(lmin, rmin)
    keep = prominences >= min_prominence
    return peaks[keep], prominences[keep]


@dataclass
class PeakMatch:
    energy_mev: float
    height: float
    prominence: float
    nearest_dos_peak_mev: float | None  # None when the DOS has no peak
    distance_mev: float | None


@dataclass
class CriticalPointReport:
    """One-phonon band features paired against lattice DOS critical points."""

    peaks: list
    overlay: np.ndarray  # columns: energy, band (unit max), dos (unit max)


def critical_point_report(i1: OnePhononBand, dos: SpectralBand) -> CriticalPointReport:
    """Locate one-phonon features and compare them with the phonon DOS.

    Peaks are local maxima with prominence above 5% of the band maximum,
    each paired with the nearest DOS maximum, or with None when the DOS has
    no maximum (a ramp, say).
    """
    band = i1.band
    vals = band.values
    idx, prominences = _find_peaks(vals, 0.05 * vals.max())
    dos_idx, _ = _find_peaks(dos.values, 0.01 * dos.values.max())
    dos_peaks = dos.grid[dos_idx]
    peaks = []
    for j, i in enumerate(idx):
        energy = float(band.grid[i])
        nearest = distance = None
        if dos_peaks.size:
            nearest = float(dos_peaks[np.argmin(np.abs(dos_peaks - energy))])
            distance = abs(energy - nearest)
        peaks.append(PeakMatch(
            energy_mev=energy, height=float(vals[i]),
            prominence=float(prominences[j]),
            nearest_dos_peak_mev=nearest, distance_mev=distance))
    dos_on_grid = np.interp(band.grid, dos.grid, dos.values, left=0.0, right=0.0)
    overlay = np.column_stack([
        band.grid,
        vals / vals.max(),
        dos_on_grid / dos_on_grid.max() if dos_on_grid.max() > 0 else dos_on_grid,
    ])
    return CriticalPointReport(peaks=peaks, overlay=overlay)
