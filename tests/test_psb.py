import numpy as np
import pytest

from defectkit.errors import DivergenceError, InvalidParameterError
from defectkit.psb import (
    _find_peaks,
    _poisson_series,
    OnePhononBand,
    SpectralBand,
    ZplShape,
    bandshape_from_emission,
    critical_point_report,
    direct_fourier_deconvolve,
    estimate_huang_rhys,
    iterative_deconvolve,
    make_grid,
    poisson_n_max,
    poisson_truncation_bound,
    smooth_and_taper,
    synthesize_band,
)
from oracles import convolve, direct_series, n_phonon_bands

OMEGA = 168.0


def gaussian_mixture_i1(rng, n=2048, cutoff=OMEGA):
    """Random smooth unit-norm one-phonon band on [0, cutoff]."""
    d = cutoff / n
    grid = d * np.arange(n)
    vals = np.zeros(n)
    for _ in range(rng.integers(2, 5)):
        c = rng.uniform(20.0, 150.0)
        w = rng.uniform(8.0, 30.0)
        vals += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((grid - c) / w) ** 2)
    vals *= np.clip(grid / 10.0, 0, 1) * np.clip((cutoff - grid) / 10.0, 0, 1)
    band = SpectralBand(grid, vals).normalized()
    return OnePhononBand(band, cutoff_mev=cutoff)


def on_window(band, n_keep):
    """Band values at the grid indices 0..n_keep-1, zero where it has none."""
    idx = np.round(band.grid / band.spacing).astype(int)
    keep = (idx >= 0) & (idx < n_keep)
    vals = np.zeros(n_keep)
    vals[idx[keep]] = band.values[keep]
    return vals


def l2_error(a, b, d):
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    return np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2))


class TestSpectralBand:
    def test_norm_rectangle_rule(self):
        grid = make_grid(0.0, 10.0, 0.5)
        band = SpectralBand(grid, np.ones_like(grid))
        assert np.isclose(band.integral(), 0.5 * grid.size, rtol=1e-12)

    def test_negative_residue_clipped_with_warning(self):
        grid = make_grid(0.0, 4.0, 1.0)
        with pytest.warns(RuntimeWarning, match="clipping"):
            band = SpectralBand(grid, np.array([1.0, -0.5, 1.0, 1.0, 1.0]))
        assert np.all(band.values >= 0)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpectralBand(np.array([0.0, 1.0, 3.0]), np.ones(3))

    def test_offgrid_origin_rejected_for_convolution(self):
        # absolute-axis bands are fine to hold, but index arithmetic needs
        # grid points on spacing multiples
        band = SpectralBand(np.array([0.3, 1.3, 2.3]), np.ones(3))
        with pytest.raises(InvalidParameterError):
            synthesize_band(band, 1.0, ZplShape.delta(1.0))


class TestConvolution:
    """The direct-summation oracle that the Fourier-domain series is held to."""

    def test_box_convolution_is_triangle(self):
        d = 0.25
        grid = make_grid(0.0, OMEGA, d)
        box = SpectralBand(grid, np.ones_like(grid)).normalized()
        tri = convolve(box, box)
        # triangular on [0, 2*Omega], peak at Omega
        peak = np.argmax(tri.values)
        assert abs(tri.grid[peak] - OMEGA) <= d
        assert np.isclose(tri.integral(), 1.0, atol=1e-9)
        left = tri.values[: peak - 1]
        assert np.all(np.diff(left) >= -1e-12)

    def test_delta_comb_shifts(self):
        d = 1.0
        grid = make_grid(0.0, 64.0, d)
        v = np.zeros_like(grid)
        v[16] = 1.0 / d  # delta at 16 meV
        delta = SpectralBand(grid, v)
        conv = convolve(delta, delta)
        k = np.argmax(conv.values)
        assert conv.grid[k] == 32.0
        assert np.isclose(conv.integral(), 1.0, rtol=1e-12)


class TestNPhononBands:
    def test_delta_i1_peaks_at_multiples(self):
        d = 0.5
        grid = make_grid(0.0, OMEGA, d)
        v = np.zeros_like(grid)
        wp = 40.0
        v[int(wp / d)] = 1.0 / d
        i1 = OnePhononBand(SpectralBand(grid, v))
        bands = n_phonon_bands(i1, 5)
        for n, band in enumerate(bands, start=1):
            k = np.argmax(band.values)
            assert np.isclose(band.grid[k], n * wp, atol=d)

    def test_norm_and_moment_growth(self):
        rng = np.random.default_rng(1)
        i1 = gaussian_mixture_i1(rng)
        m1 = float(np.sum(i1.grid * i1.values) * i1.band.spacing)
        for n, band in enumerate(n_phonon_bands(i1, 6), start=1):
            assert abs(band.integral() - 1.0) < 1e-6
            mean = float(np.sum(band.grid * band.values) * band.spacing)
            assert abs(mean - n * m1) < 1e-6 * n * m1
            assert band.grid[-1] <= n * OMEGA + 1e-9

    def test_support_confinement(self):
        rng = np.random.default_rng(2)
        i1 = gaussian_mixture_i1(rng, n=512)
        b3 = n_phonon_bands(i1, 3)[2]
        beyond = b3.grid > 3 * OMEGA
        assert not np.any(beyond)


class TestSynthesize:
    def test_no_coupling_returns_zpl(self):
        rng = np.random.default_rng(3)
        i1 = gaussian_mixture_i1(rng, n=512)
        zpl = ZplShape.gaussian(i1.band.spacing, 1.0)
        # S=0 keeps every photon in the zero-phonon line
        band = synthesize_band(i1, 0.0, zpl, n_max=3)
        sl = slice(0, zpl.band.values.size)
        inside = np.isin(np.round(band.grid / band.spacing),
                         np.round(zpl.band.grid / band.spacing))
        assert np.isclose(band.integral(), 1.0, atol=1e-9)
        got_zpl = band.values[inside]
        assert np.allclose(got_zpl, zpl.band.values, atol=1e-9)

    def test_poisson_comb(self):
        # delta one-phonon band: the synthesized band is the Poisson comb
        d = 0.5
        grid = make_grid(0.0, OMEGA, d)
        v = np.zeros_like(grid)
        wp, s = 40.0, 2.0
        v[int(wp / d)] = 1.0 / d
        i1 = OnePhononBand(SpectralBand(grid, v))
        band = synthesize_band(i1, s, ZplShape.delta(d))
        from math import factorial
        for n in range(9):
            idx = int(round(n * wp / d)) - int(round(band.grid[0] / d))
            weight = band.values[idx] * d
            want = np.exp(-s) * s**n / factorial(n)
            assert abs(weight - want) < 1e-6

    def test_norm_and_debye_waller(self):
        rng = np.random.default_rng(4)
        for s in (0.1, 0.6, 2.3, 5.0, 10.0):
            i1 = gaussian_mixture_i1(rng, n=700)
            n_max = poisson_n_max(s)
            band = synthesize_band(i1, s, ZplShape.delta(i1.band.spacing), n_max)
            bound = poisson_truncation_bound(s, n_max)
            assert abs(band.integral() - 1.0) <= bound + 1e-9
            zpl_idx = int(round(-band.grid[0] / band.spacing))
            assert abs(band.values[zpl_idx] * band.spacing - np.exp(-s)) < 1e-6

    def test_matches_direct_summation(self):
        # the Fourier-domain series against Poisson-weighted direct sums;
        # the explicit n_max=3 at S=5 pins the truncation order
        rng = np.random.default_rng(15)
        for s, n_max in ((0.1, None), (2.3, None), (10.0, None), (5.0, 3)):
            i1 = gaussian_mixture_i1(rng, n=240)
            zpl = ZplShape.gaussian(i1.band.spacing, 2.0)
            got = synthesize_band(i1, s, zpl, n_max)
            want = direct_series(i1, s, zpl, n_max or poisson_n_max(s))
            assert np.allclose(got.grid, want.grid, rtol=0.0, atol=1e-9)
            assert np.max(np.abs(got.values - np.exp(-s) * want.values)) <= 1e-12


class TestMomentIdentity:
    def test_sideband_mean_energy(self):
        # excluding the ZPL, the mean phonon energy of the full band is
        # S <w>_1 / (1 - e^-S): Poisson-weighted linear moment growth
        rng = np.random.default_rng(14)
        for s in (0.5, 1.7, 4.0):
            i1 = gaussian_mixture_i1(rng, n=600)
            d = i1.band.spacing
            band = synthesize_band(i1, s, ZplShape.delta(d))
            zpl_idx = int(round(-band.grid[0] / d))
            vals = band.values.copy()
            vals[zpl_idx] = 0.0  # drop the ZPL bin
            mean = np.sum(band.grid * vals) / np.sum(vals)
            m1 = np.sum(i1.grid * i1.values) * d
            want = s * m1 / (1.0 - np.exp(-s))
            assert abs(mean - want) < 1e-6 * want


class TestHuangRhys:
    def test_definition(self):
        d = 0.25
        grid = make_grid(-2.0, 50.0, d)
        v = np.zeros_like(grid)
        v[8] = np.exp(-1.0) / d  # ZPL at 0 with weight e^-1
        sideband = np.exp(-0.5 * ((grid - 35.0) / 4.0) ** 2)
        sideband *= (1 - np.exp(-1.0)) / (sideband.sum() * d)
        band = SpectralBand(grid, v + sideband)
        assert abs(estimate_huang_rhys(band, (-1.0, 1.0)) - 1.0) < 1e-6

    def test_zero_coupling_band(self):
        d = 0.25
        grid = make_grid(-2.0, 10.0, d)
        v = np.zeros_like(grid)
        v[8] = 1.0 / d
        band = SpectralBand(grid, v)
        assert estimate_huang_rhys(band, (-1.0, 1.0)) == 0.0  # fraction == 1
        with pytest.raises(InvalidParameterError):
            estimate_huang_rhys(band, (5.0, 8.0))  # fraction == 0

    def test_synthesized_roundtrip(self):
        rng = np.random.default_rng(5)
        i1 = gaussian_mixture_i1(rng)
        s = 3.2
        band = synthesize_band(i1, s, ZplShape.delta(i1.band.spacing))
        got = estimate_huang_rhys(band, (-0.5, 0.5))
        assert abs(got - s) < 1e-3


class TestFourierDeconvolve:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(6)
        i1 = gaussian_mixture_i1(rng)
        s = 3.0
        band = synthesize_band(i1, s, ZplShape.delta(i1.band.spacing))
        est = direct_fourier_deconvolve(band, s, ZplShape.delta(band.spacing))
        err = l2_error(est.values, i1.values, i1.band.spacing)
        assert err < 1e-3

    def test_poisson_comb_recovers_delta(self):
        d = 0.5
        grid = make_grid(0.0, OMEGA, d)
        v = np.zeros_like(grid)
        wp, s = 48.0, 2.0
        v[int(wp / d)] = 1.0 / d
        i1 = OnePhononBand(SpectralBand(grid, v))
        band = synthesize_band(i1, s, ZplShape.delta(d))
        est = direct_fourier_deconvolve(band, s, ZplShape.delta(d))
        k = np.argmax(est.values)
        assert est.grid[k] == wp
        assert est.values[k] * d > 0.99

    def test_noise_degrades_gracefully(self):
        rng = np.random.default_rng(7)
        i1 = gaussian_mixture_i1(rng, n=1024)
        s = 2.5
        band = synthesize_band(i1, s, ZplShape.delta(i1.band.spacing))
        noisy_values = band.values * (1 + 0.01 * rng.normal(size=band.values.size))
        noisy = SpectralBand(band.grid, np.clip(noisy_values, 0, None))
        est = direct_fourier_deconvolve(noisy, s, ZplShape.delta(band.spacing))
        clean = direct_fourier_deconvolve(band, s, ZplShape.delta(band.spacing))
        err_noisy = l2_error(est.values, i1.values[: est.values.size], i1.band.spacing)
        err_clean = l2_error(clean.values, i1.values[: clean.values.size],
                             i1.band.spacing)
        # initializer-only quality on noisy input, still bounded
        assert err_clean < 1e-6
        assert 1e-6 < err_noisy < 0.5


class TestIterativeDeconvolve:
    def test_roundtrip_from_fourier_init(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            i1 = gaussian_mixture_i1(rng, n=1024)
            s = rng.uniform(0.8, 4.0)
            zpl = ZplShape.delta(i1.band.spacing)
            band = synthesize_band(i1, s, zpl)
            init = direct_fourier_deconvolve(band, s, zpl)
            out, trace = iterative_deconvolve(band, s, zpl, init)
            assert trace.converged and trace.n_iter <= 20
            assert l2_error(out.values, i1.values, i1.band.spacing) < 0.01

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(9)
        i1 = gaussian_mixture_i1(rng, n=700)
        s = 2.0
        zpl = ZplShape.delta(i1.band.spacing)
        band = synthesize_band(i1, s, zpl)
        out, trace = iterative_deconvolve(band, s, zpl, i1, tol=1e-9)
        assert trace.n_iter <= 2
        assert l2_error(out.values, i1.values, i1.band.spacing) < 1e-6

    def test_divergence_carries_best_iterate(self):
        # the series-subtraction update amplifies smooth zero-mean
        # perturbations for S around 2 and up; a smoothed (hence slightly
        # perturbed) init must trip the divergence guard, and the best
        # iterate it carries stays close to the truth
        from defectkit.errors import DivergenceError
        d, s = 0.5, 2.0
        grid = make_grid(0.0, OMEGA, d)
        vals = np.exp(-0.5 * ((grid - 70.0) / 15.0) ** 2)
        vals *= np.clip(grid / 8.0, 0, 1) * np.clip((OMEGA - grid) / 8.0, 0, 1)
        i1 = OnePhononBand(SpectralBand(grid, vals).normalized())
        zpl = ZplShape.delta(d)
        band = synthesize_band(i1, s, zpl)
        init = smooth_and_taper(
            direct_fourier_deconvolve(band, s, zpl).band,
            smooth_bins=5, taper_fraction=0.05,
        )
        with pytest.raises(DivergenceError) as err:
            iterative_deconvolve(band, s, zpl, init, max_iter=40, tol=1e-12)
        best = err.value.best_iterate
        assert best is not None
        assert l2_error(best.values, i1.values, i1.band.spacing) < 0.02

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_one_pass_matches_hand_built_update(self, max_iter):
        # each pass performs one series-subtraction update,
        # I1_new = exp(S) I - I0 - sum_{n>=2} S^n/n! I0 (x) In on [0, cutoff],
        # clipped and renormalized; here every pass is built from direct sums
        # and a tiny tol keeps all max_iter passes running
        rng = np.random.default_rng(16)
        i1 = gaussian_mixture_i1(rng, n=240)
        d, s = i1.band.spacing, 2.0
        zpl = ZplShape.gaussian(d, 2.0)
        band = synthesize_band(i1, s, zpl)
        init = smooth_and_taper(i1.band, smooth_bins=9, taper_fraction=0.05)
        n_max, n_keep = poisson_n_max(s), init.values.size

        iterates, steps, resids = [], [], []
        current = init.values
        for _ in range(max_iter):
            remainder = direct_series(OnePhononBand(SpectralBand(init.grid, current)),
                                      s, zpl, n_max, first=2)
            update = np.clip(np.exp(s) * on_window(band, n_keep)
                             - on_window(zpl.band, n_keep)
                             - on_window(remainder, n_keep), 0.0, None)
            update /= update.sum() * d
            resynth = np.exp(-s) * direct_series(
                OnePhononBand(SpectralBand(init.grid, update)), s, zpl, n_max).values
            assert resynth.size >= band.values.size  # both start at the ZPL origin
            diff = resynth - np.pad(band.values, (0, resynth.size - band.values.size))
            resids.append(np.sqrt(np.sum(diff**2) * d))
            steps.append(np.sqrt(np.sum((update - current) ** 2) * d))
            iterates.append(update)
            current = update

        for k in range(1, max_iter + 1):
            out, trace = iterative_deconvolve(band, s, zpl, init, max_iter=k,
                                              tol=1e-300)
            assert trace.n_iter == k and not trace.converged
            assert np.allclose(out.grid, init.grid, rtol=0.0, atol=1e-9)
            assert np.max(np.abs(out.values - iterates[k - 1])) <= 1e-12
            assert np.max(np.abs(np.subtract(trace.resync_l2, resids[:k]))) <= 1e-12
            assert np.max(np.abs(np.subtract(trace.step_l2, steps[:k]))) <= 1e-12

    def test_noisy_band_reaches_residual_plateau(self):
        rng = np.random.default_rng(10)
        i1 = gaussian_mixture_i1(rng, n=700)
        s = 2.0
        zpl = ZplShape.delta(i1.band.spacing)
        band = synthesize_band(i1, s, zpl)
        noisy_vals = np.clip(
            band.values * (1 + 0.01 * rng.normal(size=band.values.size)), 0, None
        )
        noisy = SpectralBand(band.grid, noisy_vals).normalized()
        smoothed = smooth_and_taper(
            direct_fourier_deconvolve(noisy, s, zpl).band
        )
        out, trace = iterative_deconvolve(noisy, s, zpl, smoothed,
                                          max_iter=25, tol=1e-9)
        # residual flattens out instead of reaching zero
        assert trace.resync_l2[-1] > 1e-6
        assert trace.resync_l2[-1] <= trace.resync_l2[0] + 1e-12


class TestSmoothAndTaper:
    def test_compliant_input_nearly_unchanged(self):
        rng = np.random.default_rng(11)
        i1 = gaussian_mixture_i1(rng)
        # taper narrower than the band's own zero ramps, light smoothing
        out = smooth_and_taper(i1.band, smooth_bins=3, taper_fraction=0.03)
        err = l2_error(out.values, i1.values, i1.band.spacing)
        assert err < 0.05

    def test_mass_beyond_cutoff_removed(self):
        d = 0.5
        grid = make_grid(0.0, 1.5 * OMEGA, d)
        vals = np.exp(-0.5 * ((grid - 1.2 * OMEGA) / 10.0) ** 2)
        vals += np.exp(-0.5 * ((grid - 60.0) / 15.0) ** 2)
        band = SpectralBand(grid, vals)
        out = smooth_and_taper(band)
        assert out.grid[-1] <= OMEGA + 1e-9
        assert np.isclose(out.band.integral(), 1.0, atol=1e-9)

    def test_total_variation_reduced(self):
        rng = np.random.default_rng(12)
        i1 = gaussian_mixture_i1(rng, n=800)
        noisy = SpectralBand(
            i1.grid, np.clip(i1.values * (1 + 0.3 * rng.normal(size=i1.values.size)),
                             0, None)
        )
        out = smooth_and_taper(noisy, smooth_bins=7)
        tv = lambda v: np.sum(np.abs(np.diff(v / (v.sum() or 1.0))))
        assert tv(out.values) < 0.5 * tv(noisy.values)


class TestBandshapeFromEmission:
    def test_flat_emission_cubic_correction(self):
        d = 0.5
        grid = make_grid(2000.0, 2300.0, d)
        emission = SpectralBand(grid, np.ones_like(grid))
        band = bandshape_from_emission(emission, 2250.0)
        # values proportional to (photon energy)^-3 before normalization
        photon = 2250.0 - band.grid
        want = photon**-3.0
        want /= want.sum() * d
        assert np.allclose(band.values, want, rtol=1e-9)

    def test_zpl_only_spectrum(self):
        d = 0.5
        grid = make_grid(2200.0, 2300.0, d)
        v = np.zeros_like(grid)
        zpl = 2250.0
        v[int((zpl - grid[0]) / d)] = 1.0
        band = bandshape_from_emission(SpectralBand(grid, v), zpl)
        k = np.argmax(band.values)
        assert band.grid[k] == 0.0
        assert np.isclose(band.integral(), 1.0, rtol=1e-12)

    def test_synthetic_forward_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        i1 = gaussian_mixture_i1(rng, n=600)
        s = 2.0
        shape = synthesize_band(i1, s, ZplShape.delta(i1.band.spacing))
        zpl_mev = float(shape.grid[-1] + 500.0)  # keep photon energies positive
        # forward: emission at photon energy omega0 - w, times photon^3
        photon = zpl_mev - shape.grid
        emission_vals = (shape.values * photon**3)[::-1]
        emission = SpectralBand(np.sort(photon), emission_vals)
        back = bandshape_from_emission(emission, zpl_mev)
        assert np.isclose(back.grid[0], shape.grid[0], atol=1e-9)
        norm_shape = shape.normalized()
        assert np.max(np.abs(back.values - norm_shape.values)) < 1e-9

    def test_zpl_outside_grid(self):
        grid = make_grid(2000.0, 2100.0, 0.5)
        with pytest.raises(InvalidParameterError):
            bandshape_from_emission(SpectralBand(grid, np.ones_like(grid)), 2250.0)


class TestCriticalPointReport:
    def test_single_gaussian_peak_found(self):
        d = 0.25
        grid = make_grid(0.0, OMEGA, d)
        vals = np.exp(-0.5 * ((grid - 60.0) / 12.0) ** 2)
        i1 = OnePhononBand(SpectralBand(grid, vals).normalized())
        dos_vals = np.exp(-0.5 * ((grid - 62.0) / 8.0) ** 2) + 0.5 * np.exp(
            -0.5 * ((grid - 140.0) / 6.0) ** 2
        )
        dos = SpectralBand(grid, dos_vals)
        report = critical_point_report(i1, dos)
        assert len(report.peaks) == 1
        assert abs(report.peaks[0].energy_mev - 60.0) <= 1.0
        assert report.peaks[0].nearest_dos_peak_mev == pytest.approx(62.0, abs=d)

    def test_band_equal_to_dos_matches_critical_points(self):
        d = 0.25
        grid = make_grid(0.0, OMEGA, d)
        vals = (np.exp(-0.5 * ((grid - 70.0) / 9.0) ** 2)
                + 0.8 * np.exp(-0.5 * ((grid - 130.0) / 7.0) ** 2))
        band = SpectralBand(grid, vals).normalized()
        i1 = OnePhononBand(band)
        report = critical_point_report(i1, band)
        assert len(report.peaks) == 2
        for p in report.peaks:
            assert p.distance_mev == 0.0

    def test_monotone_dos_pairs_no_peak(self):
        grid = make_grid(0.0, OMEGA, 0.5)
        i1 = OnePhononBand(SpectralBand(
            grid, np.exp(-0.5 * ((grid - 60.0) / 10.0) ** 2)).normalized())
        report = critical_point_report(i1, SpectralBand(grid, grid / OMEGA))
        assert len(report.peaks) == 1
        assert report.peaks[0].nearest_dos_peak_mev is None
        assert report.peaks[0].distance_mev is None


class TestZeroWidthRefused:
    @pytest.mark.parametrize("spacing, message", [
        (0.0, "spacing must be positive"),
        (-0.25, "spacing must be positive"),
        (1e-300, "grid would exceed"),
    ], ids=["0.0", "-0.25", "1e-300"])
    def test_make_grid_spacing(self, spacing, message):
        with pytest.raises(InvalidParameterError, match=message):
            make_grid(0.0, OMEGA, spacing)

    @pytest.mark.parametrize("sigma, message", [
        (0.0, "width must be positive"),
        (-1.0, "width must be positive"),
        (1e300, "grid would exceed"),
    ], ids=["0.0", "-1.0", "1e300"])
    def test_gaussian_zpl_width(self, sigma, message):
        with pytest.raises(InvalidParameterError, match=message):
            ZplShape.gaussian(0.25, sigma)

    @pytest.mark.parametrize("run, message", [
        (lambda i1, zpl: synthesize_band(i1, 1.0, zpl, n_max=10**300), "grid would exceed"),
        (lambda i1, zpl: direct_fourier_deconvolve(synthesize_band(i1, 1.0, zpl), 1.0, zpl,
                                                   cutoff_mev=1e300), "grid would exceed"),
        (lambda i1, zpl: smooth_and_taper(i1.band, 100.0, smooth_bins=102),
         "smooth_bins 102 exceeds the 101 points"),
        # n_max and the grid each within their caps: 1000 passes over 2^19 + 1
        # frequencies ran 7 s at 296 MB before the series work was capped
        (lambda i1, zpl: synthesize_band(
            gaussian_mixture_i1(np.random.default_rng(0), n=1000, cutoff=1000.0), 2.0, zpl,
            n_max=1000), "Poisson series would exceed"),
    ], ids=["n_max-1e300", "cutoff-1e300", "smooth-bins-past-cutoff",
            "series-work-n_max-1000-cutoff-1000"])
    def test_oversized_request_refused(self, run, message):
        # refused before anything of that size is allocated
        i1 = gaussian_mixture_i1(np.random.default_rng(0), n=100, cutoff=100.0)
        with pytest.raises(InvalidParameterError, match=message):
            run(i1, ZplShape.delta(1.0))


class TestPoissonHelpers:
    def test_n_max_tail(self):
        for s in (0.3, 1.0, 3.0, 5.0, 10.0):
            n = poisson_n_max(s)
            assert poisson_truncation_bound(s, n) < 1e-8
            assert poisson_truncation_bound(s, n - 1) >= 1e-8


def assert_peaks_match(x, min_prominence):
    """_find_peaks against scipy.signal.find_peaks, indices and prominence bits."""
    from scipy.signal import find_peaks

    want, props = find_peaks(x, prominence=min_prominence)
    got, prominences = _find_peaks(x, min_prominence)
    assert np.array_equal(got, want)
    assert np.array_equal(prominences.view(np.uint64),
                          props["prominences"].view(np.uint64))


class TestFindPeaksOracle:
    @pytest.mark.parametrize("x", [
        [], [1.0], [1.0, 2.0], [2.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0, 0.0],
        [3.0, 3.0, 1.0, 2.0, 0.0], [0.0, 2.0, 1.0, 3.0, 3.0],
        [3.0, 3.0, 3.0, 1.0, 2.0, 2.0, 0.0, 4.0, 4.0, 4.0, 4.0],
        [0.0, 3.0, 3.0, 1.0, 3.0, 3.0, 3.0, 0.0, 2.0, 2.0, 1.0, 2.0, 0.0],
        [0.0, 5.0, 1.0, 4.0, 2.0, 3.0, 2.5, 3.0, 0.0],
        [10.0, -5.0, 9.0, 0.0, 5.0, 3.0],
        [0.0] * 9, [2.5] * 9,
    ], ids=lambda x: "_".join(f"{v:g}" for v in x) or "empty")
    def test_plateaus_edges_and_short_arrays(self, x):
        x = np.array(x, dtype=float)
        for m in (0.0, 0.5, 1.0, 2.0):
            assert_peaks_match(x, m)

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["normal", "plateaus", "steps", "noisy-gaussian"]))
    def test_random_arrays(self, seed, kind):
        rng = np.random.default_rng(seed)
        for trial in range(200):
            n = int(rng.integers(0, 40)) if trial % 2 else int(rng.integers(0, 3000))
            if kind == "normal":
                x = rng.normal(size=n)
            elif kind == "plateaus":
                x = rng.integers(0, 4, size=n).astype(float)
            elif kind == "steps":
                x = np.repeat(rng.normal(size=n), rng.integers(1, 5, size=n))[:n]
            else:
                t = np.arange(n)
                x = np.exp(-0.5 * ((t - n / 2) / (n / 8 + 1)) ** 2)
                x += 1e-3 * rng.normal(size=n)
            for m in (0.0, 0.05 * x.max(initial=0.0), 0.5 * np.ptp(x) if n else 1.0):
                assert_peaks_match(x, m)

    @pytest.mark.parametrize("s", [0.5, 2.0, 4.5])
    def test_noisy_deconvolved_bands(self, s):
        rng = np.random.default_rng(int(10 * s))
        i1 = gaussian_mixture_i1(rng, n=672)
        zpl = ZplShape.delta(i1.band.spacing)
        band = synthesize_band(i1, s, zpl)
        noise = 1e-3 * band.values[1:].max() * rng.normal(size=band.values.size)
        noisy = SpectralBand(band.grid, np.clip(band.values + noise, 0, None)).normalized()
        raw = direct_fourier_deconvolve(noisy, s, zpl)
        smoothed = smooth_and_taper(raw.band)
        try:
            out, _ = iterative_deconvolve(noisy, s, zpl, smoothed, max_iter=10)
        except DivergenceError as err:
            out = err.best_iterate
        for vals in (raw.values, smoothed.values, out.values):
            for frac in (0.0, 0.01, 0.05):
                assert_peaks_match(vals, frac * vals.max())


def reference_series(i1_values, s, n_max, n_fft, d):
    """The Horner loop _poisson_series evaluates in place, as first written."""
    x = s * d * np.fft.rfft(i1_values, n_fft)
    series = 1.0
    for n in range(n_max, 0, -1):
        series = 1.0 + x / n * series
    return x, series


class TestPoissonSeriesBits:
    # The in-place series equals the reference loop only while numpy's complex
    # division by a real and its complex multiply round as they do here; the
    # CI floor job (Python 3.10, numpy 1.24) runs these tests for that reason.
    # n_fft 2^15 and up puts x (2^14 + 1 complex values) past numpy's 256 KiB
    # threshold for eliding temporaries, which reorders some products.
    @pytest.mark.parametrize("log2_n_fft", range(4, 19))
    def test_matches_reference_loop_bit_for_bit(self, log2_n_fft):
        n_fft = 1 << log2_n_fft
        rng = np.random.default_rng(log2_n_fft)
        d = 0.25
        i1 = rng.uniform(size=max(n_fft // 3, 2))
        i1 /= i1.sum() * d
        for n_max in (1, 2, 17, 60):
            want = reference_series(i1, 3.7, n_max, n_fft, d)
            got = _poisson_series(i1, 3.7, n_max, n_fft, d)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("s", [1e300, 1e308])
    def test_non_finite_in_the_same_places(self, s):
        # S = 1e300 is the huge-S refusal of psb-synth; 1e308 overflows x itself
        rng = np.random.default_rng(1)
        i1 = rng.uniform(size=300)
        with np.errstate(all="ignore"):
            want = reference_series(i1, s, 60, 1024, 0.25)
            got = _poisson_series(i1, s, 60, 1024, 0.25)
        assert not np.all(np.isfinite(want[1]))
        for a, b in zip(got, want):
            assert np.array_equal(np.isfinite(a.view(float)), np.isfinite(b.view(float)))

