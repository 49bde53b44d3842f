import numpy as np
import pytest

from defectkit.errors import InvalidParameterError
from defectkit.g2_processing import (
    CoincidenceHistogram,
    G2Fit,
    background_correct,
    fit_g2,
    normalize,
)


def make_histogram(counts, w_ns=1.0, t_s=100.0, n1=1e5, n2=1e5):
    counts = np.asarray(counts, dtype=float)
    centers = w_ns * np.arange(counts.size)
    return CoincidenceHistogram(bin_centers=centers, counts=counts,
                                bin_width_ns=w_ns, accumulation_time_s=t_s,
                                n1=n1, n2=n2)


class TestNormalize:
    def test_poissonian_flat_histogram(self):
        n1, n2, w, t = 2e5, 1e5, 2.0, 50.0
        level = n1 * n2 * (w * 1e-9) * t
        h = make_histogram(np.full(64, level), w_ns=w, t_s=t, n1=n1, n2=n2)
        assert np.allclose(normalize(h), 1.0, rtol=1e-12)

    def test_halving_time_doubles_curve(self):
        counts = np.linspace(10, 500, 32)
        c1 = normalize(make_histogram(counts, t_s=100.0))
        c2 = normalize(make_histogram(counts, t_s=50.0))
        assert np.allclose(c2, 2 * c1, rtol=1e-12)

    def test_zero_divisor(self):
        with pytest.raises(InvalidParameterError):
            normalize(make_histogram(np.ones(16), n1=0.0))

    def test_nonuniform_bins_rejected(self):
        with pytest.raises(InvalidParameterError):
            CoincidenceHistogram(bin_centers=np.array([0.0, 1.0, 3.0]),
                                 counts=np.zeros(3), bin_width_ns=1.0,
                                 accumulation_time_s=1.0, n1=1e5, n2=1e5)


class TestBackgroundCorrect:
    def test_rho_one_is_identity(self):
        cn = np.linspace(0.0, 2.0, 21)
        assert np.allclose(background_correct(cn, 1.0), cn, rtol=1e-15)

    def test_unit_curve_fixed_point(self):
        cn = np.ones(17)
        for rho in (0.3, 0.6, 0.95):
            assert np.allclose(background_correct(cn, rho), 1.0, rtol=1e-12)

    def test_planted_rho_roundtrip(self):
        rng = np.random.default_rng(0)
        g2 = rng.uniform(0.0, 1.5, 50)
        rho = 0.8
        cn = rho**2 * g2 + (1 - rho**2)  # algebraic inverse of the correction
        assert np.max(np.abs(background_correct(cn, rho) - g2)) < 1e-12

    def test_invalid_rho(self):
        with pytest.raises(InvalidParameterError):
            background_correct(np.ones(4), 0.0)

    def test_normalize_then_correct_roundtrip(self):
        rng = np.random.default_rng(1)
        g2 = rng.uniform(0.0, 2.0, 40)
        rho, n1, n2, w, t = 0.7, 1e5, 2e5, 1.0, 10.0
        cn = rho**2 * g2 + (1 - rho**2)
        counts = cn * (n1 * n2 * (w * 1e-9) * t)
        h = make_histogram(counts, w_ns=w, t_s=t, n1=n1, n2=n2)
        back = background_correct(normalize(h), rho)
        assert np.max(np.abs(back - g2)) < 1e-12


def four_exp_curve(tau, alphas, taus):
    return 1.0 - np.exp(-np.outer(tau, 1.0 / np.asarray(taus))) @ np.asarray(alphas)


class TestFitG2:
    alphas = np.array([0.9, -0.25, 0.2, 0.15])
    taus = np.array([8.0, 120.0, 900.0, 4000.0])

    def test_noiseless_recovery(self):
        tau = np.geomspace(0.5, 40000.0, 400)
        curve = four_exp_curve(tau, self.alphas, self.taus)
        res = fit_g2(tau, curve, n_exp=4)
        assert np.allclose(res.fit.taus, self.taus, rtol=1e-4)
        assert np.allclose(res.fit.alphas, self.alphas, rtol=1e-4)
        assert res.residual_rms < 1e-8

    def test_model_value_at_zero(self):
        fit = G2Fit(alphas=self.alphas, taus=self.taus)
        assert np.isclose(fit.evaluate([0.0])[0], 1.0 - self.alphas.sum(), rtol=1e-12)

    def test_single_exponential_nested_recovery(self):
        tau = np.geomspace(0.5, 20000.0, 300)
        curve = 1.0 - 0.8 * np.exp(-tau / 50.0)
        # three redundant components: the identifiability warning must fire
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            res = fit_g2(tau, curve, n_exp=4)
        big = np.abs(res.fit.alphas) > 1e-6
        assert big.sum() == 1
        assert np.isclose(res.fit.taus[big][0], 50.0, rtol=1e-6)
        assert np.isclose(res.fit.alphas[big][0], 0.8, rtol=1e-6)

    def test_poisson_noise_monte_carlo(self):
        # counts-level Poisson noise at a realistic scale; time constants
        # recovered within 10% in the median over seeds
        rng = np.random.default_rng(42)
        tau = np.geomspace(1.0, 40000.0, 350)
        truth = four_exp_curve(tau, self.alphas, self.taus)
        scale = 1e5  # peak bin counts; percent-level relative noise
        errs = []
        for _ in range(100):
            counts = rng.poisson(np.clip(truth, 0, None) * scale)
            noisy = counts / scale
            res = fit_g2(tau, noisy, n_exp=4, counts=counts,
                         init_taus=np.array([5.0, 100.0, 1000.0, 5000.0]))
            errs.append(np.max(np.abs(res.fit.taus - self.taus) / self.taus))
        assert np.median(errs) < 0.10

    def test_monotone_improvement(self):
        rng = np.random.default_rng(3)
        tau = np.geomspace(0.5, 30000.0, 250)
        curve = four_exp_curve(tau, self.alphas, self.taus)
        curve += rng.normal(scale=0.01, size=curve.size)
        res = fit_g2(tau, curve, n_exp=4)
        assert res.residual_rms <= res.init_residual_rms + 1e-15

    def test_multiset_sorted_output(self):
        tau = np.geomspace(0.5, 40000.0, 400)
        curve = four_exp_curve(tau, self.alphas, self.taus)
        res = fit_g2(tau, curve, n_exp=4,
                     init_taus=np.array([3000.0, 600.0, 60.0, 5.0]))
        assert np.all(np.diff(res.fit.taus) > 0)
        assert np.allclose(np.sort(res.fit.taus), np.sort(self.taus), rtol=1e-4)

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            fit_g2(np.arange(10.0), np.ones(10), n_exp=4)

    def test_narrow_span_warns(self):
        tau = np.linspace(1.0, 100.0, 64)
        curve = four_exp_curve(tau, self.alphas, self.taus)
        with pytest.warns(RuntimeWarning, match="decades"):
            fit_g2(tau, curve, n_exp=4)

    def test_fit_taus_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            G2Fit(alphas=np.ones(4), taus=np.array([1.0, 2.0, -3.0, 4.0]))
