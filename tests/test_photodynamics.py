from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from defectkit import photodynamics
from defectkit.errors import (
    InconsistentFitError,
    DegenerateSystemError,
    InvalidFitError,
    InvalidParameterError,
)
from defectkit.g2_processing import G2Fit
from defectkit.photodynamics import (
    CharPoly,
    RateParams,
    absorption_cross_section,
    characteristic_coefficients,
    correlation_components,
    detected_rate,
    esa_cross_section,
    esa_fit,
    extract_rates,
    g2_analytic,
    g2_numeric,
    kex_from_power,
    odmr_contrast,
    power_sweep_model,
    quartic_roots,
    rate_matrix,
    steady_state,
)

# triplet lifetimes 2120 ns, 440 ns, 250 ns
EXAMPLE = RateParams(k_ex=1e6, k_f=1e8, k_isc=1e6,
                     k0=1 / 2120e-9, km=1 / 440e-9, kp=1 / 250e-9)


def reduced_matrix(r):
    """4x4 rate matrix in (s1, t+, t-, t0) after eliminating s0 (oracle)."""
    q = r.k_isc / 3.0
    esa = r.k_ex * r.beta
    return np.array([
        [-(r.k_ex + r.k_f + r.k_isc + esa), -r.k_ex, -r.k_ex, -r.k_ex],
        [q, -r.kp, 0, 0],
        [q, 0, -r.km, 0],
        [q + esa, 0, 0, -r.k0],
    ])


def random_rates(rng, require_real=False, branch=False):
    while True:
        vals = 10 ** rng.uniform(4, 9, size=6)
        r = RateParams(*vals)
        if branch and r.k_ex >= r.k_f + r.k_isc:
            continue
        roots = quartic_roots(characteristic_coefficients(r))
        scale = np.max(np.abs(roots))
        gaps = [abs(roots[i] - roots[j]) for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) < 1e-6 * scale:
            continue
        if require_real and np.max(np.abs(roots.imag)) > 0:
            continue
        return r


class TestSteadyState:
    def test_two_level_reduction(self):
        r = RateParams(k_ex=3e6, k_f=9e7, k_isc=0.0, k0=1e5, km=1e6, kp=1e7)
        p = steady_state(r)
        assert p.t_plus == p.t_minus == p.t0 == 0.0
        assert np.isclose(p.s1 / p.s0, r.k_ex / r.k_f, rtol=1e-12)

    def test_dark_system(self):
        p = steady_state(RateParams(k_ex=0.0, k_f=1e8, k_isc=1e6,
                                    k0=1e5, km=1e6, kp=1e7))
        assert p.s0 == 1.0 and p.s1 == 0.0

    def test_against_dense_solve_oracle(self):
        m = rate_matrix(EXAMPLE)
        # oracle: eigenvector of the zero eigenvalue of the full matrix
        w, v = np.linalg.eig(m)
        k = np.argmin(np.abs(w))
        want = np.real(v[:, k])
        want = want / want.sum()
        got = steady_state(EXAMPLE).as_array()
        assert np.allclose(got, want, atol=1e-12)

    def test_all_zero_rates(self):
        with pytest.raises(DegenerateSystemError):
            steady_state(RateParams(0, 0, 0, 0, 0, 0))

    def test_conservation_under_propagation(self):
        m = rate_matrix(EXAMPLE)
        p = np.array([1.0, 0, 0, 0, 0])
        for t in np.logspace(-9, -4, 12):
            pt = expm(m * t) @ p
            assert abs(pt.sum() - 1.0) < 1e-9


class TestDetectedRate:
    def test_two_level_saturation(self):
        r = RateParams(k_ex=2e6, k_f=8e7, k_isc=0.0, k0=1e5, km=1e6, kp=1e7,
                       eta=0.3)
        want = r.eta * r.k_f * r.k_ex / (r.k_ex + r.k_f)
        assert np.isclose(detected_rate(r), want, rtol=1e-12)

    def test_identity_with_steady_state(self):
        r = replace(EXAMPLE, eta=0.01)
        assert np.isclose(detected_rate(r), r.eta * r.k_f * steady_state(r).s1,
                          rtol=1e-9)

    def test_scales_linearly_with_eta(self):
        lo = detected_rate(replace(EXAMPLE, eta=1e-6))
        hi = detected_rate(replace(EXAMPLE, eta=1.0))
        assert np.isclose(lo, 1e-6 * hi, rtol=1e-12)


class TestCharacteristicCoefficients:
    def test_verbatim_expressions(self):
        # coefficient formulas written out with q = k_isc/3 per sublevel
        r = EXAMPLE
        q = r.k_isc / 3.0
        e1 = r.k0 + r.km + r.kp
        e2 = r.k0 * r.km + r.k0 * r.kp + r.km * r.kp
        e3 = r.k0 * r.km * r.kp
        c = characteristic_coefficients(r)
        assert np.isclose(c.b, r.k_ex + r.k_f + 3 * q + e1, rtol=1e-12)
        assert np.isclose(
            c.c, (r.k_ex + r.k_f + 3 * q) * e1 + 3 * r.k_ex * q + e2, rtol=1e-12
        )
        assert np.isclose(
            c.d,
            (r.k_ex + r.k_f + 3 * q) * e2 + 2 * r.k_ex * q * e1 + e3,
            rtol=1e-12,
        )
        # constant term: single factor of k_ex*q*e2 (the reduced-matrix
        # determinant), cross-checked against the eigenvalue oracle below
        assert np.isclose(c.e, (r.k_ex + r.k_f + 3 * q) * e3 + r.k_ex * q * e2,
                          rtol=1e-12)

    def test_matches_reduced_matrix_eigenvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            r = random_rates(rng)
            roots = quartic_roots(characteristic_coefficients(r))
            want = np.linalg.eigvals(reduced_matrix(r))
            assert np.allclose(np.sort(roots.real), np.sort(want.real),
                               rtol=1e-6, atol=1e-3)
            assert np.allclose(np.sort(roots.imag), np.sort(want.imag),
                               rtol=1e-6, atol=1e-3)

    def test_matches_reduced_matrix_with_esa(self):
        r = replace(EXAMPLE, beta=0.25, k_ex=5e7)
        roots = np.sort(quartic_roots(characteristic_coefficients(r)).real)
        want = np.sort(np.linalg.eigvals(reduced_matrix(r)).real)
        assert np.allclose(roots, want, rtol=1e-9)

    def test_equal_triplet_rates_specialization(self):
        # with k0 = km = kp = kt the quartic is (x+kt)^2 (x^2 + px + s) with
        # p = kex + kf + kisc + kt, s = kt*(kex + kf + kisc) + kex*kisc
        kt = 2e6
        r = RateParams(k_ex=3e6, k_f=9e7, k_isc=6e6, k0=kt, km=kt, kp=kt)
        p = r.k_ex + r.k_f + r.k_isc + kt
        s = kt * (r.k_ex + r.k_f + r.k_isc) + r.k_ex * r.k_isc
        want = np.polymul([1.0, 2 * kt, kt**2], [1.0, p, s])
        got = characteristic_coefficients(r).as_array()
        assert np.allclose(got, want, rtol=1e-12)

    def test_no_isc_factorization(self):
        r = RateParams(k_ex=2e6, k_f=7e7, k_isc=0.0, k0=1e5, km=2e6, kp=5e6)
        roots = np.sort(quartic_roots(characteristic_coefficients(r)).real)
        assert np.allclose(
            roots,
            np.sort([-(r.k_ex + r.k_f), -r.k0, -r.km, -r.kp]),
            rtol=1e-9,
        )


class TestQuarticRoots:
    def test_known_quartic(self):
        # (x+1)(x+2)(x+3)(x+4) = x^4 + 10x^3 + 35x^2 + 50x + 24
        roots = quartic_roots(CharPoly(b=10, c=35, d=50, e=24))
        assert np.allclose(np.sort(roots.real), [-4, -3, -2, -1], atol=1e-10)

    def test_repeated_roots(self):
        # (x+1)^2 (x+2)^2 = x^4 + 6x^3 + 13x^2 + 12x + 4
        roots = quartic_roots(CharPoly(b=6, c=13, d=12, e=4))
        assert np.allclose(np.sort(roots.real), [-2, -2, -1, -1], atol=1e-6)

    def test_vieta_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            r = random_rates(rng)
            c = characteristic_coefficients(r)
            lam = quartic_roots(c)
            s1 = lam.sum()
            s2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
            s3 = sum(lam[i] * lam[j] * lam[k]
                     for i in range(4) for j in range(i + 1, 4)
                     for k in range(j + 1, 4))
            s4 = np.prod(lam)
            assert abs(s1 + c.b) <= 1e-8 * abs(c.b)
            assert abs(s2 - c.c) <= 1e-8 * abs(c.c)
            assert abs(s3 + c.d) <= 1e-8 * abs(c.d)
            assert abs(s4 - c.e) <= 1e-8 * abs(c.e)

    def test_generator_spectrum(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            r = random_rates(rng)
            roots = quartic_roots(characteristic_coefficients(r))
            kmax = max(r.k_ex, r.k_f, r.k_isc, r.k0, r.km, r.kp)
            assert np.all(roots.real <= 1e-9 * kmax)
            assert roots[0].real >= roots[-1].real


class TestG2:
    def test_antibunching_at_zero(self):
        assert abs(g2_analytic(EXAMPLE, np.array([0.0]))[0]) < 1e-9
        assert abs(g2_numeric(EXAMPLE, np.array([0.0]))[0]) < 1e-9

    def test_long_delay_plateau(self):
        roots = quartic_roots(characteristic_coefficients(EXAMPLE))
        t_long = 10.0 / np.min(np.abs(roots.real))
        assert abs(g2_analytic(EXAMPLE, np.array([t_long]))[0] - 1.0) < 1e-6

    def test_two_level_closed_form(self):
        r = RateParams(k_ex=5e6, k_f=5e7, k_isc=0.0, k0=1e5, km=1e6, kp=1e7)
        tau = np.logspace(-9, -6, 40)
        want = 1.0 - np.exp(-(r.k_ex + r.k_f) * tau)
        assert np.allclose(g2_numeric(r, tau), want, atol=1e-9)
        assert np.allclose(g2_analytic(r, tau), want, atol=1e-9)

    def test_analytic_matches_numeric(self):
        rng = np.random.default_rng(8)
        tau = np.logspace(-9, -4, 60)
        for _ in range(10):
            r = random_rates(rng)
            assert np.max(np.abs(g2_analytic(r, tau) - g2_numeric(r, tau))) < 1e-6

    def test_collision_fallback_warns(self, monkeypatch):
        # k0 == km is an exact double root; np.roots splits it by ~1e-9
        # relative, so widen the tolerance slightly to exercise the fallback
        monkeypatch.setattr(photodynamics, "_ROOT_COLLISION_TOL", 1e-8)
        r = RateParams(k_ex=1e6, k_f=1e8, k_isc=0.0, k0=2e6, km=2e6, kp=5e6)
        tau = np.logspace(-9, -5, 10)
        with pytest.warns(RuntimeWarning, match="collide"):
            vals = g2_analytic(r, tau)
        assert np.allclose(vals, g2_numeric(r, tau), atol=1e-9)

    def test_rejects_negative_delay(self):
        with pytest.raises(InvalidParameterError):
            g2_analytic(EXAMPLE, np.array([-1e-9]))


def fit_from_rates(r):
    alphas, lam = correlation_components(r)
    return G2Fit(alphas=alphas, taus=1e9 / lam, rho=1.0)


class TestExtractRates:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            r = random_rates(rng, require_real=True, branch=True)
            fit = fit_from_rates(r)
            out = extract_rates(fit, detected=detected_rate(r), eta=r.eta)
            want = [r.k_ex, r.k_f, r.k_isc, *np.sort([r.k0, r.km, r.kp])]
            got = [out.k_ex, out.k_f, out.k_isc, out.k0, out.km, out.kp]
            assert np.allclose(got, want, rtol=1e-6)

    def test_reference_lifetimes(self):
        r = replace(EXAMPLE, k_isc=5e6, eta=0.02)
        out = extract_rates(fit_from_rates(r), detected=detected_rate(r), eta=0.02)
        assert np.isclose(1e9 / out.k0, 2120.0, rtol=1e-9)
        assert np.isclose(1e9 / out.km, 440.0, rtol=1e-9)
        assert np.isclose(1e9 / out.kp, 250.0, rtol=1e-9)

    def test_vanishing_isc(self):
        r = RateParams(k_ex=1e6, k_f=1e8, k_isc=1e-3, k0=1e5, km=2e6, kp=7e6)
        out = extract_rates(fit_from_rates(r), detected=detected_rate(r), eta=1.0)
        assert out.k_isc < 1e-6 * out.k_f

    def test_power_independent_triplet_rates(self):
        # extended-model data: triplet drains extracted at any pump power
        # coincide (apparent ISC absorbs the power dependence)
        base = replace(EXAMPLE, k_isc=8e6, beta=0.15)
        extracted = []
        for k_ex in np.geomspace(1e5, 3e7, 8):
            r = replace(base, k_ex=k_ex)
            out = extract_rates(fit_from_rates(r), detected=detected_rate(r), eta=1.0)
            extracted.append([out.k0, out.km, out.kp])
            assert np.isclose(out.k_isc, base.k_isc + base.beta * k_ex, rtol=1e-8)
        extracted = np.asarray(extracted)
        spread = np.ptp(extracted, axis=0) / extracted.mean(axis=0)
        assert np.max(spread) < 1e-6

    def test_rejects_bad_fit(self):
        with pytest.raises(InvalidParameterError):
            extract_rates(G2Fit(alphas=np.ones(3), taus=np.ones(3)), 1e4, 1.0)
        # absurd photon rate forces a negative discriminant
        fit = G2Fit(alphas=np.array([0.5, 0.3, 0.2, 0.2]),
                    taus=np.array([5.0, 50.0, 500.0, 5000.0]))
        with pytest.raises(InconsistentFitError):
            extract_rates(fit, detected=1e30, eta=1.0)
        # an amplitude so large that the moment sums overflow
        huge = G2Fit(alphas=np.array([1e300, 0.3, 0.2, 0.2]), taus=fit.taus)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InvalidFitError, match="moment sums overflow"):
            extract_rates(huge, detected=1e4, eta=1.0)


class TestcrossSection:
    def test_planted_recovery(self):
        sigma, area, lam = 1e-17, 1e-8, 532.0
        powers = np.linspace(1e-5, 2e-4, 10)
        kex = kex_from_power(powers, sigma, lam, area)
        fit = absorption_cross_section(np.column_stack([powers, kex]), lam, area)
        assert abs(fit.sigma_cm2 - sigma) / sigma < 0.02
        assert abs(fit.intercept) < 1e-6 * kex.max()

    def test_zero_slope(self):
        pts = [(1e-5, 5e4), (2e-5, 5e4), (3e-5, 5e4)]
        fit = absorption_cross_section(pts, 532.0, 1e-8)
        assert abs(fit.sigma_cm2) < 1e-30

    def test_area_scaling(self):
        pts = np.column_stack([np.linspace(1e-5, 1e-4, 5),
                               np.linspace(1e5, 1e6, 5)])
        s1 = absorption_cross_section(pts, 532.0, 1e-8).sigma_cm2
        s2 = absorption_cross_section(pts, 532.0, 2e-8).sigma_cm2
        assert np.isclose(s2, 2 * s1, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            absorption_cross_section([(1e-5, 1e5)], 532.0, 1e-8)
        with pytest.raises(InvalidParameterError):
            absorption_cross_section([(1e-5, 1e5), (2e-5, 2e5)], 532.0, 0.0)


class TestEsaFit:
    def test_planted_beta_roundtrip(self):
        kex = np.geomspace(1e5, 1e8, 12)
        kisc = 5e6 + 0.08 * kex
        fit = esa_fit(np.column_stack([kex, kisc]))
        assert abs(fit.beta - 0.08) / 0.08 < 1e-9
        assert np.isclose(fit.k_isc0, 5e6, rtol=1e-9)

    def test_no_esa(self):
        kex = np.geomspace(1e5, 1e8, 8)
        fit = esa_fit(np.column_stack([kex, np.full(8, 4e6)]))
        assert fit.beta < 1e-6 * 4e6 / kex.max()

    def test_esa_cross_section_scale(self):
        # beta = sigma_ESA / sigma since both channels see one irradiance
        sigma = 1e-17
        beta = 1e-18 / sigma
        kex = np.geomspace(1e5, 1e8, 10)
        fit = esa_fit(np.column_stack([kex, 2e6 + beta * kex]))
        assert np.isclose(esa_cross_section(fit.beta, sigma), 1e-18, rtol=1e-9)

    def test_negative_beta_clamped(self):
        kex = np.geomspace(1e5, 1e7, 6)
        with pytest.warns(RuntimeWarning, match="clamped"):
            fit = esa_fit(np.column_stack([kex, 1e7 - 0.05 * kex]))
        assert fit.beta == 0.0 and fit.clamped


class TestContrastAndPowerSweep:
    def test_equal_rates_no_contrast(self):
        r = RateParams(k_ex=1e6, k_f=1e8, k_isc=5e6, k0=2e6, km=2e6, kp=2e6)
        assert abs(odmr_contrast(r)) < 1e-12

    def test_slow_t0_gives_positive_contrast(self):
        r = RateParams(k_ex=1e6, k_f=1e8, k_isc=5e6, k0=1e4, km=5e6, kp=5e6)
        assert odmr_contrast(r, driven="minus") > 0.0

    def test_contrast_band_at_high_power(self):
        r = replace(EXAMPLE, k_ex=2e7, k_isc=5e7)
        assert 0.6 <= odmr_contrast(r, driven="plus") <= 0.9

    def test_monotone_without_esa(self):
        base = replace(EXAMPLE, k_isc=5e7)
        pts = power_sweep_model(base, 1e-17, 0.0, np.geomspace(1e-5, 1e-1, 12),
                                532.0, 1e-8)
        fl = [p.fluorescence for p in pts]
        assert np.all(np.diff(fl) > 0)

    def test_esa_makes_fluorescence_non_monotone(self):
        base = replace(EXAMPLE, k_isc=5e7)
        pts = power_sweep_model(base, 1e-17, 0.1, np.geomspace(1e-5, 1e0, 20),
                                532.0, 1e-8)
        fl = np.array([p.fluorescence for p in pts])
        peak = int(np.argmax(fl))
        assert 0 < peak < len(fl) - 1
        assert np.all(np.diff(fl[peak:]) < 0)
        contrast = np.array([p.contrast for p in pts])
        assert np.all(np.diff(contrast) > 0)

    def test_invalid_driven(self):
        with pytest.raises(InvalidParameterError):
            odmr_contrast(EXAMPLE, driven="sideways")


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            RateParams(k_ex=-1.0, k_f=1e8, k_isc=0, k0=1, km=1, kp=1)

    def test_eta_bounds(self):
        with pytest.raises(InvalidParameterError):
            RateParams(k_ex=1, k_f=1, k_isc=0, k0=1, km=1, kp=1, eta=0.0)
        with pytest.raises(InvalidParameterError):
            RateParams(k_ex=1, k_f=1, k_isc=0, k0=1, km=1, kp=1, eta=1.5)
