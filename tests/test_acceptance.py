"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line on success (run with pytest -s to see
them; a failed criterion shows up as an ordinary pytest failure)."""
import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from defectkit.cli import main as cli_main
from defectkit.defect_model import (
    VacancyGeometry,
    C2V,
    candidate_filter,
    classify_pairs,
    spinspin_tensor,
    structure_shortlist,
    tilt_angle,
)
from defectkit.g2_processing import G2Fit
from defectkit.photodynamics import (
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
    power_sweep_model,
    quartic_roots,
)
from defectkit.psb import (
    OnePhononBand,
    SpectralBand,
    ZplShape,
    direct_fourier_deconvolve,
    iterative_deconvolve,
    synthesize_band,
)
from defectkit.spin_hamiltonian import (
    ZfsParams,
    angular_sweep,
    fit_odmr,
    orientation_family,
    zero_field_lines,
)
from oracles import direct_series

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_01_zero_field_lines():
    t0 = time.perf_counter()
    lines = zero_field_lines(ZfsParams(D=1135.0, E=139.0)).frequencies
    assert np.max(np.abs(lines - [278.0, 996.0, 1274.0])) < 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: zero-field lines {lines} MHz "
          f"within 0.5 MHz ({elapsed:.3f} s)")


def test_criterion_02_odmr_fit_roundtrip():
    t0 = time.perf_counter()
    truth = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[5])
    angles = np.linspace(0.0, 180.0, 37)
    table = angular_sweep(truth, 120.0, [0, 0, 1], angles)
    clean = np.array([
        (a, f, 1.0) for j, a in enumerate(angles) for f in table.lines[0, j]
    ])
    init = ZfsParams(D=1120.0, E=130.0, axes=truth.axes)

    res = fit_odmr(clean, init, 120.0)
    noiseless_err = max(abs(res.params.D - 1135.0), abs(res.params.E - 139.0))
    assert noiseless_err < 0.01

    rng = np.random.default_rng(2024)
    errors = []
    for _ in range(100):
        noisy = clean.copy()
        noisy[:, 1] += rng.normal(scale=1.0, size=len(noisy))
        fit = fit_odmr(noisy, init, 120.0)
        errors.append(max(abs(fit.params.D - 1135.0), abs(fit.params.E - 139.0)))
    median_err = float(np.median(errors))
    elapsed = time.perf_counter() - t0
    assert median_err < 5.0
    assert elapsed < 30.0
    print(f"PASS criterion 2: ODMR roundtrip noiseless {noiseless_err:.2e} MHz, "
          f"median noisy {median_err:.2f} MHz over 100 seeds ({elapsed:.1f} s)")


def _random_rates(rng, require_real=False, branch=False):
    while True:
        r = RateParams(*(10 ** rng.uniform(4, 9, size=6)))
        if branch and r.k_ex >= r.k_f + r.k_isc:
            continue
        roots = quartic_roots(characteristic_coefficients(r))
        gaps = [abs(roots[i] - roots[j]) for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) <= 1e-6 * np.max(np.abs(roots)):
            continue
        if require_real and np.max(np.abs(roots.imag)) > 0:
            continue
        return r


def test_criterion_03_g2_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    tau = np.logspace(-9, -4, 200)
    worst = 0.0
    for _ in range(50):
        r = _random_rates(rng)
        assert abs(g2_analytic(r, np.array([0.0]))[0]) < 1e-9
        diff = np.max(np.abs(g2_analytic(r, tau) - g2_numeric(r, tau)))
        worst = max(worst, diff)
        assert diff < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 3: analytic vs propagated g2 agree, worst "
          f"{worst:.2e} over 50 rate sets x 200 delays ({elapsed:.1f} s)")


def test_criterion_04_rate_inversion_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        r = _random_rates(rng, require_real=True, branch=True)
        alphas, lam = correlation_components(r)
        # Vieta residuals of the decay constants against the quartic
        c = characteristic_coefficients(r)
        s2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
        s3 = sum(lam[i] * lam[j] * lam[k] for i in range(4)
                 for j in range(i + 1, 4) for k in range(j + 1, 4))
        assert abs(lam.sum() - c.b) < 1e-8 * c.b
        assert abs(s2 - c.c) < 1e-8 * c.c
        assert abs(s3 - c.d) < 1e-8 * c.d
        assert abs(np.prod(lam) - c.e) < 1e-8 * c.e
        fit = G2Fit(alphas=alphas, taus=1e9 / lam)
        out = extract_rates(fit, detected=detected_rate(r), eta=r.eta)
        want = np.array([r.k_ex, r.k_f, r.k_isc, *np.sort([r.k0, r.km, r.kp])])
        got = np.array([out.k_ex, out.k_f, out.k_isc, out.k0, out.km, out.kp])
        rel = np.max(np.abs(got - want) / want)
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 4: rate inversion exact to {worst:.2e} relative "
          f"over 50 rate sets, Vieta residuals < 1e-8 ({elapsed:.1f} s)")


def test_criterion_05_power_independent_triplet_rates():
    base = RateParams(k_ex=0.0, k_f=8e7, k_isc=6e6,
                      k0=1 / 2120e-9, km=1 / 440e-9, kp=1 / 250e-9, beta=0.12)
    extracted = []
    for power in np.geomspace(1e-5, 1e-2, 10):
        k_ex = float(kex_from_power(power, 1e-17, 532.0, 1e-8))
        r = replace(base, k_ex=k_ex)
        alphas, lam = correlation_components(r)
        fit = G2Fit(alphas=alphas, taus=1e9 / lam)
        out = extract_rates(fit, detected=detected_rate(r), eta=1.0)
        extracted.append([out.k0, out.km, out.kp])
    extracted = np.asarray(extracted)
    spread = np.ptp(extracted, axis=0) / extracted.mean(axis=0)
    assert np.max(spread) < 1e-6
    print(f"PASS criterion 5: triplet depopulation rates vary {np.max(spread):.2e} "
          "relative across 10 pump powers")


def test_criterion_06_cross_section_and_beta_recovery():
    sigma, lam_nm, area = 1e-17, 532.0, 1e-8
    powers = np.linspace(1e-5, 2e-4, 10)
    kex = kex_from_power(powers, sigma, lam_nm, area)
    fit = absorption_cross_section(np.column_stack([powers, kex]), lam_nm, area)
    sigma_err = abs(fit.sigma_cm2 - sigma) / sigma
    assert sigma_err < 0.02

    beta = 0.1  # sigma_ESA = 1e-18 cm^2
    kex_pts = np.geomspace(1e5, 1e8, 10)
    esa = esa_fit(np.column_stack([kex_pts, 5e6 + beta * kex_pts]))
    beta_err = abs(esa.beta - beta) / beta
    assert beta_err < 0.01
    sigma_esa = esa_cross_section(esa.beta, fit.sigma_cm2)
    assert abs(sigma_esa - 1e-18) / 1e-18 < 0.03
    print(f"PASS criterion 6: sigma recovered to {sigma_err:.2e}, beta to "
          f"{beta_err:.2e}, sigma_ESA = {sigma_esa:.3e} cm^2")


def test_criterion_07_extended_model_phenomenology():
    base = RateParams(k_ex=0.0, k_f=1e8, k_isc=5e7,
                      k0=1 / 2120e-9, km=1 / 440e-9, kp=1 / 250e-9)
    powers = np.geomspace(1e-5, 1e0, 24)
    pts = power_sweep_model(base, 1e-17, 0.1, powers, 532.0, 1e-8)
    fluor = np.array([p.fluorescence for p in pts])
    contrast = np.array([p.contrast for p in pts])
    peak = int(np.argmax(fluor))
    assert 0 < peak < len(fluor) - 1, "fluorescence must rise then fall"
    assert np.all(np.diff(fluor[:peak]) > 0)
    assert np.all(np.diff(fluor[peak:]) < 0)
    assert np.all(np.diff(contrast) > 0), "contrast must grow with power"
    assert contrast[-1] >= 0.6
    print(f"PASS criterion 7: fluorescence peaks at {pts[peak].power_w:.2e} W "
          f"then falls; contrast monotone, reaching {contrast[-1]:.2f}")


def _random_i1(rng, n=2048, cutoff=168.0):
    d = cutoff / n
    grid = d * np.arange(n)
    vals = np.zeros(n)
    for _ in range(rng.integers(2, 5)):
        c = rng.uniform(20.0, 150.0)
        w = rng.uniform(8.0, 30.0)
        vals += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((grid - c) / w) ** 2)
    vals *= np.clip(grid / 10.0, 0, 1) * np.clip((cutoff - grid) / 10.0, 0, 1)
    return OnePhononBand(SpectralBand(grid, vals).normalized(), cutoff_mev=cutoff)


def test_criterion_08_psb_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst_l2, worst_dw, worst_conv, worst_iters = 0.0, 0.0, 0.0, 0
    for _ in range(20):
        i1 = _random_i1(rng)
        s = rng.uniform(0.5, 5.0)
        d = i1.band.spacing
        zpl = ZplShape.delta(d)
        band = synthesize_band(i1, s, zpl)

        zpl_idx = int(round(-band.grid[0] / d))
        dw_err = abs(band.values[zpl_idx] * d - np.exp(-s))
        worst_dw = max(worst_dw, dw_err)
        assert dw_err < 1e-6

        # the Fourier-domain series the pipelines run, through I2 = I1 (x) I1,
        # against direct summation
        two_phonon = synthesize_band(i1, s, zpl, n_max=2)
        direct = np.exp(-s) * direct_series(i1, s, zpl, 2).values
        conv_err = np.max(np.abs(two_phonon.values - direct))
        worst_conv = max(worst_conv, conv_err)
        assert conv_err < 1e-8

        init = direct_fourier_deconvolve(band, s, zpl)
        out, trace = iterative_deconvolve(band, s, zpl, init)
        assert trace.converged and trace.n_iter <= 20
        n = i1.values.size
        l2 = np.sqrt(np.sum((out.values[:n] - i1.values) ** 2)
                     / np.sum(i1.values**2))
        worst_l2 = max(worst_l2, l2)
        worst_iters = max(worst_iters, trace.n_iter)
        assert l2 < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 8: 20 PSB roundtrips, worst L2 {worst_l2:.2e}, "
          f"DW error {worst_dw:.2e}, conv check {worst_conv:.2e}, "
          f"<= {worst_iters} iterations ({elapsed:.1f} s)")


def test_criterion_09_poisson_comb():
    from math import factorial

    d, wp, s = 0.5, 40.0, 2.0
    grid = d * np.arange(int(168.0 / d))
    vals = np.zeros_like(grid)
    vals[int(wp / d)] = 1.0 / d
    i1 = OnePhononBand(SpectralBand(grid, vals))
    band = synthesize_band(i1, s, ZplShape.delta(d))
    start = int(round(band.grid[0] / d))
    worst = 0.0
    for n in range(9):
        weight = band.values[int(round(n * wp / d)) - start] * d
        err = abs(weight - np.exp(-s) * s**n / factorial(n))
        worst = max(worst, err)
        assert err < 1e-6
    print(f"PASS criterion 9: Poisson comb weights match to {worst:.2e} "
          "for n <= 8")


def test_criterion_10_symmetry_goldens():
    table = {
        ("a1", "a1'"): ("A1", "x", "x"),
        ("a1", "b1"): ("B1", "z", "z"),
        ("a1'", "b1"): ("B1", "z", "x"),
        ("a1", "b2"): ("B2", "y", "x"),
        ("a1'", "b2"): ("B2", "y", "y"),
        ("b1", "b2"): ("A2", "y", "x"),
    }
    geom = VacancyGeometry.tetrahedral(delta=0.02)
    records = classify_pairs(C2V, geom)
    for rec in records:
        irrep, dipole, spin = table[(rec.homo, rec.lumo)]
        assert rec.excited_irrep == irrep
        assert rec.dipole_axis == dipole
        assert rec.spin_major_axis == spin
        tensor = spinspin_tensor(rec.homo, rec.lumo, geom).matrix
        assert abs(np.trace(tensor)) < 1e-12 * np.linalg.norm(tensor)

    chosen = candidate_filter(records, dipole_axes=("z", "y"),
                              spin_axes=("z", "y"))
    assert {(r.homo, r.lumo) for r in chosen} == {("a1", "b1"), ("a1'", "b2")}

    assert [(s.label, s.symmetry) for s in structure_shortlist(4)] == [
        ("[Si]CV", "C1h"), ("[Si]V[Si]", "C2v")]
    assert [(s.label, s.symmetry) for s in structure_shortlist(6)] == [
        ("[O]CV", "C1h"), ("[N]-", "C1h"), ("[O]V[Si]", "C1h")]

    ratios = np.geomspace(1e-4, 1e-2, 9)
    scaled = []
    for rho in ratios:
        first, exact = tilt_angle(1.0, rho)
        scaled.append(abs(first - exact) / rho**2)
    scaled = np.asarray(scaled)
    assert np.max(scaled) < 1.0  # quadratic error constant stays bounded
    print(f"PASS criterion 10: orientation table, candidate filter and "
          f"structure shortlist reproduced; tilt error / (B/A)^2 <= "
          f"{np.max(scaled):.2f}")


def test_criterion_11_fixture_determinism(tmp_path):
    cfg = FIXTURES / "rates_extract" / "config.json"
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["rates-extract", "--config", str(cfg),
                         "--out", str(out)]) == 0
        digests.append(
            hashlib.sha256((out / "rates.json").read_bytes()).hexdigest()
        )
    assert digests[0] == digests[1]
    expected = (FIXTURES / "rates_extract" / "expected_rates.json").read_bytes()
    assert (tmp_path / "run1" / "rates.json").read_bytes() == expected
    print("PASS criterion 11: pipeline outputs byte-identical across runs "
          "and equal to the frozen fixture")
