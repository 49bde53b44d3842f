"""Seeded input generator for the benchmark workloads.

Every planted truth is computed here with plain numpy and never with the
defectkit function under test:

- ODMR lines from this module's own S=1 Hamiltonian and ``eigvalsh``;
- g2 curves from its own eigen-decomposition of the 5x5 rate matrix;
- phonon-sideband bands from its own Fourier-domain Poisson series.

The generator writes the same delimited text files and JSON sidecars that
``defectkit.datasets.ingest`` reads. Inputs of operation ``i`` depend only
on ``(seed, workload, i)``, so the same seed gives byte-identical files.

Continuous size and shape parameters follow a Kronecker (Weyl) sequence with
a seeded offset, so any prefix of operations covers each parameter range
evenly whatever the seed; noise and discrete choices come from a per-
operation random generator.
"""
import json
from pathlib import Path

import numpy as np

# Own copies of the physical constants (same CODATA values as the program).
MU_B_MHZ_PER_G = 1.39962449
HC_EV_NM = 1239.841984
PHONON_CUTOFF_MEV = 168.0

_WORKLOAD_CODES = {"odmr-fit": 1, "g2-rates": 2, "psb-deconvolve": 3, "cli-cold": 4}
# fractional parts of sqrt(p) for the first primes: one Weyl step per dimension
_WEYL_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0

# one-phonon grid sizes on [0, 168] meV whose spacing is an exact binary fraction
PSB_GRID_SIZES = (672, 768, 896, 1024, 1344, 1536, 1792, 2048)


def _rng(seed, workload, i):
    return np.random.default_rng([seed, _WORKLOAD_CODES[workload], i])


def _weyl(seed, workload, i):
    """Eight uniforms in [0, 1) for operation i, evenly spread over i."""
    offset = np.random.default_rng([seed, _WORKLOAD_CODES[workload]]).random(8)
    return (offset + i * _WEYL_STEPS) % 1.0


def _fmt(v):
    return f"{v:.12g}"


def _write_rows(path, header, columns):
    lines = ["# " + " ".join(header)]
    for row in zip(*columns):
        lines.append(" ".join(_fmt(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- ODMR ----

_SQ2 = 1.0 / np.sqrt(2.0)
_SX = np.array([[0, _SQ2, 0], [_SQ2, 0, _SQ2], [0, _SQ2, 0]], dtype=complex)
_SY = np.array([[0, -1j * _SQ2, 0], [1j * _SQ2, 0, -1j * _SQ2],
                [0, 1j * _SQ2, 0]], dtype=complex)
_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


def family_110():
    """The six <110> defect frames: z along <110>, x along the <100> axis
    perpendicular to it, y = z cross x."""
    triads = []
    for z in [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]:
        z = np.asarray(z, dtype=float) / np.sqrt(2.0)
        x = np.zeros(3)
        x[np.argmin(np.abs(z))] = 1.0
        triads.append(np.vstack([x, np.cross(z, x), z]))
    return triads


def odmr_lines(D, E, axes, b_vectors, g=2.0):
    """Ascending transition frequencies (MHz), one row per field vector."""
    b_def = np.asarray(b_vectors, dtype=float) @ np.asarray(axes).T
    gam = g * MU_B_MHZ_PER_G
    h0 = D * (_SZ @ _SZ - (2.0 / 3.0) * np.eye(3)) + E * (_SX @ _SX - _SY @ _SY)
    h = (h0[None] + gam * (b_def[:, 0, None, None] * _SX
                           + b_def[:, 1, None, None] * _SY
                           + b_def[:, 2, None, None] * _SZ))
    ev = np.linalg.eigvalsh(h)
    lines = np.stack([ev[:, 1] - ev[:, 0], ev[:, 2] - ev[:, 1], ev[:, 2] - ev[:, 0]], 1)
    return np.sort(lines, axis=1)


def field_in_plane(magnitude, angles_deg):
    """Field vectors rotated in the (001) plane, angle 0 along [100]."""
    rad = np.deg2rad(angles_deg)
    return magnitude * np.column_stack([np.cos(rad), np.sin(rad), np.zeros_like(rad)])


def odmr_case(seed, i, outdir, workload="odmr-fit", n_angles=None):
    """One ODMR line table plus the fit settings and the planted truth."""
    u = _weyl(seed, workload, i)
    rng = _rng(seed, workload, i)
    if n_angles is None:
        n_angles = 19 + int(u[0] * 73)  # 19..91
    magnitude = 80.0 + 70.0 * u[1]
    sigma = 0.5 + 1.5 * u[2]
    D = 1100.0 + 70.0 * u[3]
    E = 125.0 + 30.0 * u[4]
    # orientations cycle within each fit mode: two of the six <110> axes lie
    # in the rotation plane, and their frame-free fits cost 3-4x the others
    start = int(_weyl(seed, workload, 0)[5] * 6)
    orientation = (i // 3 + start) % 6
    axes = family_110()[orientation]
    angles = np.linspace(0.0, 180.0, n_angles)
    lines = odmr_lines(D, E, axes, field_in_plane(magnitude, angles))
    rows = []
    for j, a in enumerate(angles):
        keep = [0, 1, 2]
        if rng.random() < 0.25:
            for k in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
                keep.remove(int(k))
        for k in keep:
            rows.append((a, lines[j, k] + rng.normal(scale=sigma), sigma))
    rows = np.asarray(rows)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = outdir / "odmr.txt"
    _write_rows(table, ["angle_deg", "freq_MHz", "sigma_MHz"], rows.T)
    off = (2.0 + 3.0 * u[6:8]) * rng.choice([-1.0, 1.0], size=2)
    free_frame = i % 3 == 2  # one fit in three also frees orientation and tilt
    case = {
        "data": str(table),
        "magnitude_G": magnitude,
        "plane_normal": [0.0, 0.0, 1.0],
        "init": {"D": D + off[0], "E": E + off[1], "axes": axes.tolist()},
        "fit_orientation": free_frame,
        "fit_tilt": free_frame,
    }
    truth = {"D": D, "E": E, "sigma_MHz": sigma, "orientation": orientation,
             "n_angles": n_angles, "n_lines": len(rows)}
    _write_json(outdir / "case.json", case)
    return case, truth


# ------------------------------------------------------------------ g2 ----

# rates of the paper's reference centre (1/s)
G2_REFERENCE_RATES = {"k_ex": 2.5e6, "k_f": 8.0e7, "k_isc": 6.0e6,
                      "k0": 1 / 2120e-9, "km": 1 / 440e-9, "kp": 1 / 250e-9}


def rate_matrix(r):
    """5x5 generator d/dt p = M p, p ordered (s0, s1, t+, t-, t0); the
    optional excited-state absorption k_ex*beta feeds t0 from s1."""
    q = r["k_isc"] / 3.0
    esa = r["k_ex"] * r.get("beta", 0.0)
    return np.array([
        [-r["k_ex"], r["k_f"], r["kp"], r["km"], r["k0"]],
        [r["k_ex"], -(r["k_f"] + r["k_isc"] + esa), 0.0, 0.0, 0.0],
        [0.0, q, -r["kp"], 0.0, 0.0],
        [0.0, q, 0.0, -r["km"], 0.0],
        [0.0, q + esa, 0.0, 0.0, -r["k0"]],
    ])


def relaxation(r):
    """Eigen-decomposition of the rate matrix: (eigenvalues, V, V^-1, p_inf).

    Eigenvalues are sorted descending, so the stationary (zero) mode is
    first. Raises ValueError when the spectrum is not real.
    """
    lam, vec = np.linalg.eig(rate_matrix(r))
    if np.max(np.abs(lam.imag)) > 1e-9 * np.max(np.abs(lam)):
        raise ValueError("complex relaxation spectrum")
    order = np.argsort(-lam.real)
    lam, vec = lam.real[order], vec.real[:, order]
    p_inf = vec[:, 0] / vec[:, 0].sum()
    return lam, vec, np.linalg.inv(vec), p_inf


def g2_curve(r, tau_s):
    """g2(tau) = p_s1(tau | s0 at 0) / p_s1(inf) from the eigenmodes."""
    lam, vec, inv, p_inf = relaxation(r)
    p0 = np.zeros(5)
    p0[0] = 1.0
    coef = inv @ p0
    s1 = (np.exp(np.outer(tau_s, lam)) * coef) @ vec[1]
    return s1 / p_inf[1]


def _planted_rates(rng):
    """Rates jittered around the reference centre whose relaxation roots are
    real and separated: adjacent decay constants differ by at least the
    factor 1.5 (the reference centre's closest pair differs by 1.76)."""
    while True:
        r = {k: v * 10 ** rng.uniform(-0.1, 0.1) for k, v in G2_REFERENCE_RATES.items()}
        try:
            lam = relaxation(r)[0][1:]
        except ValueError:
            continue
        if np.all(lam[1:] / lam[:-1] >= 1.5):
            return r


def g2_case(seed, i, outdir, workload="g2-rates", n_bins=None):
    """One coincidence histogram, its sidecar and the planted rates."""
    u = _weyl(seed, workload, i)
    rng = _rng(seed, workload, i)
    width = round(2.0 + 6.0 * u[0], 2)
    if n_bins is None:
        n_bins = 5000 + int(u[1] * 5001)
    level = 10 ** (np.log10(3e3) + u[2] * np.log10(1e5 / 3e3))
    rho = 0.85 + 0.12 * u[3]
    eta = 0.02
    rates = _planted_rates(rng)
    k = np.arange(n_bins)
    tau_ns = k * width
    g2 = g2_curve(rates, tau_ns * 1e-9)
    counts = rng.poisson(level * (rho**2 * g2 + 1.0 - rho**2))
    n1 = n2 = 1e5
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    hist = outdir / "hist.txt"
    lines = ["# tau_ns counts"]
    lines += [f"{kk * width:.6f} {int(c)}" for kk, c in zip(k, counts)]
    hist.write_text("\n".join(lines) + "\n")
    _write_json(Path(str(hist) + ".json"), {
        "n1": n1, "n2": n2, "bin_width_ns": width,
        "accumulation_time_s": level / (n1 * n2 * width * 1e-9), "rho": rho,
    })
    p_inf = relaxation(rates)[3]
    case = {"data": str(hist), "n_exp": 4, "eta": eta,
            "detected_rate": eta * rates["k_f"] * p_inf[1]}
    truth = {"rates": rates, "level": level, "rho": rho, "n_bins": n_bins,
             "bin_width_ns": width}
    _write_json(outdir / "case.json", case)
    return case, truth


# ----------------------------------------------------------------- PSB ----

def one_phonon_band(rng, n):
    """Random one-phonon density on d*arange(n+1), d = 168/n, unit area."""
    d = PHONON_CUTOFF_MEV / n
    grid = d * np.arange(n + 1)
    vals = np.zeros(n + 1)
    for _ in range(int(rng.integers(2, 5))):
        c = rng.uniform(20.0, 150.0)
        w = rng.uniform(8.0, 30.0)
        vals += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((grid - c) / w) ** 2)
    vals *= np.clip(grid / 10.0, 0, 1) * np.clip((PHONON_CUTOFF_MEV - grid) / 10.0, 0, 1)
    return grid, vals / (vals.sum() * d)


def _poisson_order(s, tol):
    """Smallest n with Poisson(s) weight beyond n below tol."""
    term = np.exp(-s)
    tail = 1.0 - term
    n = 0
    while tail >= tol:
        n += 1
        term *= s / n
        tail -= term
    return n


def poisson_band(i1, s, d, n_out):
    """Band exp(-S) [delta + sum_n S^n/n! I1^(*n)] from the generating
    function F[I] = exp(-S) exp(S F[I1]) on a zero-padded grid (index 0 is
    w = 0, the delta carries 1/d). Returns n_out points."""
    size = 1 << int(np.ceil(np.log2(4 * n_out)))
    buf = np.zeros(size)
    buf[: i1.size] = i1
    spec = np.exp(-s) * np.exp(s * np.fft.rfft(buf) * d)
    return np.fft.irfft(spec, size)[:n_out] / d


def psb_case(seed, i, outdir, workload="psb-deconvolve", n_grid=None, s=None):
    """One emission spectrum on a wavelength axis, its sidecar, a DOS table
    and the planted one-phonon band."""
    u = _weyl(seed, workload, i)
    rng = _rng(seed, workload, i)
    if n_grid is None:
        n_grid = PSB_GRID_SIZES[int(u[0] * len(PSB_GRID_SIZES))]
    if s is None:
        s = 0.5 + 4.5 * u[1]
    d = PHONON_CUTOFF_MEV / n_grid
    _, i1 = one_phonon_band(rng, n_grid)
    # synthesize out to the order whose Poisson tail is below 1e-13, then
    # keep the band out to where less than 1e-9 of its weight remains
    n_span = (_poisson_order(s, 1e-13) + 1) * n_grid
    band = poisson_band(i1, s, d, n_span)
    tail = np.cumsum(band[::-1])[::-1] * d
    n_keep = int(np.argmax(tail < 1e-9)) or n_span
    band = np.clip(band[:n_keep], 0.0, None)
    margin = 40  # bins above the ZPL, empty apart from noise
    w = d * np.arange(-margin, n_keep)
    band = np.concatenate([np.zeros(margin), band])
    zpl_mev = d * np.round(max(2200.0 + 400.0 * u[2], w[-1] + 300.0) / d)
    photon = zpl_mev - w
    emission = band * photon**3
    sideband_max = np.max(emission[margin + 1:])
    emission = emission + rng.normal(scale=1e-3 * sideband_max, size=emission.size)
    wavelength = 1e3 * HC_EV_NM / photon  # ascending, since w ascends
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = outdir / "emission.txt"
    _write_rows(spec, ["wavelength_nm", "counts"], [wavelength, emission])
    _write_json(Path(str(spec) + ".json"), {
        "axis": "wavelength_nm", "zpl": 1e3 * HC_EV_NM / zpl_mev, "spacing_mev": d,
    })
    dos_grid = 0.5 * np.arange(int(PHONON_CUTOFF_MEV / 0.5) + 1)
    dos = np.zeros_like(dos_grid)
    for c, wd in ((70.0, 9.0), (120.0, 12.0), (150.0, 5.0)):
        dos += np.exp(-0.5 * ((dos_grid - c - rng.normal(scale=2.0)) / wd) ** 2)
    dos_path = outdir / "dos.txt"
    _write_rows(dos_path, ["energy_meV", "dos"], [dos_grid, dos])
    case = {"spectrum": str(spec), "dos": str(dos_path), "spacing_mev": d,
            "zpl_window_mev": [-2.5 * d, 2.5 * d]}
    truth = {"S": s, "n_grid": n_grid, "i1": i1.tolist()}
    _write_json(outdir / "case.json", case)
    return case, truth


# ------------------------------------------------------------ CLI runs ----

CLI_PIPELINES = ("odmr-sim", "odmr-fit", "g2-fit", "rates-extract", "power-sweep",
                 "psb-synth", "psb-deconvolve", "defect-classify")
RATES_FIXTURE = Path("tests") / "fixtures" / "rates_extract"
H_PLANCK_J_S = 6.62607015e-34
C_LIGHT_M_S = 2.99792458e8


def _stationary(r):
    lam, vec = np.linalg.eig(rate_matrix(r))
    p = vec[:, np.argmin(np.abs(lam))].real
    return p / p.sum()


def cli_case(seed, i, outdir, root="."):
    """Config and small inputs for the i-th run of the fixed pipeline cycle.

    Returns (pipeline, config path, expectation for checks.check_cli);
    root is the checkout holding the committed rates_extract fixture."""
    pipeline = CLI_PIPELINES[i % len(CLI_PIPELINES)]
    rng = _rng(seed, "cli-cold", i)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "config.json"
    if pipeline == "odmr-sim":
        D, E = rng.uniform(1100.0, 1170.0), rng.uniform(125.0, 155.0)
        cfg = {"D": D, "E": E, "sweep": {
            "magnitude_G": rng.uniform(80.0, 150.0), "orientations": "110-family",
            "angles_deg": {"start": 0.0, "stop": 180.0, "num": 361}}}
        expect = {"files": ["zero_field_lines.txt", "sweep.txt"], "check": "zero_field",
                  "lines": sorted([2 * E, D - E, D + E]), "sweep_rows": 6 * 361}
    elif pipeline == "odmr-fit":
        case, truth = odmr_case(seed, i, outdir, workload="cli-cold", n_angles=19)
        cfg = {k: case[k] for k in ("data", "magnitude_G", "init")}
        expect = {"files": ["odmr_fit.json", "odmr_residuals.txt"], "check": "odmr",
                  "D": truth["D"], "E": truth["E"]}
    elif pipeline == "g2-fit":
        case, _ = g2_case(seed, i, outdir, workload="cli-cold", n_bins=2000)
        cfg = {"data": case["data"], "n_exp": 4}
        expect = {"files": ["g2_fit.json"], "check": "g2"}
    elif pipeline == "rates-extract":
        fixture = Path(root) / RATES_FIXTURE
        config = fixture / "config.json"
        cfg = None
        expect = {"files": ["rates.json"], "check": "bytes", "file": "rates.json",
                  "expected": str(fixture / "expected_rates.json")}
    elif pipeline == "power-sweep":
        rates = {k: v * 10 ** rng.uniform(-0.1, 0.1) for k, v in G2_REFERENCE_RATES.items()}
        rates["eta"] = 0.02
        sigma, beta, wl, area = 1e-17, rng.uniform(0.05, 0.15), 532.0, 1e-8
        powers = np.geomspace(1e-5, 1e-1, 24)
        k_ex = sigma * (powers / area) / (H_PLANCK_J_S * C_LIGHT_M_S * 1e9 / wl)
        fl = [0.02 * rates["k_f"] * _stationary(dict(rates, k_ex=k, beta=beta))[1]
              for k in k_ex]
        cfg = {"rates": rates, "sigma_cm2": sigma, "beta": beta, "wavelength_nm": wl,
               "focal_area_cm2": area, "powers_w": powers.tolist()}
        expect = {"files": ["power_sweep.txt"], "check": "power", "rows": 24,
                  "k_ex": k_ex.tolist(), "fluorescence": fl}
    elif pipeline == "psb-synth":
        s = rng.uniform(0.5, 5.0)
        cfg = {"S": s, "spacing_mev": 0.5, "zpl": {"kind": "delta"}, "i1": {"gaussians": [
            {"center_mev": rng.uniform(40.0, 90.0), "sigma_mev": rng.uniform(8.0, 20.0)},
            {"center_mev": rng.uniform(100.0, 150.0), "sigma_mev": rng.uniform(5.0, 12.0),
             "weight": rng.uniform(0.2, 1.0)}]}}
        expect = {"files": ["band.txt", "synth.json"], "check": "synth", "S": s}
    elif pipeline == "psb-deconvolve":
        n = 336  # 0.5 meV spacing
        d = PHONON_CUTOFF_MEV / n
        _, i1 = one_phonon_band(rng, n)
        s = rng.uniform(0.5, 3.0)
        n_out = (_poisson_order(s, 1e-10) + 1) * n
        band = np.clip(poisson_band(i1, s, d, n_out), 0.0, None)
        _write_rows(outdir / "band.txt", ["energy_meV", "intensity"],
                    [d * np.arange(n_out), band])
        dos_grid = 0.5 * np.arange(n + 1)
        dos = sum(np.exp(-0.5 * ((dos_grid - c) / w) ** 2)
                  for c, w in ((70.0, 9.0), (120.0, 12.0), (150.0, 5.0)))
        _write_rows(outdir / "dos.txt", ["energy_meV", "dos"], [dos_grid, dos])
        cfg = {"band": str(outdir / "band.txt"), "dos": str(outdir / "dos.txt"), "S": s,
               "spacing_mev": d, "zpl": {"kind": "delta"}, "smooth_bins": 1,
               "taper_fraction": 0.02}
        expect = {"files": ["one_phonon_band.txt", "convergence.json",
                            "critical_points.json", "overlay.txt"],
                  "check": "deconvolve", "i1": i1.tolist()}
    else:  # defect-classify
        cfg = {"group": "C2v", "electron_counts": [4, 6],
               "constraints": {"dipole_axes": ["z", "y"], "spin_axes": ["z", "y"]},
               "geometry": {"delta": 0.02}}
        expect = {"files": ["classification.json", "classification.txt"],
                  "check": "classify", "pairs": [["a1", "b1"], ["a1'", "b2"]]}
    if cfg is not None:
        _write_json(config, cfg)
    return pipeline, str(config), expect
