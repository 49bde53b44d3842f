"""Output checks, run on every operation after its timer has stopped.

Each check returns a list of problems; an empty list means the answer is
right. Oracles are this benchmark's own numpy code (``inputs``) or, for the
analytic g2 overlay, the program's independent matrix-exponential
propagator. Bounds are fixed here, before any run:

- ODMR: max(|dD|, |dE|) against the planted values at most 5 MHz, the
  tolerance of the repository's ODMR acceptance criterion;
- g2: reduced chi-square of the fitted model counts at most 1.1 (more than
  5 standard deviations above 1 at 5 000 bins). When extract_rates returns,
  the analytic g2 of its rates stays within 0.05 of the fitted curve on the
  whole histogram grid (the fitted curves sit within about 0.012 of the
  planted one), matches the propagator to 1e-6 relative on 50 delays (the
  tolerance of acceptance criterion 3), and the rates keep the
  decay-constant sum and pair sum of the fit to 1e-6;
- PSB: relative L2 error of the recovered one-phonon band below 1.0, the
  error of an all-zero answer (the worst case over 200 operations of four
  seeds at the commit that added this benchmark was 0.69, at S above 4.2);
  the Huang-Rhys estimate equal, to 1e-9, to -ln of the ZPL share summed
  here on the same band. Its distance from the planted S is reported, not
  checked: negative noise clipped at ingestion biases it upward, by up to
  11% at the commit that added this benchmark.
"""
import json
from pathlib import Path

import numpy as np

import inputs

ODMR_ERR_BOUND_MHZ = 5.0
SWEEP_ORACLE_TOL_MHZ = 1e-6
G2_CHI2_MAX = 1.1
G2_ORACLE_RTOL = 1e-6
G2_VIETA_RTOL = 1e-6
G2_MODEL_DEV_MAX = 0.05
PSB_L2_BOUND = 1.0
PSB_S_RTOL = 1e-9
PSB_NORM_TOL = 1e-6


def odmr_error(out, truth):
    return max(abs(out["D"] - truth["D"]), abs(out["E"] - truth["E"]))


def check_odmr(out, truth, case):
    problems = []
    err = odmr_error(out, truth)
    if not err <= ODMR_ERR_BOUND_MHZ:
        problems.append(f"D/E error {err:.3g} MHz exceeds {ODMR_ERR_BOUND_MHZ} MHz")
    # the forward sweep of the fitted parameters against this module's own
    # eigen-solve
    lines = out["sweep_lines"]
    b = inputs.field_in_plane(case["magnitude_G"], np.linspace(0.0, 180.0, lines.shape[1]))
    for k, axes in enumerate(inputs.family_110()):
        dev = np.max(np.abs(lines[k] - inputs.odmr_lines(out["D"], out["E"], axes, b)))
        if not dev <= SWEEP_ORACLE_TOL_MHZ:
            problems.append(f"sweep orientation {k} off the oracle by {dev:.3g} MHz")
            break
    return problems


def g2_chi2_red(out):
    """Reduced chi-square of the fitted model counts against the histogram."""
    h, rho = out["hist"], out["rho"]
    denom = h.n1 * h.n2 * (h.bin_width_ns * 1e-9) * h.accumulation_time_s
    model = (rho**2 * out["fit"].evaluate(h.bin_centers) + 1.0 - rho**2) * denom
    dof = h.counts.size - 2 * out["fit"].taus.size
    return float(np.sum((h.counts - model) ** 2 / np.maximum(model, 1.0)) / dof)


def g2_model_deviation(out):
    """Largest gap between the analytic g2 of the extracted rates and the
    fitted curve on the histogram grid."""
    return float(np.max(np.abs(out["overlay"] - out["fit"].evaluate(out["overlay_tau_ns"]))))


def check_g2(out, truth, case, g2_numeric):
    """g2_numeric is the program's matrix-exponential propagator, the oracle
    for the analytic overlay."""
    problems = []
    chi2 = g2_chi2_red(out)
    if not chi2 <= G2_CHI2_MAX:
        problems.append(f"reduced chi-square {chi2:.4f} exceeds {G2_CHI2_MAX}")
    if out["refused"] or "rates" not in out:
        return problems
    rates = out["rates"]
    gap = g2_model_deviation(out)
    if not gap <= G2_MODEL_DEV_MAX:
        problems.append(f"g2 of the extracted rates off the fitted curve by {gap:.3g}")
    tau = out["overlay_tau_ns"]
    pick = np.linspace(0, tau.size - 1, 50).astype(int)
    want = g2_numeric(rates, tau[pick] * 1e-9)
    dev = np.abs(out["overlay"][pick] - want) / np.maximum(1.0, np.abs(want))
    if not np.max(dev) <= G2_ORACLE_RTOL:
        problems.append(f"g2_analytic off the propagator by {np.max(dev):.3g} (relative)")
    # the inversion keeps the decay-constant sum and pair sum of the fit
    # (Vieta); check them on this module's own characteristic polynomial
    r = {k: getattr(rates, k) for k in ("k_ex", "k_f", "k_isc", "k0", "km", "kp")}
    coeffs = np.poly(inputs.rate_matrix(r))
    lam = 1e9 / out["fit"].taus
    pairs = (lam.sum() ** 2 - np.sum(lam**2)) / 2.0
    for name, got, ref in (("sum", coeffs[1], lam.sum()), ("pair sum", coeffs[2], pairs)):
        if not abs(got - ref) <= G2_VIETA_RTOL * abs(ref):
            problems.append(f"extracted rates break the Vieta {name}: {got:.6g} vs {ref:.6g}")
    return problems


def psb_l2(out, truth):
    ref = np.asarray(truth["i1"])
    got = np.asarray(out["i1"])
    return float(np.sqrt(np.sum((got - ref) ** 2) / np.sum(ref**2)))


def psb_s_oracle(band, window):
    """-ln of the ZPL's share of the band, summed here independently."""
    lo, hi = window
    inside = (band.grid >= lo) & (band.grid <= hi)
    return float(-np.log(band.values[inside].sum() / band.values.sum()))


def check_psb(out, truth, case):
    problems = []
    want = psb_s_oracle(out["band"], case["zpl_window_mev"])
    if not abs(out["S"] - want) <= PSB_S_RTOL * want:
        problems.append(f"Huang-Rhys estimate {out['S']:.6f} vs {want:.6f} from the band")
    if out["refused"]:
        # a divergence documents that it carries its best iterate; other
        # typed refusals (a zero Fourier initializer, say) carry nothing
        best = out.get("best_iterate")
        if out["refused"] != "DivergenceError":
            return problems
        if best is None or abs(best.band.integral() - 1.0) > PSB_NORM_TOL:
            problems.append(f"{out['refused']} carries no unit-norm best iterate")
            return problems
    else:
        l2 = psb_l2(out, truth)
        if not l2 < PSB_L2_BOUND:
            problems.append(f"one-phonon L2 error {l2:.4f} not below {PSB_L2_BOUND}")
    norm = out["resynth"].integral()
    if not abs(norm - 1.0) <= PSB_NORM_TOL:
        problems.append(f"resynthesized band has norm {norm:.8f}")
    overlay = out["report"].overlay
    if not (np.all(np.isfinite(overlay)) and np.isclose(overlay[:, 1].max(), 1.0)):
        problems.append("critical-point overlay is not finite with a unit-max band")
    return problems


# ------------------------------------------------------------- CLI runs ----

def check_cli(pipeline, rc, outdir, expect):
    """Exit code 0 and the expected files, plus a content check per pipeline.

    ``expect`` is what the generator planted (see cli_inputs)."""
    if rc != 0:
        return [f"exit code {rc}"]
    outdir = Path(outdir)
    missing = [f for f in expect["files"] + ["manifest.json"] if not (outdir / f).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    if sorted(manifest["outputs"]) != sorted(expect["files"]):
        return [f"manifest lists {manifest['outputs']}"]
    kind = expect["check"]
    if kind == "bytes":
        if (outdir / expect["file"]).read_bytes() != Path(expect["expected"]).read_bytes():
            return [f"{expect['file']} differs from {expect['expected']}"]
    elif kind == "zero_field":
        got = np.loadtxt(outdir / "zero_field_lines.txt")
        if not np.allclose(got, expect["lines"], rtol=0, atol=1e-6):
            return [f"zero-field lines {got} vs {expect['lines']}"]
        rows = np.loadtxt(outdir / "sweep.txt")
        if rows.shape != (expect["sweep_rows"], 5):
            return [f"sweep table has shape {rows.shape}"]
    elif kind == "odmr":
        fit = json.loads((outdir / "odmr_fit.json").read_text())
        err = max(abs(fit["D_MHz"] - expect["D"]), abs(fit["E_MHz"] - expect["E"]))
        if not err <= ODMR_ERR_BOUND_MHZ:
            return [f"D/E error {err:.3g} MHz"]
    elif kind == "g2":
        fit = json.loads((outdir / "g2_fit.json").read_text())
        if len(fit["taus_ns"]) != 4 or not np.all(np.asarray(fit["taus_ns"]) > 0):
            return [f"g2 fit time constants {fit['taus_ns']}"]
    elif kind == "power":
        rows = np.loadtxt(outdir / "power_sweep.txt")
        if rows.shape != (expect["rows"], 5):
            return [f"power sweep has shape {rows.shape}"]
        if not np.allclose(rows[:, 1], expect["k_ex"], rtol=1e-8):
            return ["pump rates differ from sigma*I/E_photon"]
        if not np.allclose(rows[:, 3], expect["fluorescence"], rtol=1e-6):
            return ["fluorescence differs from the steady state of the rate matrix"]
    elif kind == "synth":
        meta = json.loads((outdir / "synth.json").read_text())
        if not abs(meta["norm"] - 1.0) <= PSB_NORM_TOL:
            return [f"synthesized norm {meta['norm']}"]
        band = np.loadtxt(outdir / "band.txt")
        d = band[1, 0] - band[0, 0]
        zpl = band[np.argmin(np.abs(band[:, 0])), 1] * d
        if not abs(zpl - np.exp(-expect["S"])) <= 1e-6:
            return [f"ZPL weight {zpl:.8f} vs exp(-S) {np.exp(-expect['S']):.8f}"]
    elif kind == "deconvolve":
        got = np.loadtxt(outdir / "one_phonon_band.txt")[:, 1]
        ref = np.asarray(expect["i1"])
        l2 = float(np.sqrt(np.sum((got - ref) ** 2) / np.sum(ref**2)))
        if not l2 < PSB_L2_BOUND:
            return [f"one-phonon L2 error {l2:.4f}"]
    elif kind == "classify":
        payload = json.loads((outdir / "classification.json").read_text())
        got = sorted((p["homo"], p["lumo"]) for p in payload["consistent_pairs"])
        if got != sorted(tuple(p) for p in expect["pairs"]):
            return [f"consistent pairs {got}"]
    return []
