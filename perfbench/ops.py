"""One operation of each warm workload, as a batch user would script it.

Each function takes the generated case, a tracer (spans.NullTracer when
untraced) and an output directory. It returns what the checks need and the
counts the program hands back. A typed ``DefectKitError`` that escapes
marks the operation refused. Two refusals are caught here because the
operation goes on: a failed rate inversion still leaves a fit to check, and
a PSB divergence still reports and resynthesizes the best iterate it
carries.
"""
from pathlib import Path

import numpy as np

from defectkit import g2_processing, photodynamics, psb, spin_hamiltonian
from defectkit.datasets import DatasetDescriptor, ingest, write_json, write_table
from defectkit.errors import DefectKitError

SWEEP_ANGLES = np.linspace(0.0, 180.0, 361)


def _write(t, out, fn, path, *args):
    t.call("datasets.write", fn, path, *args)
    out["write_bytes"] += Path(path).stat().st_size


def odmr_op(case, t, outdir):
    out = {"refused": None, "write_bytes": 0}
    observed = t.call("datasets.ingest", ingest,
                      DatasetDescriptor(path=case["data"], kind="odmr_table"))
    init = spin_hamiltonian.ZfsParams(D=case["init"]["D"], E=case["init"]["E"],
                                      axes=np.asarray(case["init"]["axes"]))
    fit = t.call("spin_hamiltonian.fit_odmr", spin_hamiltonian.fit_odmr,
                 observed, init, case["magnitude_G"], plane_normal=case["plane_normal"],
                 fit_orientation=case["fit_orientation"], fit_tilt=case["fit_tilt"])
    family = spin_hamiltonian.orientation_family()
    sweep = t.call("spin_hamiltonian.angular_sweep", spin_hamiltonian.angular_sweep,
                   fit.params, case["magnitude_G"], case["plane_normal"],
                   SWEEP_ANGLES, orientations=family)
    n_or, n_ang = sweep.lines.shape[:2]
    _write(t, out, write_table, Path(outdir) / "sweep.txt",
           [np.repeat(np.arange(n_or), n_ang), np.tile(sweep.angles_deg, n_or),
            *sweep.lines.reshape(-1, 3).T],
           ["orientation", "angle_deg", "f1_MHz", "f2_MHz", "f3_MHz"])
    _write(t, out, write_json, Path(outdir) / "odmr_fit.json",
           {"D_MHz": fit.params.D, "E_MHz": fit.params.E,
            "axes": fit.params.axes.tolist(), "rms_MHz": fit.rms_mhz,
            "n_iter": fit.n_iter})
    out.update(D=fit.params.D, E=fit.params.E, n_iter=fit.n_iter,
               sweep_lines=sweep.lines, eigensolves=n_or * n_ang)
    return out


def g2_op(case, t, outdir):
    out = {"refused": None, "write_bytes": 0}
    hist, rho = t.call("datasets.ingest", ingest,
                       DatasetDescriptor(path=case["data"], kind="g2_histogram"))
    cn = t.call("g2_processing.normalize", g2_processing.normalize, hist)
    curve = t.call("g2_processing.background_correct",
                   g2_processing.background_correct, cn, rho)
    res = t.call("g2_processing.fit_g2", g2_processing.fit_g2,
                 hist.bin_centers, curve, n_exp=case["n_exp"], counts=hist.counts,
                 rho=rho)
    out.update(hist=hist, rho=rho, fit=res.fit, nfev=res.n_evaluations,
               bins=int(hist.counts.size))
    payload = {"alphas": res.fit.alphas.tolist(), "taus_ns": res.fit.taus.tolist(),
               "rho": rho, "residual_rms": res.residual_rms}
    try:
        rates = t.call("photodynamics.extract_rates", photodynamics.extract_rates,
                       res.fit, detected=case["detected_rate"], eta=case["eta"])
    except DefectKitError as err:
        out["refused"] = type(err).__name__
        payload["refused"] = out["refused"]
    else:
        tau = hist.bin_centers[hist.bin_centers >= 0]
        overlay = t.call("photodynamics.g2_analytic", photodynamics.g2_analytic,
                         rates, tau * 1e-9)
        out.update(rates=rates, overlay_tau_ns=tau, overlay=overlay)
        payload["rates"] = {k: getattr(rates, k)
                            for k in ("k_ex", "k_f", "k_isc", "k0", "km", "kp")}
    _write(t, out, write_json, Path(outdir) / "g2_rates.json", payload)
    return out


def psb_op(case, t, outdir):
    out = {"refused": None, "write_bytes": 0}
    spectrum = t.call("datasets.ingest", ingest,
                      DatasetDescriptor(path=case["spectrum"], kind="emission_spectrum"))
    dos = t.call("datasets.ingest", ingest,
                 DatasetDescriptor(path=case["dos"], kind="dos_table"))
    band = t.call("psb.bandshape_from_emission", psb.bandshape_from_emission,
                  spectrum.band, spectrum.zpl_mev)
    s = t.call("psb.estimate_huang_rhys", psb.estimate_huang_rhys,
               band, tuple(case["zpl_window_mev"]))
    zpl = psb.ZplShape.delta(band.spacing)
    out.update(S=s, band=band)
    try:
        init = t.call("psb.direct_fourier_deconvolve", psb.direct_fourier_deconvolve,
                      band, s, zpl)
        smoothed = t.call("psb.smooth_and_taper", psb.smooth_and_taper, init.band)
        i1, trace = t.call("psb.iterative_deconvolve", psb.iterative_deconvolve,
                           band, s, zpl, smoothed)
    except DefectKitError as err:
        # a divergence refuses the answer but hands back the best iterate,
        # which the user still reports and resynthesizes
        out["refused"] = type(err).__name__
        trace = getattr(err, "diagnostics", None)
        i1 = out["best_iterate"] = getattr(err, "best_iterate", None)
        if i1 is None or trace is None:
            return out
    report = t.call("psb.critical_point_report", psb.critical_point_report, i1, dos)
    resynth = t.call("psb.synthesize_band", psb.synthesize_band, i1, s, zpl)
    _write(t, out, write_table, Path(outdir) / "one_phonon_band.txt",
           [i1.grid, i1.values], ["energy_meV", "density"])
    _write(t, out, write_json, Path(outdir) / "psb.json",
           {"S": s, "converged": trace.converged, "n_iter": trace.n_iter,
            "refused": out["refused"], "peaks_meV": [p.energy_mev for p in report.peaks],
            "resynthesis_norm": resynth.integral()})
    out.update(i1=i1.values, n_iter=trace.n_iter, resynth=resynth, report=report)
    return out


OPS = {"odmr-fit": odmr_op, "g2-rates": g2_op, "psb-deconvolve": psb_op}
