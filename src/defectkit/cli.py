"""Command-line pipelines tying the analysis modules together.

Every run takes a JSON config. Its pipeline returns {file name: content}, and
main writes that into --out with a manifest.json recording the command, input
digests, parameters, tool version and output list; a run that fails before
then writes nothing. Outputs are deterministic for identical inputs; the
timestamp lives only in the manifest. Exit codes: 0 success, 1 analysis
failure (non-convergence and friends), 2 usage or schema errors.

Each pipeline imports the analysis modules it calls when it runs, so a
fresh process compiles and executes only those; importing this module loads
none of them.
"""
import argparse
import json
import sys
import time
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .constants import DEFAULT_SPACING_MEV, DIAMOND_PHONON_CUTOFF_MEV
from .datasets import DatasetDescriptor, finite, ingest, sha256_of, write_outputs
from .errors import DefectKitError, InvalidParameterError, SchemaError

PIPELINES = {}

# The largest count a config may give. The costliest run it allows, psb-synth
# at n_max 1000 on a 100-point band, takes about a second and 60 MB.
MAX_COUNT = 1000


def _pipeline(name):
    def register(fn):
        PIPELINES[name] = fn
        return fn
    return register


def _cfg(config, key, default=KeyError, kind=None):
    """config[key] passed through kind; a missing or null key gives default.

    Config sections and values come straight from the user's JSON, so a
    section that is not an object, or a value that kind rejects, is a
    schema error rather than a traceback.
    """
    if not isinstance(config, dict):
        raise SchemaError(f"config section holding {key!r} must be a JSON object")
    value = config.get(key)
    if value is None:
        if default is KeyError:
            raise SchemaError(f"config missing required key {key!r}")
        return default
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"config key {key!r}: invalid value {value!r}") from None


def _given(config, **kinds):
    """{key: config[key] through kind} for each key of kinds that config gives.

    A missing or null key is left out, so the called function's own default
    holds; the CLI does not state a library default a second time.
    """
    return {key: _cfg(config, key, kind=kind) for key, kind in kinds.items()
            if _cfg(config, key, None) is not None}


def _read_json(path):
    """A JSON file with non-finite numbers refused; any failure is a SchemaError."""
    try:
        return json.loads(Path(path).read_text(),
                          parse_float=finite, parse_constant=finite)
    except (OSError, ValueError) as err:
        raise SchemaError(f"cannot read {path}: {err}") from None


def _floats(value):
    """A number or nested lists of numbers as a float array, each through finite."""
    items = np.array(value, dtype=object)  # keeps each JSON value, booleans too
    return np.array([finite(v) for v in items.ravel()]).reshape(items.shape)


def _float_pair(value):
    lo, hi = map(finite, value)
    return lo, hi


def _positive(value):
    number = finite(value)
    if number <= 0:
        raise ValueError(f"{value} is not positive")
    return number


def _count(value):
    """A whole number in [1, MAX_COUNT]; booleans and fractions are refused."""
    number = finite(value)
    if not number.is_integer() or not 1 <= number <= MAX_COUNT:
        raise ValueError(f"{value} is not a count in [1, {MAX_COUNT}]")
    return int(number)


def _triads(value):
    triads = _floats(value)
    if triads.ndim != 3 or triads.shape[1:] != (3, 3) or len(triads) == 0:
        raise ValueError("expected a non-empty list of 3x3 triads")
    return list(triads)


def _instance(cls):
    """The kind of a JSON value taken as it is, and only if it is a cls."""
    def check(value):
        if not isinstance(value, cls):
            raise TypeError(f"{value!r} is not a {cls.__name__}")
        return value
    return check


# a switch is a JSON true or false: "false", 0 and [0] switch nothing
_switch, _label, _section = _instance(bool), _instance(str), _instance(dict)


def _list_of(kind):
    """The kind of a JSON list whose every element passes through kind."""
    def convert(value):
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return [kind(v) for v in value]
    return convert


def _spaced(spec, spacing, kind):
    """spacing(start, stop, num) from a {start, stop, num} section, the ends through kind."""
    return spacing(_cfg(spec, "start", kind=kind), _cfg(spec, "stop", kind=kind),
                   _cfg(spec, "num", kind=_count))


def _ingest(inputs, path, kind, units=None):
    """ingest() of path as kind; path, and the sidecar where kind reads one, join inputs."""
    desc = DatasetDescriptor(path=path, kind=kind, units=units)
    inputs.append(path)
    sidecar = desc.sidecar_path()
    if sidecar is not None and sidecar.exists():
        inputs.append(str(sidecar))
    return ingest(desc)


def _zfs_from_config(config, key="init"):
    from . import spin_hamiltonian

    spec = _cfg(config, key, {}) if key else config
    return spin_hamiltonian.ZfsParams(
        D=_cfg(spec, "D", kind=finite),
        E=_cfg(spec, "E", kind=finite),
        **_given(spec, g=finite, axes=_floats),
    )


@_pipeline("odmr-sim")
def run_odmr_sim(config, inputs):
    from . import spin_hamiltonian

    p = _zfs_from_config(config, key=None)
    lines = spin_hamiltonian.zero_field_lines(p)
    outputs = {"zero_field_lines.txt": ([lines.frequencies], ["freq_MHz"])}
    sweep_cfg = _cfg(config, "sweep", None)
    if not sweep_cfg:
        return outputs
    angles = _cfg(sweep_cfg, "angles_deg")
    if isinstance(angles, list):
        angles = _cfg(sweep_cfg, "angles_deg", kind=_floats)
    else:
        angles = _spaced(angles, np.linspace, finite)
    orientations = _cfg(sweep_cfg, "orientations", "single")
    if orientations == "110-family":
        triads = spin_hamiltonian.orientation_family()
    elif orientations == "single":
        triads = [p.axes]
    else:
        triads = _cfg(sweep_cfg, "orientations", kind=_triads)
    table = spin_hamiltonian.angular_sweep(
        p,
        magnitude=_cfg(sweep_cfg, "magnitude_G", kind=finite),
        plane_normal=_cfg(sweep_cfg, "plane_normal", [0, 0, 1], _floats),
        angles_deg=angles,
        orientations=triads,
    )
    n_or, n_ang = table.lines.shape[:2]
    outputs["sweep.txt"] = (
        [np.repeat(np.arange(n_or), n_ang), np.tile(table.angles_deg, n_or),
         *table.lines.reshape(-1, 3).T],
        ["orientation", "angle_deg", "f1_MHz", "f2_MHz", "f3_MHz"],
    )
    return outputs


@_pipeline("odmr-fit")
def run_odmr_fit(config, inputs):
    from . import spin_hamiltonian

    data_path = _cfg(config, "data", kind=str)
    options = dict(
        init=_zfs_from_config(config, key="init"),
        magnitude=_cfg(config, "magnitude_G", kind=finite),
        **_given(config, plane_normal=_floats, fit_orientation=_switch,
                 fit_tilt=_switch),
    )
    observed = _ingest(inputs, data_path, "odmr_table")
    result = spin_hamiltonian.fit_odmr(observed, **options)
    errs = np.sqrt(np.clip(np.diag(result.covariance), 0.0, None))
    return {
        "odmr_fit.json": {
            "D_MHz": result.params.D,
            "E_MHz": result.params.E,
            "param_names": list(result.param_names),
            "param_sigma": errs.tolist(),
            "axes": result.params.axes.tolist(),
            "rms_MHz": result.rms_mhz,
            "n_iter": result.n_iter,
        },
        "odmr_residuals.txt": ([observed[:, 0], observed[:, 1], result.residuals],
                               ["angle_deg", "freq_MHz", "residual_MHz"]),
    }


@_pipeline("g2-fit")
def run_g2_fit(config, inputs):
    from . import g2_processing

    options = _given(config, n_exp=_count)
    hist, rho = _ingest(inputs, _cfg(config, "data", kind=str), "g2_histogram",
                        _cfg(config, "units", None, _section))
    rho = _cfg(config, "rho", rho, finite)
    curve = g2_processing.background_correct(g2_processing.normalize(hist), rho)
    result = g2_processing.fit_g2(
        hist.bin_centers,
        curve,
        counts=hist.counts,
        rho=rho,
        **options,
    )
    return {"g2_fit.json": {
        "alphas": result.fit.alphas.tolist(),
        "taus_ns": result.fit.taus.tolist(),
        "rho": result.fit.rho,
        "alpha_sigma": result.alpha_err.tolist(),
        "tau_sigma_ns": result.tau_err.tolist(),
        "residual_rms": result.residual_rms,
        "jacobian_condition": result.jacobian_condition,
    }}


@_pipeline("rates-extract")
def run_rates_extract(config, inputs):
    from . import g2_processing, photodynamics

    fit_path = _cfg(config, "fit_file", None, str)
    if fit_path is not None:
        inputs.append(fit_path)
        payload = _read_json(fit_path)
    else:
        payload = _cfg(config, "fit")
    fit = g2_processing.G2Fit(
        alphas=_cfg(payload, "alphas", kind=_floats),
        taus=_cfg(payload, "taus_ns", kind=_floats),
        **_given(payload, rho=finite),
    )
    rates = photodynamics.extract_rates(
        fit,
        detected=_cfg(config, "detected_rate", kind=finite),
        eta=_cfg(config, "eta", kind=finite),
    )
    return {"rates.json": asdict(rates)}


@_pipeline("power-sweep")
def run_power_sweep(config, inputs):
    from . import photodynamics

    rates = _cfg(config, "rates")  # each rate through finite, required unless defaulted
    base = photodynamics.RateParams(**{
        f.name: _cfg(rates, f.name, KeyError if f.default is MISSING else f.default, finite)
        for f in fields(photodynamics.RateParams)})
    powers = _cfg(config, "powers_w", None, _floats)
    if powers is None:
        powers = _spaced(_cfg(config, "powers"), np.geomspace, _positive)
    points = photodynamics.power_sweep_model(
        base,
        sigma_cm2=_cfg(config, "sigma_cm2", kind=finite),
        beta=_cfg(config, "beta", 0.0, finite),
        powers_w=powers,
        wavelength_nm=_cfg(config, "wavelength_nm", kind=finite),
        focal_area_cm2=_cfg(config, "focal_area_cm2", kind=finite),
        **_given(config, driven=None),
    )
    return {"power_sweep.txt": (
        [[getattr(p, name) for p in points]
         for name in ("power_w", "k_ex", "k_isc", "fluorescence", "contrast")],
        ["power_W", "kex", "kisc", "counts", "contrast"])}


def _zpl_from_config(config, spacing):
    from . import psb

    spec = _cfg(config, "zpl", {})
    kind = _cfg(spec, "kind", "delta")
    if kind == "delta":
        return psb.ZplShape.delta(spacing)
    if kind == "gaussian":
        return psb.ZplShape.gaussian(spacing, _cfg(spec, "sigma_mev", kind=finite))
    raise SchemaError("zpl kind must be delta or gaussian")


def _spacing_cutoff(config):
    return (_cfg(config, "spacing_mev", DEFAULT_SPACING_MEV, finite),
            _cfg(config, "cutoff_mev", DIAMOND_PHONON_CUTOFF_MEV, finite))


def _i1_from_config(config, inputs):
    from . import psb

    spacing, cutoff = _spacing_cutoff(config)
    i1_path = _cfg(config, "i1_file", None, str)
    if i1_path is not None:
        band = _ingest(inputs, i1_path, "dos_table", {"spacing_mev": spacing})
        return psb.smooth_and_taper(band, cutoff, smooth_bins=1), spacing, cutoff
    spec = _cfg(config, "i1")
    grid = psb.make_grid(0.0, cutoff, spacing)
    vals = np.zeros_like(grid)
    for g in _cfg(spec, "gaussians", kind=_list_of(_section)):
        center = _cfg(g, "center_mev", kind=finite)
        x = (grid - center) / _cfg(g, "sigma_mev", kind=_positive)
        vals += _cfg(g, "weight", 1.0, finite) * np.exp(-0.5 * x**2)
    ramp = np.clip(grid / (4 * spacing), 0, 1) * np.clip((cutoff - grid) / (4 * spacing), 0, 1)
    band = psb.SpectralBand(grid, vals * ramp).normalized()
    return psb.OnePhononBand(band, cutoff_mev=cutoff), spacing, cutoff


@_pipeline("psb-synth")
def run_psb_synth(config, inputs):
    from . import psb

    i1, spacing, cutoff = _i1_from_config(config, inputs)
    s = _cfg(config, "S", kind=finite)
    zpl = _zpl_from_config(config, spacing)
    n_max = _cfg(config, "n_max", None, _count) or psb.poisson_n_max(s)
    band = psb.synthesize_band(i1, s, zpl, n_max=n_max)
    return {
        "band.txt": ([band.grid, band.values], ["energy_meV", "intensity"]),
        "synth.json": {
            "S": s,
            "n_max": n_max,
            "truncation_bound": psb.poisson_truncation_bound(s, n_max),
            "norm": band.integral(),
            "zpl_weight": np.exp(-s),
        },
    }


@_pipeline("psb-deconvolve")
def run_psb_deconvolve(config, inputs):
    from . import psb

    spacing, cutoff = _spacing_cutoff(config)
    spectrum_path = _cfg(config, "spectrum", None, str)
    if spectrum_path is not None:
        spectrum = _ingest(inputs, spectrum_path, "emission_spectrum",
                           dict(_cfg(config, "units", {}, _section), spacing_mev=spacing))
        band = psb.bandshape_from_emission(spectrum.band, spectrum.zpl_mev)
    else:
        band = _ingest(inputs, _cfg(config, "band", kind=str), "dos_table",
                       {"spacing_mev": spacing}).normalized()
    s = _cfg(config, "S", None, finite)
    if s is None:
        s = psb.estimate_huang_rhys(band, _cfg(config, "zpl_window_mev", kind=_float_pair))
    zpl = _zpl_from_config(config, band.spacing)
    init = psb.direct_fourier_deconvolve(band, s, zpl, cutoff_mev=cutoff)
    smoothed = psb.smooth_and_taper(
        init.band, cutoff, **_given(config, smooth_bins=_count, taper_fraction=finite))
    i1, trace = psb.iterative_deconvolve(
        band, s, zpl, smoothed, **_given(config, max_iter=_count, tol=finite))
    outputs = {
        "one_phonon_band.txt": ([i1.grid, i1.values], ["energy_meV", "density"]),
        "convergence.json": {
            "S": s,
            "converged": trace.converged,
            "n_iter": trace.n_iter,
            "step_l2": trace.step_l2,
            "resynthesis_l2": trace.resync_l2,
        },
    }
    dos_path = _cfg(config, "dos", None, str)
    if dos_path is not None:
        report = psb.critical_point_report(i1, _ingest(inputs, dos_path, "dos_table"))
        outputs["critical_points.json"] = {"peaks": [asdict(p) for p in report.peaks]}
        outputs["overlay.txt"] = (report.overlay.T, ["energy_meV", "one_phonon", "dos"])
    return outputs


@_pipeline("defect-classify")
def run_defect_classify(config, inputs):
    from . import defect_model

    group = defect_model.point_group(_cfg(config, "group", "C2v"))
    geo_cfg = _cfg(config, "geometry", {})
    options = _given(geo_cfg, delta=finite)
    theta = _cfg(geo_cfg, "theta_deg", None, finite)
    if theta is not None:
        geom = defect_model.VacancyGeometry(theta, **options)
    else:
        geom = defect_model.VacancyGeometry.tetrahedral(**options)
    records = defect_model.classify_pairs(group, geom)
    constraints = _cfg(config, "constraints", None)
    selected = records
    if constraints is not None:
        selected = defect_model.candidate_filter(records, **_given(
            constraints, dipole_axes=_list_of(_label), spin_axes=_list_of(_label),
            require_coalignment=_switch))
    counts = _cfg(config, "electron_counts", [4, 6], _list_of(_count))
    structures = {
        str(n): [asdict(s) for s in defect_model.structure_shortlist(n)]
        for n in counts
    }
    lines = [
        f"point group: {group.name}",
        "",
        f"{'(HOMO, LUMO)':16s} {'irrep':6s} {'dipole':8s} {'spin axis':9s}",
    ]
    for r in records:
        dip = r.dipole_axis + ("" if r.dipole_allowed else " (forbidden)")
        lines.append(f"({r.homo}, {r.lumo})".ljust(16)
                     + f" {r.excited_irrep:6s} {dip:8s} {r.spin_major_axis:9s}")
    lines += ["", "consistent pairs: "
              + ", ".join(f"({r.homo}, {r.lumo})" for r in selected)]
    for n, entries in structures.items():
        lines.append(f"{n}-electron structures: "
                     + ", ".join(f"{e['label']} ({e['symmetry']})" for e in entries))
    return {
        "classification.json": {
            "group": group.name,
            "pairs": [asdict(r) for r in records],
            "consistent_pairs": [asdict(r) for r in selected],
            "structures": structures,
        },
        "classification.txt": "\n".join(lines) + "\n",
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="defectkit",
        description="Analysis pipelines for singlet-ground-state color centers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in sorted(PIPELINES):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    inputs = [args.config]
    try:
        config = _read_json(args.config)
        if not isinstance(config, dict):
            raise SchemaError("config must be a JSON object")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise SchemaError(f"cannot use --out {args.out}: {err}") from None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outputs = PIPELINES[args.pipeline](config, inputs)
            finally:  # each distinct message once, in order
                warned = list(dict.fromkeys(str(w.message) for w in caught))
                for message in warned:
                    print(f"defectkit: {args.pipeline}: warning: {message}", file=sys.stderr)
        manifest = {
            "command": args.pipeline,
            "tool_version": __version__,
            "parameters": config,
            "inputs": {str(p): sha256_of(p) for p in inputs},
            "outputs": sorted(outputs),
            "warnings": warned,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        write_outputs(outdir, {**outputs, "manifest.json": manifest})
    except DefectKitError as err:
        print(f"defectkit: {args.pipeline}: {err}", file=sys.stderr)
        # malformed configs and data are usage problems, not analysis ones
        return 2 if isinstance(err, (SchemaError, InvalidParameterError)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
