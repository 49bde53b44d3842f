"""Exit-code contract of the CLI under one-leaf config and data mutations.

Each pipeline starts from a small valid config and its input files.
Hypothesis replaces one node of the config (a value, a section, a list or a
list's first element) with a value drawn from a fixed set of malformed ones,
or changes one input file: one table cell, one sidecar key, or the table's
rows. main must return 0, 1 or 2 without raising or a LAPACK complaint; on 0
every JSON output must parse as strict JSON (no NaN or Infinity), and on 1 or
2 no file is written.
"""
import copy
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defectkit.cli import PIPELINES, main
from defectkit.datasets import write_table

BAD_VALUES = ["nan", "inf", "1e999", "x", None, [], {}, 0, -1, True, 1e300, 10**9]
# what a data mutation writes into a table cell (as text) or a sidecar key
DATA_VALUES = [1e300, -1e300, 0.0, -0.0, -1.0, 1e-300, 5e-324, "nan", True, None, []]
# the config keys naming each pipeline's tables
DATA_KEYS = {"odmr-fit": ["data"], "g2-fit": ["data"], "psb-deconvolve": ["band", "dos"]}


def _paths(node, path=()):
    """Every node below the root, and a list's first element."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[0], path + (0,))


def _replaced(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def base_configs(tmp_path_factory):
    """A small valid config for every pipeline, with its input files."""
    from defectkit.photodynamics import RateParams, correlation_components
    from defectkit.psb import OnePhononBand, SpectralBand, ZplShape, make_grid
    from defectkit.psb import synthesize_band
    from defectkit.spin_hamiltonian import ZfsParams, angular_sweep

    root = tmp_path_factory.mktemp("contract")
    angles = np.linspace(0.0, 180.0, 7)
    table = angular_sweep(ZfsParams(D=1135.0, E=139.0), 120.0, [0, 0, 1], angles)
    rows = np.array([(a, f, 1.0) for j, a in enumerate(angles)
                     for f in table.lines[0, j]])
    odmr = root / "odmr.txt"
    write_table(odmr, [rows[:, 0], rows[:, 1], rows[:, 2]],
                ["angle_deg", "freq_MHz", "sigma_MHz"])

    rates = RateParams(k_ex=2e6, k_f=9e7, k_isc=8e6,
                       k0=1 / 3000e-9, km=1 / 400e-9, kp=1 / 60e-9, eta=0.05)
    alphas, lam = correlation_components(rates)
    tau = np.arange(0.0, 8000.0, 16.0)
    g2 = 1.0 - np.exp(-np.outer(tau, lam * 1e-9)) @ alphas
    hist = root / "hist.txt"
    write_table(hist, [tau, (0.81 * g2 + 0.19) * 1e5], ["tau_ns", "counts"])
    Path(str(hist) + ".json").write_text(json.dumps(
        {"n1": 1e4, "n2": 1e4, "bin_width_ns": 16.0, "accumulation_time_s": 62.5,
         "rho": 0.9}))

    grid = make_grid(0.0, 100.0, 1.0)
    i1 = np.exp(-0.5 * ((grid - 50.0) / 10.0) ** 2)
    i1 *= np.clip(grid / 4.0, 0, 1) * np.clip((100.0 - grid) / 4.0, 0, 1)
    i1_band = OnePhononBand(SpectralBand(grid, i1).normalized(), cutoff_mev=100.0)
    shape = synthesize_band(i1_band, 1.0, ZplShape.delta(1.0))
    band = root / "band.txt"
    write_table(band, [shape.grid, shape.values], ["energy_meV", "intensity"])
    dos = root / "dos.txt"
    write_table(dos, [grid, i1], ["energy_meV", "dos"])

    configs = {
        "odmr-sim": {"D": 1135.0, "E": 139.0, "g": 2.0, "axes": np.eye(3).tolist(),
                     "sweep": {"magnitude_G": 100.0, "plane_normal": [0, 0, 1],
                               "angles_deg": {"start": 0, "stop": 180, "num": 5},
                               "orientations": "110-family"}},
        "odmr-fit": {"data": str(odmr), "magnitude_G": 120.0, "plane_normal": [0, 0, 1],
                     "init": {"D": 1130.0, "E": 140.0, "g": 2.0,
                              "axes": np.eye(3).tolist()},
                     "fit_orientation": False, "fit_tilt": False},
        "g2-fit": {"data": str(hist), "n_exp": 2, "rho": 0.9,
                   "units": {"bin_width_ns": 16.0}},
        "rates-extract": {"fit": {"alphas": alphas.tolist(),
                                  "taus_ns": (1e9 / lam).tolist(), "rho": 1.0},
                          "detected_rate": 1e4, "eta": 0.05},
        "power-sweep": {"rates": {"k_ex": 1e6, "k_f": 1e8, "k_isc": 5e7,
                                  "k0": 4.7e5, "km": 2.3e6, "kp": 4e6},
                        "sigma_cm2": 1e-17, "beta": 0.1, "wavelength_nm": 532.0,
                        "focal_area_cm2": 1e-8, "driven": "plus",
                        "powers": {"start": 1e-5, "stop": 1e-1, "num": 4}},
        "psb-synth": {"S": 2.0, "spacing_mev": 1.0, "cutoff_mev": 100.0, "n_max": 8,
                      "zpl": {"kind": "gaussian", "sigma_mev": 2.0},
                      "i1": {"gaussians": [{"center_mev": 50.0, "sigma_mev": 10.0,
                                            "weight": 1.0}]}},
        "psb-deconvolve": {"band": str(band), "dos": str(dos), "S": 1.0,
                           "zpl_window_mev": [-1.5, 1.5], "spacing_mev": 1.0,
                           "cutoff_mev": 100.0, "zpl": {"kind": "delta"},
                           "smooth_bins": 1, "taper_fraction": 0.05,
                           "max_iter": 3, "tol": 1e-6},
        "defect-classify": {"group": "C1h", "electron_counts": [4, 6],
                            "geometry": {"theta_deg": 50.0, "delta": 0.02},
                            "constraints": {"dipole_axes": ["z", "y"],
                                            "spin_axes": ["z", "y"],
                                            "require_coalignment": False}},
    }
    # a mutation only tests the contract if the config it starts from runs
    codes = {name: _run(name, cfg)[0] for name, cfg in configs.items()}
    assert codes == dict.fromkeys(PIPELINES, 0)
    return configs


def _run(pipeline, config):
    """main's exit code and, on 0, the text of each JSON output. A run that
    fails must leave --out empty."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code = main([pipeline, "--config", str(cfg), "--out", str(out)])
        written = sorted(p.name for p in out.glob("*"))
        outputs = {p.name: p.read_text() for p in out.glob("*.json")} if code == 0 else {}
    assert code == 0 or written == [], f"exit {code} left {written}"
    return code, outputs


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_node_mutation_keeps_exit_contract(base_configs, pipeline, data):
    base = base_configs[pipeline]
    path = data.draw(st.sampled_from(list(_paths(base))), label="path")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    code, outputs = _run(pipeline, _replaced(base, path, value))
    assert code in (0, 1, 2)
    for name, text in outputs.items():
        json.loads(text, parse_constant=_reject_constant)


def _mutated_table(data, src):
    """The header, rows and sidecar of table src, with one mutation drawn."""
    lines = Path(src).read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line.split() for line in lines if not line.startswith("#")]
    sidecar = Path(str(src) + ".json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else None
    kind = data.draw(st.sampled_from(["cell", "rows"] + ["key"] * (meta is not None)),
                     label="mutation")
    if kind == "cell":
        row = data.draw(st.integers(0, len(rows) - 1), label="row")
        col = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
        value = data.draw(st.sampled_from(DATA_VALUES), label="value")
        rows[row][col] = value if isinstance(value, str) else json.dumps(value)
    elif kind == "key":
        key = data.draw(st.sampled_from(sorted(meta)), label="key")
        meta[key] = data.draw(st.sampled_from(DATA_VALUES), label="value")
    else:
        shape = data.draw(st.sampled_from(["one-row", "reversed", "duplicated-row"]),
                          label="rows")
        if shape == "one-row":
            rows = rows[:1]
        elif shape == "reversed":
            rows = rows[::-1]
        else:
            row = data.draw(st.integers(0, len(rows) - 1), label="row")
            rows.insert(row, rows[row])
    return header, rows, meta


@pytest.mark.parametrize("pipeline", sorted(DATA_KEYS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_data_mutation_keeps_exit_contract(base_configs, capfd, pipeline, data):
    base = base_configs[pipeline]
    key = data.draw(st.sampled_from(DATA_KEYS[pipeline]), label="file")
    header, rows, meta = _mutated_table(data, base[key])
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / Path(base[key]).name
        table.write_text("\n".join(header + ["\t".join(row) for row in rows]) + "\n")
        if meta is not None:
            Path(str(table) + ".json").write_text(json.dumps(meta))
        capfd.readouterr()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, outputs = _run(pipeline, dict(base, **{key: str(table)}))
    out, err = capfd.readouterr()
    assert "Traceback" not in err and "DLASCL" not in out + err  # LAPACK's complaint
    assert code in (0, 1, 2)
    for name, text in outputs.items():
        json.loads(text, parse_constant=_reject_constant)
