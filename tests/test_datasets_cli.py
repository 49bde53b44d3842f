import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from defectkit.cli import main
from defectkit.datasets import (
    DatasetDescriptor,
    EmissionSpectrum,
    ingest,
    read_table,
    write_json,
    write_table,
)
from defectkit.errors import DefectKitError, SchemaError

FIXTURES = Path(__file__).parent / "fixtures"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestReadTable:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "odmr.txt"
        p.write_text("# angle freq sigma\n0 278 1\n10,280,1\n20\t285\t1\n")
        data = read_table(p, 3)
        assert data.shape == (3, 3)
        assert data[1, 1] == 280.0

    def test_corrupt_row_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 278 1\n10 oops 1\n")
        with pytest.raises(SchemaError, match="bad.txt:2"):
            read_table(p, 3)

    def test_wrong_width_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 278 1\n10 280\n")
        with pytest.raises(SchemaError, match=":2"):
            read_table(p, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="does not exist"):
            read_table(tmp_path / "nope.txt", 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_names_line(self, tmp_path, value):
        p = tmp_path / "bad.txt"
        p.write_text(f"0 278 1\n10 {value} 1\n")
        with pytest.raises(SchemaError, match="bad.txt:2: non-finite"):
            read_table(p, 3)

    @pytest.mark.parametrize("content, min_cols, max_cols", [
        (b"# angle freq\n1 2\n3 4\n", 2, None),
        (b"1 2 # note\n3 4#x\n#\n", 2, None),
        (b"\n1 2\n\n3 4\n\n", 2, None),
        (b"1 2\n   \n\t \n3 4\n", 2, None),
        (b"1\t2\n3\t4\n", 2, None),
        (b" 1 \t 2\t\n\t3    4 \n", 2, None),
        (b"1,2\n3, 4\n", 2, None),
        (b"1.5 -2.5 3\n", 2, 3),
        (b"1\n2\n", 2, None),
        (b"1 2\n3 4 5\n", 2, 3),
        (b"1 2\n3\n", 2, None),
        (b"1 2\nnan 3\n", 2, None),
        (b"1 2\n3 inf\n", 2, None),
        (b"-inf 2\n", 2, None),
        (b"1_0 2\n", 2, None),
        (b"0x10 2\n", 2, None),
        (b"+1.5 .5\n1. 1e-320\n", 2, None),
        (b"-0.0 123456789012\n", 2, None),
        (b"1 2\r\n3 4\r\n", 2, None),
        (b"1 2\r3 4\r", 2, None),
        (b"1 2\x0b3 4\n", 2, None),
        (b"1 2\x0c\n3\x0c4\n", 2, None),
        ("1\u00a02\n".encode(), 2, None),
        (b"", 2, None),
        (b"# a\n# b\n", 2, None),
    ], ids=["full-line-comment", "inline-comment", "blank-lines", "whitespace-lines",
            "tabs", "mixed-whitespace", "commas", "single-row", "single-column",
            "ragged", "short-row", "nan", "inf", "minus-inf", "underscore", "hex",
            "float-spellings", "negative-zero", "crlf", "cr", "vertical-tab",
            "form-feed", "non-breaking-space", "empty", "comment-only"])
    def test_fast_path_matches_python_parser(self, tmp_path, content, min_cols,
                                             max_cols):
        from defectkit.datasets import _parse_table
        p = tmp_path / "t.txt"
        p.write_bytes(content)
        try:
            want = _parse_table(p, p.read_text(), min_cols, max_cols or min_cols)
        except SchemaError as err:
            with pytest.raises(SchemaError) as got:
                read_table(p, min_cols, max_cols)
            assert str(got.value) == str(err)
        else:
            got = read_table(p, min_cols, max_cols)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compression_suffix_read_as_text(self, tmp_path, suffix):
        # np.loadtxt decompresses a path with this suffix; a table is text
        p = tmp_path / f"t{suffix}"
        p.write_text("1 2\n3 4\n")
        assert read_table(p, 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_plain_table_skips_python_parser(self, tmp_path, monkeypatch):
        from defectkit import datasets
        p = tmp_path / "t.txt"
        p.write_text("# x\ty\n1\t2 # one\n\n3.5 -4e-3\n")

        def refuse(*args):
            raise AssertionError("the line-by-line parser ran")

        monkeypatch.setattr(datasets, "_parse_table", refuse)
        assert read_table(p, 2).tolist() == [[1.0, 2.0], [3.5, -4e-3]]


def _fstring_write_table(path, columns, header):
    """The per-value f-string formatter write_table used to run."""
    arrays = [np.asarray(c, dtype=float) for c in columns]
    lines = ["# " + "\t".join(header)]
    for row in zip(*arrays):
        lines.append("\t".join(f"{v:.10g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


class TestWriteTable:
    def test_bytes_match_fstring_formatter(self, tmp_path):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
             123456789012.0, -987654321098.7, 999999999999.5, 1e10, 12345678901.25],
            rng.normal(size=40) * 10.0 ** rng.integers(-12, 13, size=40),
        ])
        columns = [np.arange(values.size), values, values[::-1], values * 1e-7]
        header = ["index", "value", "reversed", "scaled"]
        write_table(tmp_path / "new.txt", columns, header)
        _fstring_write_table(tmp_path / "old.txt", columns, header)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_writes_nothing(self, tmp_path, bad):
        out = tmp_path / "t.txt"
        with pytest.raises(DefectKitError, match="t.txt: not written"):
            write_table(out, [[1.0, 2.0], [3.0, bad]], ["x", "y"])
        assert not out.exists()


class TestWriteJson:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.float64(-np.inf)])
    def test_non_finite_value_writes_nothing(self, tmp_path, bad):
        out = tmp_path / "r.json"
        with pytest.raises(DefectKitError, match="r.json: not written"):
            write_json(out, {"ok": 1.0, "nested": {"bad": [bad]}})
        assert not out.exists()


class TestIngest:
    def test_odmr_table(self, tmp_path):
        p = tmp_path / "odmr.txt"
        write_table(p, [np.arange(5.0), 1000 + np.arange(5.0), np.ones(5)],
                    ["angle_deg", "freq_MHz", "sigma_MHz"])
        data = ingest(DatasetDescriptor(path=str(p), kind="odmr_table"))
        assert data.shape == (5, 3)

    def test_odmr_table_default_sigma(self, tmp_path):
        p = tmp_path / "odmr.txt"
        p.write_text("0 996\n10 1000\n")
        data = ingest(DatasetDescriptor(path=str(p), kind="odmr_table"))
        assert np.all(data[:, 2] == 1.0)

    def test_wavelength_spectrum_converted_and_reordered(self, tmp_path):
        p = tmp_path / "spec.txt"
        wl = np.linspace(550.0, 750.0, 400)  # ascending wavelength
        counts = np.exp(-0.5 * ((wl - 620.0) / 25.0) ** 2)
        write_table(p, [wl, counts], ["wavelength_nm", "counts"])
        Path(str(p) + ".json").write_text(json.dumps(
            {"axis": "wavelength_nm", "zpl": 555.0, "spacing_mev": 1.0}))
        spec = ingest(DatasetDescriptor(path=str(p), kind="emission_spectrum"))
        assert isinstance(spec, EmissionSpectrum)
        assert np.all(np.diff(spec.band.grid) > 0)
        # 1239.842 eV nm in meV
        assert np.isclose(spec.zpl_mev, 1e3 * 1239.841984 / 555.0, rtol=1e-9)
        assert spec.band.grid[0] >= 1e3 * 1239.841984 / 750.0 - 1.0

    def test_non_monotone_axis_rejected(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("550 1\n600 2\n580 3\n")
        Path(str(p) + ".json").write_text(json.dumps(
            {"axis": "wavelength_nm", "zpl": 555.0}))
        with pytest.raises(SchemaError, match="monotone"):
            ingest(DatasetDescriptor(path=str(p), kind="emission_spectrum"))

    def test_sidecar_missing_keys(self, tmp_path):
        p = tmp_path / "hist.txt"
        p.write_text("0 10\n1 12\n")
        Path(str(p) + ".json").write_text(json.dumps({"n1": 1e5}))
        with pytest.raises(SchemaError, match="missing keys"):
            ingest(DatasetDescriptor(path=str(p), kind="g2_histogram"))

    def test_g2_histogram(self, tmp_path):
        p = tmp_path / "hist.txt"
        write_table(p, [np.arange(32.0), np.full(32, 7.0)], ["tau_ns", "counts"])
        Path(str(p) + ".json").write_text(json.dumps(
            {"n1": 1e5, "n2": 1e5, "bin_width_ns": 1.0,
             "accumulation_time_s": 10.0, "rho": 0.9}))
        hist, rho = ingest(DatasetDescriptor(path=str(p), kind="g2_histogram"))
        assert rho == 0.9
        assert hist.counts.sum() == 32 * 7

    @pytest.mark.parametrize("key, value", [
        ("n1", "x"), ("n2", None), ("bin_width_ns", float("nan")),
        ("accumulation_time_s", float("inf")), ("rho", [0.9]), ("n1", True),
    ])
    def test_g2_sidecar_bad_number_names_key(self, tmp_path, key, value):
        p = tmp_path / "hist.txt"
        p.write_text("0 10\n1 12\n")
        meta = {"n1": 1e5, "n2": 1e5, "bin_width_ns": 1.0, "accumulation_time_s": 10.0}
        meta[key] = value
        Path(str(p) + ".json").write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=f"sidecar key '{key}': invalid value"):
            ingest(DatasetDescriptor(path=str(p), kind="g2_histogram"))

    @pytest.mark.parametrize("key, value", [
        ("zpl", "x"), ("zpl", float("-inf")), ("spacing_mev", float("nan")),
    ])
    def test_emission_sidecar_bad_number_names_key(self, tmp_path, key, value):
        p = tmp_path / "spec.txt"
        p.write_text("700 1\n710 2\n720 1\n")
        meta = {"axis": "wavelength_nm", "zpl": 700.0}
        meta[key] = value
        Path(str(p) + ".json").write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=f"sidecar key '{key}': invalid value"):
            ingest(DatasetDescriptor(path=str(p), kind="emission_spectrum"))

    def test_sidecar_not_an_object(self, tmp_path):
        p = tmp_path / "hist.txt"
        p.write_text("0 10\n1 12\n")
        Path(str(p) + ".json").write_text("[1e5, 1e5, 1.0, 10.0]")
        with pytest.raises(SchemaError, match="sidecar must be a JSON object"):
            ingest(DatasetDescriptor(path=str(p), kind="g2_histogram"))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            DatasetDescriptor(path="x", kind="mystery")


class TestCliOdmrSim:
    def test_zero_field_reference_lines(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 1135.0, "E": 139.0}))
        out = tmp_path / "run"
        assert main(["odmr-sim", "--config", str(cfg), "--out", str(out)]) == 0
        lines = read_table(out / "zero_field_lines.txt", 1)
        assert np.allclose(lines.ravel(), [278.0, 996.0, 1274.0], atol=0.5)

    def test_negative_d_zero_field_lines(self, tmp_path):
        # an oblate ZFS (D < 0) has the same zero-field lines as |D|
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": -1135.0, "E": 139.0}))
        out = tmp_path / "run"
        assert main(["odmr-sim", "--config", str(cfg), "--out", str(out)]) == 0
        lines = read_table(out / "zero_field_lines.txt", 1)
        assert np.allclose(lines.ravel(), [278.0, 996.0, 1274.0], atol=0.5)

    def test_sweep_with_family(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "D": 1135.0, "E": 139.0,
            "sweep": {"magnitude_G": 120.0,
                      "angles_deg": {"start": 0, "stop": 180, "num": 7},
                      "orientations": "110-family"},
        }))
        out = tmp_path / "run"
        assert main(["odmr-sim", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_table(out / "sweep.txt", 5)
        assert rows.shape == (6 * 7, 5)


class TestCliRatesExtract:
    def test_fixture_roundtrip_byte_identical(self, tmp_path):
        cfg = FIXTURES / "rates_extract" / "config.json"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rates-extract", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["rates-extract", "--config", str(cfg), "--out", str(out2)]) == 0
        assert sha(out1 / "rates.json") == sha(out2 / "rates.json")
        expected = FIXTURES / "rates_extract" / "expected_rates.json"
        assert (out1 / "rates.json").read_bytes() == expected.read_bytes()
        rates = json.loads((out1 / "rates.json").read_text())
        assert np.isclose(rates["k_ex"], 2.5e6, rtol=1e-9)
        assert np.isclose(rates["k_f"], 8e7, rtol=1e-9)
        assert np.isclose(1e9 / rates["k0"], 2120.0, rtol=1e-9)

    def test_manifest_lists_every_output(self, tmp_path):
        cfg = FIXTURES / "rates_extract" / "config.json"
        out = tmp_path / "run"
        main(["rates-extract", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == emitted
        assert str(cfg) in manifest["inputs"]
        assert len(list(out.glob("manifest.json"))) == 1

    def test_manifest_roundtrips_and_digests_match(self, tmp_path):
        cfg = FIXTURES / "rates_extract" / "config.json"
        out = tmp_path / "run"
        main(["rates-extract", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        # lossless serialization roundtrip
        assert json.loads(json.dumps(manifest)) == manifest
        for path, digest in manifest["inputs"].items():
            assert sha(path) == digest

    def test_analysis_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # absurd detected rate: negative discriminant in the inversion
        base = json.loads((FIXTURES / "rates_extract" / "config.json").read_text())
        base["detected_rate"] = 1e30
        cfg.write_text(json.dumps(base))
        out = tmp_path / "run"
        assert main(["rates-extract", "--config", str(cfg), "--out", str(out)]) == 1


class TestCliG2Chain:
    def test_histogram_to_rates(self, tmp_path):
        # synthesize a coincidence histogram from known photodynamics, then
        # run g2-fit and rates-extract back to the planted rates
        from defectkit.photodynamics import (
            RateParams, correlation_components, detected_rate,
        )
        planted = RateParams(k_ex=2e6, k_f=9e7, k_isc=8e6,
                             k0=1 / 3000e-9, km=1 / 400e-9, kp=1 / 60e-9,
                             eta=0.05)
        alphas, lam = correlation_components(planted)
        tau = np.arange(0.0, 40000.0, 4.0)  # uniform 4 ns bins
        g2 = 1.0 - np.exp(-np.outer(tau, lam * 1e-9)) @ alphas
        rho = 0.9
        n1 = n2 = 1e5
        w_ns, t_s = 12.0, 200.0
        cn = rho**2 * g2 + (1 - rho**2)
        counts = cn * (n1 * n2 * (w_ns * 1e-9) * t_s)
        hist_path = tmp_path / "hist.txt"
        write_table(hist_path, [tau, counts], ["tau_ns", "counts"])
        Path(str(hist_path) + ".json").write_text(json.dumps(
            {"n1": n1, "n2": n2, "bin_width_ns": w_ns,
             "accumulation_time_s": t_s, "rho": rho}))

        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"data": str(hist_path), "n_exp": 4}))
        out1 = tmp_path / "fit"
        assert main(["g2-fit", "--config", str(fit_cfg), "--out", str(out1)]) == 0
        fit = json.loads((out1 / "g2_fit.json").read_text())
        assert np.allclose(sorted(fit["taus_ns"]), sorted(1e9 / lam), rtol=0.05)

        extract_cfg = tmp_path / "extract.json"
        extract_cfg.write_text(json.dumps({
            "fit_file": str(out1 / "g2_fit.json"),
            "detected_rate": detected_rate(planted),
            "eta": planted.eta,
        }))
        out2 = tmp_path / "rates"
        assert main(["rates-extract", "--config", str(extract_cfg),
                     "--out", str(out2)]) == 0
        rates = json.loads((out2 / "rates.json").read_text())
        assert np.isclose(rates["k_ex"], planted.k_ex, rtol=0.05)
        assert np.isclose(rates["k_f"], planted.k_f, rtol=0.05)
        assert np.isclose(rates["k0"], planted.k0, rtol=0.05)


class TestCliOdmrFit:
    def test_fit_from_table(self, tmp_path):
        from defectkit.spin_hamiltonian import (
            ZfsParams, angular_sweep, orientation_family,
        )
        truth = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[0])
        angles = np.linspace(0.0, 180.0, 19)
        table = angular_sweep(truth, 120.0, [0, 0, 1], angles)
        rows = np.array([(a, f, 1.0) for j, a in enumerate(angles)
                         for f in table.lines[0, j]])
        data = tmp_path / "odmr.txt"
        write_table(data, [rows[:, 0], rows[:, 1], rows[:, 2]],
                    ["angle_deg", "freq_MHz", "sigma_MHz"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(data), "magnitude_G": 120.0,
            "init": {"D": 1100.0, "E": 150.0,
                     "axes": truth.axes.tolist()},
        }))
        out = tmp_path / "run"
        assert main(["odmr-fit", "--config", str(cfg), "--out", str(out)]) == 0
        fit = json.loads((out / "odmr_fit.json").read_text())
        assert abs(fit["D_MHz"] - 1135.0) < 0.01
        assert abs(fit["E_MHz"] - 139.0) < 0.01
        resid = read_table(out / "odmr_residuals.txt", 3)
        assert resid.shape == (len(rows), 3)


POWER_SWEEP = ('{"rates": {"k_ex": 1e6, "k_f": 1e8, "k_isc": 5e7, "k0": 4.7e5, '
               '"km": 2.3e6, "kp": 4e6}, "sigma_cm2": 1e-17, "wavelength_nm": 532, '
               '"focal_area_cm2": 1e-8, %s}')
# config keys are checked before the table is read, so it need not exist
ODMR_FIT = '{"data": "odmr.txt", "init": {"D": 1130, "E": 140}, "magnitude_G": 100, %s}'


class TestCliUsageErrors:
    def test_unknown_pipeline_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert err.value.code == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["odmr-sim", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_schema_error_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"E": 139.0}))  # missing D
        assert main(["odmr-sim", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("pipeline, text, message", [
        ("odmr-sim", "[1, 2]", "must be a JSON object"),
        ("odmr-sim", '{"D": "x", "E": 100}', "'D': invalid value 'x'"),
        ("odmr-sim", '{"D": NaN, "E": 100}', "non-finite number NaN"),
        ("rates-extract", '{"fit": {"alphas": [1, 2], "taus_ns": [1, "x"]}, '
         '"detected_rate": 1e4, "eta": 0.02}', "'taus_ns': invalid value"),
        ("psb-synth", '{"S": 2, "zpl": "gaussian", '
         '"i1": {"gaussians": [{"center_mev": 60, "sigma_mev": 10}]}}',
         "must be a JSON object"),
        ("psb-synth", '{"S": "nan", '
         '"i1": {"gaussians": [{"center_mev": 60, "sigma_mev": 10}]}}',
         "'S': invalid value 'nan'"),
        ("odmr-sim", '{"D": "inf", "E": 100}', "'D': invalid value 'inf'"),
        ("odmr-sim", '{"D": 1135, "E": "1e999"}', "'E': invalid value '1e999'"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": "nan", '
         '"angles_deg": [0, 90]}}', "'magnitude_G': invalid value 'nan'"),
        ("odmr-sim", '{"D": 1135, "E": 139, "axes": [[1, 0, 0], [0, 1, 0], '
         '[0, 0, "nan"]]}', "'axes': invalid value"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": [0, 90], "plane_normal": [0, null, 1]}}',
         "'plane_normal': invalid value"),
        ("rates-extract", '{"fit": {"alphas": [1, 2, 3, "inf"], "taus_ns": [1, 2, 3, 4]}, '
         '"detected_rate": 1e4, "eta": 0.02}', "'alphas': invalid value"),
        ("psb-deconvolve", '{"band": "band.txt", "spacing_mev": "nan"}',
         "'spacing_mev': invalid value 'nan'"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": {"start": 0, "stop": 1, "num": -1}}}',
         "'num': invalid value -1"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": [0, 90], "orientations": 0}}', "'orientations': invalid value 0"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": [0, 90], "orientations": true}}',
         "'orientations': invalid value True"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": [0, 90], "orientations": []}}', "'orientations': invalid value []"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": [0, 90], "plane_normal": 0}}', "plane_normal must be a nonzero"),
        ("g2-fit", '{"data": "hist.txt", "n_exp": 0}', "'n_exp': invalid value 0"),
        ("g2-fit", '{"data": "hist.txt", "n_exp": -1}', "'n_exp': invalid value -1"),
        ("rates-extract", '{"fit": {"alphas": [1, 2, 3, 4], "taus_ns": [1, 2, 3, 4]}, '
         '"detected_rate": 1e4, "eta": 0}', "eta must be in (0, 1]"),
        ("power-sweep", POWER_SWEEP % '"powers_w": 1e-3', "powers_w must be a list"),
        ("power-sweep", POWER_SWEEP % '"powers_w": [1e-3], "wavelength_nm": 0',
         "wavelength_nm must be positive"),
        ("power-sweep", POWER_SWEEP % '"powers_w": [1e-3], "focal_area_cm2": 0',
         "focal_area_cm2 must be positive"),
        ("power-sweep", POWER_SWEEP % '"powers": {"start": 0, "stop": 1e-3, "num": 3}',
         "'start': invalid value 0"),
        ("odmr-fit", ODMR_FIT % '"fit_orientation": "false"',
         "'fit_orientation': invalid value 'false'"),
        ("odmr-fit", ODMR_FIT % '"fit_tilt": 1', "'fit_tilt': invalid value 1"),
        ("odmr-fit", ODMR_FIT % '"fit_orientation": [0]',
         "'fit_orientation': invalid value [0]"),
        ("defect-classify", '{"constraints": {"require_coalignment": "false"}}',
         "'require_coalignment': invalid value 'false'"),
        ("defect-classify", '{"constraints": {"require_coalignment": "x"}}',
         "'require_coalignment': invalid value 'x'"),
        ("odmr-sim", '{"D": true, "E": 100}', "'D': invalid value True"),
        ("g2-fit", '{"data": "hist.txt", "n_exp": true}', "'n_exp': invalid value True"),
        ("odmr-sim", '{"D": 1135, "E": 139, "sweep": {"magnitude_G": 100, '
         '"angles_deg": {"start": 0, "stop": 1, "num": 2.5}}}', "'num': invalid value 2.5"),
        ("power-sweep", POWER_SWEEP % '"powers": {"start": 1e-5, "stop": 1e-1, "num": 1001}',
         "'num': invalid value 1001"),
        ("power-sweep", POWER_SWEEP.replace('"k_ex": 1e6', '"k_ex": true') % '"powers_w": [1]',
         "'k_ex': invalid value True"),
        ("defect-classify", '{"electron_counts": [4, 1e9]}',
         "'electron_counts': invalid value [4, 1000000000.0]"),
        ("defect-classify", '{"geometry": {"delta": -0.01}}',
         "delta must be non-negative"),
    ], ids=["list", "string-value", "nan-value", "string-in-array", "string-section",
            "nan-string", "inf-string", "overflow-string", "nan-string-in-section",
            "nan-string-in-triad", "null-in-vector", "inf-string-in-array",
            "nan-string-deconvolve", "negative-angle-count", "zero-orientations",
            "true-orientations", "empty-orientations", "scalar-plane-normal",
            "zero-exponentials", "negative-exponentials", "zero-eta",
            "scalar-powers", "zero-wavelength", "zero-focal-area", "zero-power-start",
            "string-false-orientation", "number-tilt", "list-orientation",
            "string-false-coalignment", "string-coalignment", "true-number",
            "true-count", "fractional-count", "count-over-cap", "true-rate",
            "electron-count-over-cap", "negative-delta"])
    def test_bad_config_exits_2(self, tmp_path, capsys, pipeline, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main([pipeline, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/below"],
                             ids=["existing-file", "below-a-file"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 1135.0, "E": 139.0}))
        assert main(["odmr-sim", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 2
        assert f"cannot use --out {tmp_path / out}" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, blocked", [
        ("psb-synth", "band.txt"), ("psb-synth", "manifest.json"),
        ("defect-classify", "classification.txt"),
    ], ids=["band.txt", "manifest.json", "classification.txt"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, pipeline, blocked):
        # an output path that is a directory is a usage error naming the file
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"S": 2, "i1": {"gaussians": [{"center_mev": 60, "sigma_mev": 10}]}}
            if pipeline == "psb-synth" else {}))
        assert main([pipeline, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{out / blocked}: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, config, message", [
        ("psb-deconvolve", {"band": "band.txt", "dos": "missing.txt", "S": 1.0,
                            "spacing_mev": 1.0, "cutoff_mev": 100.0, "max_iter": 3},
         "missing.txt: file does not exist"),
        ("odmr-sim", {"D": 1135.0, "E": 139.0, "sweep": {
            "magnitude_G": "x", "angles_deg": {"start": 0, "stop": 180, "num": 5}}},
         "config key 'magnitude_G': invalid value 'x'"),
    ], ids=["psb-deconvolve-missing-dos", "odmr-sim-bad-sweep"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch, pipeline,
                                       config, message):
        # each failure comes after a first output is computed, which used to be
        # written: one_phonon_band.txt and convergence.json, zero_field_lines.txt
        TestCliNonFiniteOutput._inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main([pipeline, "--config", "cfg.json", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == []

    def test_non_finite_table_row_exits_2(self, tmp_path, capsys):
        from defectkit.spin_hamiltonian import ZfsParams, angular_sweep
        truth = ZfsParams(D=1135.0, E=139.0)
        angles = np.linspace(0.0, 180.0, 7)
        table = angular_sweep(truth, 120.0, [0, 0, 1], angles)
        rows = np.array([(a, f, 1.0) for j, a in enumerate(angles)
                         for f in table.lines[0, j]])
        data = tmp_path / "odmr.txt"
        write_table(data, [rows[:, 0], rows[:, 1], rows[:, 2]],
                    ["angle_deg", "freq_MHz", "sigma_MHz"])
        with open(data, "a") as fh:
            fh.write("90 nan 1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "magnitude_G": 120.0,
                                   "init": {"D": 1130.0, "E": 140.0}}))
        assert main(["odmr-fit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"odmr.txt:{len(rows) + 2}: non-finite" in capsys.readouterr().err


    def test_non_numeric_sidecar_exits_2(self, tmp_path, capsys):
        data = tmp_path / "hist.txt"
        write_table(data, [np.arange(64.0), np.full(64, 7.0)], ["tau_ns", "counts"])
        Path(str(data) + ".json").write_text(json.dumps(
            {"n1": "x", "n2": 1e5, "bin_width_ns": 1.0, "accumulation_time_s": 10.0}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data)}))
        assert main(["g2-fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "sidecar key 'n1': invalid value 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "fit.json: [Errno 2] No such file"),
        ("[1, 2]", "must be a JSON object"),
        ('{"alphas": [1], "taus_ns": [NaN]}', "non-finite number NaN"),
    ], ids=["missing", "list", "nan"])
    def test_bad_fit_file_exits_2(self, tmp_path, capsys, text, message):
        fit_file = tmp_path / "fit.json"
        if text is not None:
            fit_file.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit_file": str(fit_file), "detected_rate": 1e4,
                                   "eta": 0.02}))
        assert main(["rates-extract", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_non_string_data_path_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": 5, "magnitude_G": 120.0,
                                   "init": {"D": 1130.0, "E": 140.0}}))
        assert main(["odmr-fit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "5: file does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline, broken, content", [
        ("odmr-fit", "data", None),
        ("odmr-fit", "data", b"\xff\xfe\x81 1 2\n"),
        ("g2-fit", "sidecar", None),
        ("g2-fit", "sidecar", b"\xff\xfe\x81"),
    ], ids=["data-directory", "data-binary", "sidecar-directory", "sidecar-binary"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, pipeline, broken,
                                      content):
        # a directory (content None) or non-UTF-8 bytes where a text file belongs
        data = tmp_path / "data.txt"
        write_table(data, [np.arange(64.0), np.full(64, 7.0)], ["tau_ns", "counts"])
        sidecar = Path(str(data) + ".json")
        sidecar.write_text(json.dumps(
            {"n1": 1e5, "n2": 1e5, "bin_width_ns": 1.0, "accumulation_time_s": 10.0}))
        target = data if broken == "data" else sidecar
        target.unlink()
        if content is None:
            target.mkdir()
        else:
            target.write_bytes(content)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "magnitude_G": 120.0,
                                   "init": {"D": 1130.0, "E": 140.0}}))
        assert main([pipeline, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{target}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("constraints", [
        {"dipole_axes": 5},
        {"spin_axes": ["z", 1]},
        {"dipole_axes": "zy"},
    ], ids=["number", "non-string-label", "string"])
    def test_bad_classify_constraints_exit_2(self, tmp_path, capsys, constraints):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group": "C2v", "constraints": constraints}))
        assert main(["defect-classify", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "_axes': invalid value" in capsys.readouterr().err

    def test_coincident_geometry_exits_1(self, tmp_path, capsys):
        # theta = 90 puts c1 on c2 (and c3 on c4): the spin-spin tensor is singular
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"theta_deg": 90}}))
        out = tmp_path / "o"
        assert main(["defect-classify", "--config", str(cfg), "--out", str(out)]) == 1
        assert "orbitals c1 and c2 have coincident positions" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("extra, message", [
        ({"spacing_mev": 0}, "grid spacing must be positive"),
        ({"zpl": {"kind": "gaussian", "sigma_mev": 0}}, "ZPL width must be positive"),
        ({"i1": {"gaussians": [{"center_mev": 60, "sigma_mev": 0}]}},
         "'sigma_mev': invalid value 0"),
    ], ids=["zero-spacing", "zero-width-zpl", "zero-width-one-phonon"])
    def test_zero_width_psb_synth_exits_2(self, tmp_path, capsys, extra, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(
            {"S": 2.0, "i1": {"gaussians": [{"center_mev": 60, "sigma_mev": 10}]}},
            **extra)))
        out = tmp_path / "o"
        assert main(["psb-synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "synth.json").exists()


class TestCliNonFiniteOutput:
    """A result that overflows is an analysis failure (exit 1), not a file."""

    @staticmethod
    def _inputs(root):
        from defectkit.psb import (
            OnePhononBand, SpectralBand, ZplShape, make_grid, synthesize_band,
        )
        grid = make_grid(0.0, 100.0, 1.0)
        i1 = np.exp(-0.5 * ((grid - 50.0) / 10.0) ** 2)
        i1 *= np.clip(grid / 4.0, 0, 1) * np.clip((100.0 - grid) / 4.0, 0, 1)
        band = synthesize_band(OnePhononBand(SpectralBand(grid, i1).normalized(),
                                             cutoff_mev=100.0), 1.0, ZplShape.delta(1.0))
        write_table(root / "band.txt", [band.grid, band.values], ["energy_meV", "intensity"])

    @pytest.mark.parametrize("pipeline, config, output", [
        ("psb-synth", {"S": 1e300, "i1": {"gaussians": [{"center_mev": 60,
                                                          "sigma_mev": 10}]}},
         "band.txt"),
        ("psb-deconvolve", {"band": "band.txt", "S": 1e300, "spacing_mev": 1.0,
                            "cutoff_mev": 100.0, "max_iter": 3},
         "one_phonon_band.txt"),
    ], ids=["psb-synth-huge-S", "psb-deconvolve-huge-S"])
    def test_non_finite_result_exits_1(self, tmp_path, capsys, monkeypatch, pipeline,
                                       config, output):
        self._inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([pipeline, "--config", "cfg.json", "--out", str(out)])
        assert code == 1
        assert f"{output}: not written" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == []


def _g2_histogram(root, first_count=None, **sidecar):
    """hist.txt with its sidecar: 500 bins of 16 ns, counts near 1e5 (the first
    one replaced by first_count if given), sidecar keys overridden by sidecar."""
    tau = np.arange(0.0, 8000.0, 16.0)
    counts = 1e5 * (1.0 - 0.8 * np.exp(-tau / 20.0) + 0.3 * np.exp(-tau / 500.0))
    if first_count is not None:
        counts[0] = first_count
    write_table(root / "hist.txt", [tau, counts], ["tau_ns", "counts"])
    (root / "hist.txt.json").write_text(json.dumps(dict(
        {"n1": 1e4, "n2": 1e4, "bin_width_ns": 16.0, "accumulation_time_s": 62.5,
         "rho": 0.9}, **sidecar)))


class TestCliG2Refusals:
    """Histograms fit_g2 cannot fit are refused with a message naming the cause."""

    def _run(self, root, capfd, monkeypatch, config):
        monkeypatch.chdir(root)
        (root / "cfg.json").write_text(json.dumps(dict({"data": "hist.txt"}, **config)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["g2-fit", "--config", "cfg.json", "--out", "run"])
        out, err = capfd.readouterr()
        assert "Traceback" not in err and "DLASCL" not in out + err  # LAPACK's complaint
        assert not (root / "run" / "g2_fit.json").exists()
        return code, err

    @pytest.mark.parametrize("first_count, sidecar, config", [
        (None, {"n1": 1e-300}, {}),
        (None, {"accumulation_time_s": 1e-300}, {}),
        (1e300, {}, {}),
        (None, {}, {"rho": 1e-300}),
    ], ids=["n1-1e-300", "accumulation-time-1e-300", "zero-delay-count-1e300",
            "rho-1e-300"])
    def test_out_of_range_curve_exits_2(self, tmp_path, capfd, monkeypatch,
                                        first_count, sidecar, config):
        # these used to end in a LinAlgError (or ValueError) traceback from the fit
        _g2_histogram(tmp_path, first_count, **sidecar)
        code, err = self._run(tmp_path, capfd, monkeypatch, dict({"n_exp": 2}, **config))
        assert code == 2
        assert "beyond the 1e+06 a normalized, background-corrected curve can reach" in err

    @pytest.mark.parametrize("sidecar, config, key", [
        ({"n1": True}, {}, "n1"),
        ({}, {"units": {"bin_width_ns": True}}, "bin_width_ns"),
    ], ids=["sidecar-n1-true", "units-bin-width-true"])
    def test_boolean_number_exits_2(self, tmp_path, capfd, monkeypatch, sidecar, config,
                                    key):
        # a JSON true used to be read as 1.0: the units case fitted on 1 ns bins
        # (exit 0), and the sidecar case blamed a g2 of 2.35e6
        _g2_histogram(tmp_path, **sidecar)
        code, err = self._run(tmp_path, capfd, monkeypatch, dict({"n_exp": 2}, **config))
        assert code == 2
        assert f"sidecar key '{key}': invalid value True" in err

    @pytest.mark.parametrize("first_count, config", [
        (1e6, {"n_exp": 3}),
        (None, {"n_exp": 2, "units": {"bin_width_ns": 1e300}}),
    ], ids=["zero-delay-spike", "huge-bin-width"])
    def test_collapsed_component_exits_1(self, tmp_path, capfd, monkeypatch,
                                         first_count, config):
        # a component far shorter than the 16 ns bins (about 1e-5 and 1e-7 ns):
        # its Jacobian column is zero, and the fit used to be written (spike) or
        # to fail on an infinite jacobian_condition with a message naming no
        # fit problem
        _g2_histogram(tmp_path, first_count)
        code, err = self._run(tmp_path, capfd, monkeypatch, config)
        assert code == 1
        found = re.search(r"g2 fit component collapsed: its Jacobian column vanishes at "
                          r"tau = (\S+) ns, against a bin width of 16 ns", err)
        assert found and float(found.group(1)) < 16.0 / 745  # exp(-16 ns/tau) is 0


class TestCliWarnings:
    def test_warnings_reported_once_and_recorded(self, tmp_path, capsys, monkeypatch):
        # 500 bins of 16 ns span 2.7 decades, and a 4-exponential fit of a
        # two-exponential curve is ill-conditioned; the run still succeeds
        _g2_histogram(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"data": "hist.txt", "n_exp": 4}))
        assert main(["g2-fit", "--config", "cfg.json", "--out", "run"]) == 0
        err = capsys.readouterr().err
        decades = ("delay grid spans fewer than 3 decades; 4-exponential fit may be "
                   "unidentifiable")
        condition = ("ill-conditioned Jacobian (condition > 1e12): fit parameters are "
                     "not individually identifiable")
        assert err == (f"defectkit: g2-fit: warning: {decades}\n"
                       f"defectkit: g2-fit: warning: {condition}\n")
        assert ".py:" not in err and "warnings.warn(" not in err
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["warnings"] == [decades, condition]


class TestCliLibraryDefaults:
    """A key the config leaves out (or sets to null, as odmr-fit's fit_tilt)
    reaches the library as no keyword, so the library's own default holds; a
    bad value is still refused with exit 2."""

    class Called(DefectKitError):
        """Raised by the recorder, so a run ends (exit 1) where the call was."""

    DECONVOLVE = {"band": "band.txt", "S": 1.0, "spacing_mev": 1.0, "cutoff_mev": 100.0}
    RATES = {"fit": {"alphas": [0.5], "taus_ns": [10.0]}, "detected_rate": 1e4,
             "eta": 0.02}
    # one key of each library function whose defaults the CLI leaves in force,
    # with the config section that holds it
    CASES = [
        ("odmr-sim", {"D": 1135, "E": 139}, None, "spin_hamiltonian.ZfsParams", "g",
         "'g': invalid value 'x'"),
        ("odmr-fit", json.loads(ODMR_FIT % '"fit_tilt": null'), None,
         "spin_hamiltonian.fit_odmr", "plane_normal", "'plane_normal': invalid value 'x'"),
        ("g2-fit", {"data": "hist.txt"}, None, "g2_processing.fit_g2", "n_exp",
         "'n_exp': invalid value 'x'"),
        ("rates-extract", RATES, "fit", "g2_processing.G2Fit", "rho",
         "'rho': invalid value 'x'"),
        ("power-sweep", json.loads(POWER_SWEEP % '"powers_w": [1e-3]'), None,
         "photodynamics.power_sweep_model", "driven", 'driven must be "plus" or "minus"'),
        ("psb-deconvolve", DECONVOLVE, None, "psb.smooth_and_taper", "smooth_bins",
         "'smooth_bins': invalid value 'x'"),
        ("psb-deconvolve", DECONVOLVE, None, "psb.iterative_deconvolve", "max_iter",
         "'max_iter': invalid value 'x'"),
        ("defect-classify", {"geometry": {}}, "geometry",
         "defect_model.VacancyGeometry.tetrahedral", "delta", "'delta': invalid value 'x'"),
        ("defect-classify", {"constraints": {}}, "constraints",
         "defect_model.candidate_filter", "require_coalignment",
         "'require_coalignment': invalid value 'x'"),
    ]
    IDS = ["ZfsParams-g", "fit_odmr-plane_normal", "fit_g2-n_exp", "G2Fit-rho",
           "power_sweep_model-driven", "smooth_and_taper-smooth_bins",
           "iterative_deconvolve-max_iter", "VacancyGeometry-delta",
           "candidate_filter-require_coalignment"]

    @staticmethod
    def _run(root, monkeypatch, pipeline, config):
        TestCliNonFiniteOutput._inputs(root)
        _g2_histogram(root)
        write_table(root / "odmr.txt", [[0.0, 45.0, 90.0], [1000.0, 1100.0, 1200.0],
                                        [1.0, 1.0, 1.0]], ["angle_deg", "freq_MHz", "sigma"])
        monkeypatch.chdir(root)
        (root / "cfg.json").write_text(json.dumps(config))
        return main([pipeline, "--config", "cfg.json", "--out", "run"])

    @pytest.mark.parametrize("pipeline, config, section, target, key, message", CASES,
                             ids=IDS)
    def test_absent_key_passes_no_keyword(self, tmp_path, monkeypatch, pipeline, config,
                                          section, target, key, message):
        calls = []

        def record(*args, **kwargs):
            calls.append(kwargs)
            raise self.Called("recorded")

        monkeypatch.setattr(f"defectkit.{target}", record)
        assert self._run(tmp_path, monkeypatch, pipeline, config) == 1
        assert len(calls) == 1 and key not in calls[0]

    @pytest.mark.parametrize("pipeline, config, section, target, key, message", CASES,
                             ids=IDS)
    def test_bad_value_exits_2(self, tmp_path, capsys, monkeypatch, pipeline, config,
                               section, target, key, message):
        config = copy.deepcopy(config)
        (config[section] if section else config)[key] = "x"
        assert self._run(tmp_path, monkeypatch, pipeline, config) == 2
        assert message in capsys.readouterr().err


class TestCliImport:
    BARE = {"cli", "constants", "datasets", "errors"}

    @staticmethod
    def loaded_modules(code):
        """The defectkit submodules and the scipy modules that code leaves in
        sys.modules of a fresh interpreter."""
        import defectkit
        src = Path(defectkit.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code += ("\nimport json, sys; print(json.dumps(["
                 "[m.split('.', 1)[1] for m in sys.modules if m.startswith('defectkit.')], "
                 "[m for m in ('scipy', 'scipy.signal', 'scipy.optimize', 'scipy.linalg') "
                 "if m in sys.modules]]))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        ours, scipy = json.loads(out.stdout.splitlines()[-1])
        return set(ours), scipy

    @pytest.fixture(scope="class")
    def after_import(self):
        return self.loaded_modules("import defectkit.cli")

    def test_import_leaves_scipy_signal_out(self, after_import):
        # importing scipy.optimize and scipy.linalg takes longer than the rest
        # of a CLI start; only fit_g2 and g2_numeric import them, when called
        assert after_import[1] == []

    def test_import_loads_no_analysis_module(self, after_import):
        # each pipeline imports the analysis modules it calls when it runs
        assert after_import[0] == self.BARE

    def test_run_loads_only_its_modules(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 1135.0, "E": 139.0}))
        code = ("from defectkit.cli import main\n"
                f"assert main(['odmr-sim', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'run')!r}]) == 0")
        assert self.loaded_modules(code)[0] == self.BARE | {"spin_hamiltonian"}

    def test_critical_point_report_leaves_scipy_out(self):
        # the psb pipelines find their peaks with psb._find_peaks, not scipy.signal
        code = ("import numpy as np\n"
                "from defectkit.psb import OnePhononBand, SpectralBand, critical_point_report\n"
                "grid = 0.5 * np.arange(200)\n"
                "raw = SpectralBand(grid, np.exp(-0.5 * ((grid - 60) / 9) ** 2)\n"
                "                   + 0.5 * np.exp(-0.5 * ((grid - 90) / 5) ** 2))\n"
                "report = critical_point_report(OnePhononBand(raw.normalized()), raw)\n"
                "assert len(report.peaks) == 2")
        assert self.loaded_modules(code)[1] == []


class TestCliPowerSweep:
    def test_columns_and_shape(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "rates": {"k_ex": 1e6, "k_f": 1e8, "k_isc": 5e7,
                      "k0": 471698.11, "km": 2272727.27, "kp": 4e6},
            "sigma_cm2": 1e-17, "beta": 0.1, "wavelength_nm": 532.0,
            "focal_area_cm2": 1e-8,
            "powers": {"start": 1e-5, "stop": 1e-1, "num": 12},
        }))
        out = tmp_path / "run"
        assert main(["power-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "power_sweep.txt").read_text().splitlines()[0]
        assert header.split() == ["#", "power_W", "kex", "kisc", "counts",
                                  "contrast"]
        rows = read_table(out / "power_sweep.txt", 5)
        assert rows.shape == (12, 5)
        fl = rows[:, 3]
        assert fl.max() > fl[-1]  # ESA turnover visible


class TestCliDeterminism:
    def test_identical_runs_identical_hashes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "group": "C2v", "electron_counts": [4, 6],
            "constraints": {"dipole_axes": ["z", "y"], "spin_axes": ["z", "y"]},
            "geometry": {"delta": 0.02},
        }))
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["defect-classify", "--config", str(cfg),
                         "--out", str(out)]) == 0
            hashes.append([sha(out / "classification.json"),
                           sha(out / "classification.txt")])
        assert hashes[0] == hashes[1]
        payload = json.loads((tmp_path / "a" / "classification.json").read_text())
        got = {(p["homo"], p["lumo"]) for p in payload["consistent_pairs"]}
        assert got == {("a1", "b1"), ("a1'", "b2")}


class TestCliPsb:
    def test_deconvolve_from_wavelength_spectrum(self, tmp_path):
        # full path: synthetic emission on a wavelength axis with JSON
        # sidecar -> bandshape -> Huang-Rhys estimate -> deconvolution
        from defectkit.constants import HC_EV_NM
        from defectkit.psb import (
            OnePhononBand, SpectralBand, ZplShape, make_grid, synthesize_band,
        )
        d, s = 0.5, 2.0
        grid = make_grid(0.0, 168.0, d)
        vals = np.exp(-0.5 * ((grid - 70.0) / 15.0) ** 2)
        vals *= np.clip(grid / 8.0, 0, 1) * np.clip((168.0 - grid) / 8.0, 0, 1)
        i1 = OnePhononBand(SpectralBand(grid, vals).normalized())
        shape = synthesize_band(i1, s, ZplShape.delta(d))
        zpl_mev = 2234.0  # ~555 nm
        keep = shape.grid < 800.0  # drop the ~1e-9 Poisson tail beyond
        photon_mev = zpl_mev - shape.grid[keep]
        wl_nm = 1e3 * HC_EV_NM / photon_mev
        emission = shape.values[keep] * photon_mev**3
        spec = tmp_path / "emission.txt"
        write_table(spec, [wl_nm, emission], ["wavelength_nm", "counts"])
        Path(str(spec) + ".json").write_text(json.dumps(
            {"axis": "wavelength_nm", "zpl": 1e3 * HC_EV_NM / zpl_mev,
             "spacing_mev": d}))
        cfg = tmp_path / "cfg.json"
        # clean synthetic: keep the conditioning minimal so the Fourier
        # initializer is already essentially exact
        cfg.write_text(json.dumps({
            "spectrum": str(spec), "zpl_window_mev": [-1.5, 1.5],
            "spacing_mev": d, "zpl": {"kind": "delta"},
            "smooth_bins": 1, "taper_fraction": 0.01,
        }))
        out = tmp_path / "run"
        assert main(["psb-deconvolve", "--config", str(cfg),
                     "--out", str(out)]) == 0
        conv = json.loads((out / "convergence.json").read_text())
        assert abs(conv["S"] - s) < 0.05
        got = read_table(out / "one_phonon_band.txt", 2)
        peak = got[np.argmax(got[:, 1]), 0]
        assert abs(peak - 70.0) < 3.0

    def test_synth_then_deconvolve(self, tmp_path):
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({
            "S": 2.2, "spacing_mev": 0.5,
            "i1": {"gaussians": [{"center_mev": 65.0, "sigma_mev": 14.0},
                                  {"center_mev": 120.0, "sigma_mev": 10.0,
                                   "weight": 0.5}]},
            "zpl": {"kind": "delta"},
        }))
        out1 = tmp_path / "synth"
        assert main(["psb-synth", "--config", str(synth_cfg),
                     "--out", str(out1)]) == 0
        meta = json.loads((out1 / "synth.json").read_text())
        assert abs(meta["norm"] - 1.0) < 1e-6

        dec_cfg = tmp_path / "dec.json"
        dec_cfg.write_text(json.dumps({
            "band": str(out1 / "band.txt"), "S": 2.2, "spacing_mev": 0.5,
            "zpl": {"kind": "delta"}, "smooth_bins": 1, "taper_fraction": 0.02,
        }))
        out2 = tmp_path / "dec"
        assert main(["psb-deconvolve", "--config", str(dec_cfg),
                     "--out", str(out2)]) == 0
        conv = json.loads((out2 / "convergence.json").read_text())
        assert conv["converged"]
        i1 = read_table(out2 / "one_phonon_band.txt", 2)
        peak = i1[np.argmax(i1[:, 1]), 0]
        assert abs(peak - 65.0) < 2.0

    def test_ramp_dos_writes_null_match(self, tmp_path):
        # a valid DOS with no interior maximum leaves each band peak unmatched
        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(json.dumps({
            "S": 2.0,
            "i1": {"gaussians": [{"center_mev": 60.0, "sigma_mev": 8.0},
                                  {"center_mev": 120.0, "sigma_mev": 10.0,
                                   "weight": 0.5}]},
        }))
        assert main(["psb-synth", "--config", str(synth_cfg),
                     "--out", str(tmp_path / "synth")]) == 0
        ramp = tmp_path / "ramp.txt"
        ramp.write_text("0 0\n200 1\n")
        dec_cfg = tmp_path / "dec.json"
        dec_cfg.write_text(json.dumps({
            "band": str(tmp_path / "synth" / "band.txt"), "S": 2.0, "dos": str(ramp)}))
        out = tmp_path / "dec"
        assert main(["psb-deconvolve", "--config", str(dec_cfg), "--out", str(out)]) == 0
        for name in ("one_phonon_band.txt", "convergence.json",
                     "critical_points.json", "overlay.txt"):
            assert (out / name).is_file(), name
        report = json.loads((out / "critical_points.json").read_text(),
                            parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert [round(p["energy_mev"]) for p in report["peaks"]] == [60, 120]
        for p in report["peaks"]:
            assert p["nearest_dos_peak_mev"] is None
            assert p["distance_mev"] is None
