"""Dataset ingestion, validation and delimited-text emission.

Input files are delimited text (whitespace or comma separated, '#' comments)
with JSON sidecars for scalar metadata. Everything is converted to the
toolkit's canonical units at this boundary: MHz, Gauss, ns, meV, cm^2.

A table is parsed on one of two paths. The fast path hands the path of a
whitespace-separated table of printable ASCII to numpy's C parser
(``np.loadtxt``) and keeps its result only if it is non-empty, finite and of
an allowed width. Everything else (commas, other characters, a table the C
parser refuses or a result the checks reject) goes to the line-by-line
Python parser. That parser is the only source of error messages, so every
SchemaError names its line, and it is the reference the fast path must
match bit for bit: the C parser accepts no number that ``float`` refuses.

Tables are written with one '%.10g' format string for the whole table, and a
non-finite value is refused before any file is written, as it is in JSON
output. A file that cannot be written is a SchemaError that names it.

The analysis classes a kind returns are imported where that kind is read, so
importing this module, as the CLI does, loads no analysis module.
"""
import hashlib
import json
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import DEFAULT_SPACING_MEV, HC_EV_NM
from .errors import DefectKitError, SchemaError

log = logging.getLogger(__name__)

KINDS = ("odmr_table", "g2_histogram", "emission_spectrum", "dos_table")


@dataclass(frozen=True)
class DatasetDescriptor:
    """A path plus the schema it is expected to satisfy.

    units carries per-kind declarations (e.g. the emission axis type) and
    overrides the sidecar, '<path>.json', where one is needed.
    """

    path: str
    kind: str
    units: dict = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown dataset kind {self.kind!r}")

    def sidecar_path(self):
        """'<path>.json' for the kinds that read a sidecar, None for the others."""
        if self.kind in ("g2_histogram", "emission_spectrum"):
            return Path(str(self.path) + ".json")
        return None


def finite(value):
    """float(value), refusing booleans, NaN and infinities also when spelled as text.

    Every number from outside the program goes through this one conversion."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value}")
    return number


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_text(path):
    """A file's text; a file that cannot be read or decoded is a SchemaError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError(f"{path}: cannot read: {err}") from None


# The C parser reads only text made of these bytes: printable ASCII but the
# comma, tab and newline (read_text has already turned CR and CRLF into LF).
# Other control characters and Unicode spaces split lines or fields for
# str.splitlines() and str.split() and may not for np.loadtxt.
_LOADTXT_BYTES = bytes([9, 10] + [c for c in range(32, 127) if c != ord(",")])


def read_table(path, min_cols, max_cols=None):
    """Parse a delimited numeric table; errors name the offending line."""
    max_cols = max_cols or min_cols
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file does not exist")
    text = _read_text(path)
    # np.loadtxt reads a path in chunks, a file object line by line, and
    # decompresses a path by its suffix
    if (text.isascii() and not text.encode("ascii").translate(None, _LOADTXT_BYTES)
            and path.suffix not in (".gz", ".bz2", ".xz", ".lzma")):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "no data"
                data = np.loadtxt(str(path), comments="#", ndmin=2, dtype=float)
        except ValueError:
            pass
        else:
            if (data.size and min_cols <= data.shape[1] <= max_cols
                    and np.isfinite(data).all()):
                return data
    return _parse_table(path, text, min_cols, max_cols)


def _parse_table(path, text, min_cols, max_cols):
    """The line-by-line parser: the reference result and every error message."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: non-numeric value in {raw!r}")
        if not all(map(math.isfinite, row)):
            raise SchemaError(f"{path}:{lineno}: non-finite value in {raw!r}")
        if not min_cols <= len(row) <= max_cols:
            raise SchemaError(
                f"{path}:{lineno}: expected {min_cols}"
                + (f"-{max_cols}" if max_cols != min_cols else "")
                + f" columns, got {len(row)}"
            )
        if width is not None and len(row) != width:
            raise SchemaError(f"{path}:{lineno}: ragged row")
        width = len(row)
        rows.append(row)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _read_sidecar(desc, required):
    sc = desc.sidecar_path()
    meta = {}
    if sc.exists():
        try:
            meta = json.loads(_read_text(sc))
        except json.JSONDecodeError as err:
            raise SchemaError(f"{sc}: invalid JSON sidecar: {err}")
        if not isinstance(meta, dict):
            raise SchemaError(f"{sc}: sidecar must be a JSON object")
    if desc.units:
        meta.update(desc.units)
    missing = [k for k in required if k not in meta]
    if missing:
        raise SchemaError(f"{desc.path}: sidecar missing keys {missing}")
    return meta


def _number(desc, meta, key, default=None):
    """meta[key] (or default) through finite; errors name the key."""
    value = meta.get(key, default)
    try:
        return finite(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"{desc.path}: sidecar key {key!r}: invalid value {value!r}") from None


@dataclass
class EmissionSpectrum:
    """Emission intensity on a uniform photon-energy grid with ZPL marker."""

    band: "SpectralBand"
    zpl_mev: float


def _resample_uniform(x, y, spacing):
    from .psb import SpectralBand, make_grid

    grid = make_grid(x.min(), x.max(), spacing)
    return SpectralBand(grid, np.interp(grid, x, y, left=0.0, right=0.0))


def ingest(desc: DatasetDescriptor):
    """Parse, validate and unit-convert a dataset.

    Returns the kind-specific object:
      odmr_table        -> (n, 3) array of (angle_deg, freq_MHz, sigma_MHz)
      g2_histogram      -> (CoincidenceHistogram, rho)
      emission_spectrum -> EmissionSpectrum (meV axis, ascending)
      dos_table         -> SpectralBand (meV axis)
    """
    if desc.kind == "odmr_table":
        data = read_table(desc.path, 2, 3)
        if data.shape[1] == 2:
            data = np.column_stack([data, np.ones(len(data))])
        if np.any(data[:, 2] <= 0):
            raise SchemaError(f"{desc.path}: sigma_MHz must be positive")
        log.info("odmr_table %s: %d rows, %.1f-%.1f deg", desc.path, len(data),
                 data[:, 0].min(), data[:, 0].max())
        return data

    if desc.kind == "g2_histogram":
        from .g2_processing import CoincidenceHistogram

        data = read_table(desc.path, 2)
        meta = _read_sidecar(
            desc, ["n1", "n2", "bin_width_ns", "accumulation_time_s"]
        )
        hist = CoincidenceHistogram(
            bin_centers=data[:, 0],
            counts=data[:, 1],
            bin_width_ns=_number(desc, meta, "bin_width_ns"),
            accumulation_time_s=_number(desc, meta, "accumulation_time_s"),
            n1=_number(desc, meta, "n1"),
            n2=_number(desc, meta, "n2"),
        )
        rho = _number(desc, meta, "rho", 1.0)
        log.info("g2_histogram %s: %d bins, %.4g total counts", desc.path,
                 len(data), data[:, 1].sum())
        return hist, rho

    if desc.kind == "emission_spectrum":
        data = read_table(desc.path, 2)
        meta = _read_sidecar(desc, ["axis", "zpl"])
        axis = meta["axis"]
        spacing = _number(desc, meta, "spacing_mev", DEFAULT_SPACING_MEV)
        x, y = data[:, 0], data[:, 1]
        steps = np.diff(x)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise SchemaError(f"{desc.path}: spectrum axis must be monotone")
        zpl = _number(desc, meta, "zpl")
        if axis == "wavelength_nm":
            if np.any(x <= 0) or zpl <= 0:
                raise SchemaError(f"{desc.path}: wavelengths must be positive")
            x = 1e3 * HC_EV_NM / x
            zpl = 1e3 * HC_EV_NM / zpl
        elif axis != "energy_mev":
            raise SchemaError(f"{desc.path}: axis must be wavelength_nm or energy_mev")
        order = np.argsort(x)
        x, y = x[order], y[order]
        band = _resample_uniform(x, np.clip(y, 0.0, None), spacing)
        log.info("emission_spectrum %s: %d points, %.1f-%.1f meV", desc.path,
                 band.grid.size, band.grid[0], band.grid[-1])
        return EmissionSpectrum(band=band, zpl_mev=zpl)

    # dos_table, the last of KINDS
    data = read_table(desc.path, 2)
    if np.any(np.diff(data[:, 0]) <= 0):
        raise SchemaError(f"{desc.path}: DOS energy axis must be ascending")
    spacing = _number(desc, desc.units or {}, "spacing_mev", DEFAULT_SPACING_MEV)
    band = _resample_uniform(data[:, 0], np.clip(data[:, 1], 0.0, None), spacing)
    log.info("dos_table %s: %d points", desc.path, band.grid.size)
    return band


def write_outputs(outdir, outputs):
    """Write a pipeline's {file name: content} into outdir, formatting every file
    first so that a non-finite value leaves none behind; errors name the file."""
    paths = {name: Path(outdir) / name for name in outputs}
    texts = {name: _text(paths[name], content) for name, content in outputs.items()}
    for name, text in texts.items():
        try:
            paths[name].write_text(text)
        except OSError as err:
            raise SchemaError(f"{paths[name]}: cannot write: {err}") from None


def write_table(path, columns, header):
    """Write named columns as '#'-headed delimited text (plot-ready)."""
    write_outputs(Path(path).parent, {Path(path).name: (columns, header)})


def write_json(path, payload):
    """Deterministic JSON emission (sorted keys, fixed separators)."""
    write_outputs(Path(path).parent, {Path(path).name: payload})


def _text(path, content):
    """A file's text: a dict as JSON, a (columns, header) pair as a table, a str
    as it is. NaN and infinities have no spelling in either format: one is an
    analysis failure that names the file."""
    if isinstance(content, str):
        return content
    if isinstance(content, dict):
        try:
            return json.dumps(content, indent=2, sort_keys=True, default=_json_default,
                              allow_nan=False) + "\n"
        except ValueError as err:
            raise DefectKitError(f"{path}: not written: {err}") from None
    columns, header = content
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if not np.isfinite(table).all():
        raise DefectKitError(f"{path}: not written: non-finite value in the table")
    row = "\t".join(["%.10g"] * table.shape[1]) + "\n"
    body = "".join([row] * len(table)) % tuple(table.ravel().tolist())
    return "# " + "\t".join(header) + "\n" + body


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")
