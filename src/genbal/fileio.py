"""CSV/JSON ingestion and report emission.

Rectangular data travels as CSV, summaries and configs as JSON. Loaders
fail with typed errors naming the offending cell; nothing is imputed or
silently dropped. A source CSV is opened once, its header checked once,
and its lines read in blocks of _BLOCK_ROWS; a block that csv.reader
reads is that many records, so it ends on a record where quoted records
span lines. One np.loadtxt call converts a block of a schema with no
categorical column when every cell is a number at the header's width,
the used ones finite with a 0/1 treatment. Any other block goes through
one column-wise pass over its csv records (blank rows are skipped but
counted in line numbers); only if that pass rejects it are its rows
walked in order, so the error names the first bad cell: the earliest
line, then the treatment, the outcome and the covariates in schema
order. Categorical labels are coded once, at the end, by their sorted
order.

Writers build the full output in memory first and write it to a
temporary file beside the destination, which then replaces the
destination in one step, so no partial files are left behind.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .basis import BasisSpec, SourceSample
from .errors import ValidationError
from .estimators import EstimateReport

_BLOCK_ROWS = 8_192  # data lines per block, more only to close a quoted record

__all__ = [
    "ColumnSchema",
    "load_source_csv",
    "write_source_csv",
    "load_target_summary",
    "load_basis_json",
    "load_scenarios_json",
    "write_weights_csv",
    "emit_report",
]


@dataclasses.dataclass(frozen=True)
class ColumnSchema:
    """Column roles for a source CSV: the treatment, the outcome and each
    covariate are distinct columns."""

    treatment: str
    outcome: str
    covariates: tuple[str, ...]
    categorical: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "categorical", tuple(self.categorical))
        roles = (self.treatment, self.outcome, *self.covariates)
        _no_repeats(roles, "listed more than once among the treatment, outcome and covariates")
        bad = [c for c in self.categorical if c not in self.covariates]
        if bad:
            raise ValidationError(f"categorical columns {bad} not among covariates")


def _no_repeats(names, what: str) -> None:
    """Raise a DUPLICATE_COLUMN ValidationError naming the first name seen twice."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"column {name!r} is {what}", code="DUPLICATE_COLUMN")
        seen.add(name)


def _parse_float(text: str, line: int, column: str) -> float:
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is not None and math.isfinite(value):
        return value
    what = f"non-{'numeric' if value is None else 'finite'} value {text!r}" if text else "empty cell"
    raise ValidationError(f"{what} at line {line}, column {column!r}", code="NON_FINITE_CELL")


def _float_column(cells):
    """The cells as a float array, or NaN if one is not a number."""
    for texts in (cells, map(str.strip, cells)):  # float() strips less than str.strip() (not \x1c-\x1f)
        try:
            return np.fromiter(map(float, texts), float, len(cells))
        except ValueError:
            pass
    return np.nan


def _checked(part):
    """The (k, rows) part if its cells are finite and its treatments (row 0) 0 or 1, else None."""
    return part if np.isfinite(part).all() and ((part[0] == 0.0) | (part[0] == 1.0)).all() else None


def _loadtxt_block(lines, width, cols):
    """The used cells of a block's lines as a (k, rows) array from one
    np.loadtxt call, or None if loadtxt cannot read them at the header's
    width or _checked rejects them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns when it finds no rows
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return _checked(data.T[cols]) if data.shape[1] == width else None


def _parse_columns(rows, width, idx, seen):
    """The used cells of a block's csv records as a (k, rows) array from one
    column-wise pass over the non-blank rows, or None if a row length or
    _checked rejects them; a label is coded as its index in ``seen[column]``
    (labels in the order met), and an unconverted column or empty label is NaN."""
    data = [row for row in rows if "".join(row).strip()]
    if any(len(row) != width for row in data):
        return None
    cells = list(zip(*data)) or [()] * width
    part = np.empty((len(idx), len(data)))
    for j, (c, i) in enumerate(idx.items()):
        if c not in seen:
            part[j] = _float_column(cells[i])
            continue
        labels = [cell.strip() for cell in cells[i]]
        part[j] = np.nan if "" in labels else [seen[c].setdefault(v, len(seen[c])) for v in labels]
    return _checked(part)


def _raise_first_bad_cell(rows, width, first, idx, schema: ColumnSchema):
    """Walk a block's csv records, the first at line ``first``, in file order
    and raise the first bad cell's error. Within a row: length, then the
    columns of ``idx`` in order: treatment, outcome, covariates."""
    for line, row in enumerate(rows, start=first):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            raise ValidationError(f"line {line} has {len(row)} cells, header has {width}")
        for c, i in idx.items():
            if c in schema.categorical and row[i].strip():
                continue
            value = _parse_float(row[i], line, c)  # an empty label is an empty cell
            if c == schema.treatment and value not in (0.0, 1.0):
                raise ValidationError(
                    f"non-binary treatment value {value:g} at line {line}, column {c!r}",
                    code="NON_BINARY_TREATMENT",
                )


def _read_header(fh, path, needed=()):
    """The stripped cells of the first record of the open source CSV ``fh``,
    which must hold each ``needed`` column once."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in header]
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValidationError(
            f"{path}: missing column(s) {missing}; header has {header}",
            code="MISSING_COLUMN",
        )
    _no_repeats([c for c in header if c in needed], f"in the header of {path} more than once")
    return header


def load_source_csv(path, schema: ColumnSchema):
    """Read a source sample; returns (SourceSample, metadata).

    Metadata records the covariate column order and, for categorical
    columns, the label-to-code mapping used to build the numeric matrix.
    """
    needed = (schema.treatment, schema.outcome, *schema.covariates)
    with open(path, newline="") as fh:
        header = _read_header(fh, path, needed)
        idx = {c: header.index(c) for c in needed}
        seen = {c: {} for c in needed if c in schema.categorical}
        parts, line = [], 2
        while block := list(itertools.islice(fh, _BLOCK_ROWS)):
            part = None if seen else _loadtxt_block(block, len(header), list(idx.values()))
            if part is None:  # as many records as lines, read on from fh if quoted records span lines
                block = list(itertools.islice(csv.reader(itertools.chain(block, fh)), len(block)))
                part = _parse_columns(block, len(header), idx, seen)
                if part is None:
                    _raise_first_bad_cell(block, len(header), line, idx, schema)
            parts.append(part)
            line += len(block)
    out = np.empty((len(needed), sum(part.shape[1] for part in parts)))
    if not out.size:
        raise ValidationError(f"{path}: no data rows")
    end = out.shape[1]
    while parts:  # copied back to front, each dropped at once, so the heap shrinks from its top
        part = parts.pop()
        end -= part.shape[1]
        out[:, end:end + part.shape[1]] = part
    codes = {c: {label: float(code) for code, label in enumerate(sorted(labels))} for c, labels in seen.items()}
    for j, c in enumerate(needed):
        if c in seen:  # each label's code is its rank among its column's labels
            out[j] = np.array([codes[c][label] for label in seen[c]])[out[j].astype(np.intp)]
    sample = SourceSample(out[2:].T, out[0], out[1])
    return sample, {"columns": list(schema.covariates), "category_codes": codes}


def _write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside the destination, then move it
    over the destination, so readers see the old file or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_source_csv(path, sample: SourceSample, schema: ColumnSchema) -> None:
    """Write a source sample; floats use shortest round-trip repr."""
    if len(schema.covariates) != sample.p:
        raise ValidationError("schema covariate count does not match the sample")
    lines = [",".join((schema.treatment, schema.outcome, *schema.covariates))]
    for a, y, x in zip(sample.A.tolist(), sample.Y.tolist(), sample.X.tolist()):
        lines.append(",".join([str(a), repr(y), *map(repr, x)]))
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_json(path):
    """The JSON value in a file; malformed JSON is a ValidationError naming
    the path, line and column."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def load_target_summary(path, spec: BasisSpec):
    """Read target H-term means from JSON; returns (raw vector, n_t).

    Keys are matched to the basis term names order-independently; the
    optional ``n_t`` entry carries the target sample size.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: target summary must be a JSON object")
    n_t = data.pop("n_t", None)
    if n_t is not None:
        if type(n_t) not in (int, float) or not (n_t >= 1 and n_t % 1 == 0):  # bool is neither
            raise ValidationError(f"{path}: n_t must be a positive whole number, got {n_t!r}")
        n_t = int(n_t)
    valid = spec.h_names
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ValidationError(
            f"unknown term(s) {unknown}; valid terms: {list(valid)}",
            code="UNKNOWN_TERM",
        )
    missing = sorted(set(valid) - set(data))
    if missing:
        raise ValidationError(
            f"missing term(s) {missing} in target summary", code="MISSING_TERM"
        )
    values = []
    for name in valid:
        v = data[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValidationError(
                f"target summary entry {name!r} must be a finite number",
                code="NON_FINITE_CELL",
            )
        values.append(float(v))
    if values[0] != 1.0:
        raise ValidationError(
            "constant entry of the target summary must be exactly 1",
            code="BAD_CONSTANT",
        )
    return np.array(values), n_t


def load_basis_json(path) -> BasisSpec:
    """Read a basis file: {"h": [term names], "g": [term names]}."""
    data = _read_json(path)
    if not isinstance(data, dict) or "h" not in data:
        raise ValidationError(f"{path}: basis file needs an 'h' term list")
    for side in ("h", "g"):
        names = data.get(side, [])
        if not isinstance(names, list) or not all(isinstance(t, str) for t in names):
            raise ValidationError(
                f"{path}: {side!r} must be a list of term names", code="UNKNOWN_TERM"
            )
    return BasisSpec.from_names(data["h"], data.get("g", []))


def load_scenarios_json(path) -> list:
    """Read a scenario file into a list of ScenarioConfigs.

    Either {"scenarios": [cell, ...]} with explicit cells (model tags or
    inline models), or {"builtin_grid": {overrides}} to expand the built-in
    12-cell grid.
    """
    from .simulation import ScenarioConfig, _numeric_fields, builtin_grid

    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: scenario file must be a JSON object")
    if "builtin_grid" in data:
        overrides = data["builtin_grid"] or {}
        if not isinstance(overrides, dict):
            raise ValidationError(f"{path}: 'builtin_grid' must be a JSON object")
        bad = sorted(set(overrides) - {"n", "replicates", "seed", "noise_sd"})
        if bad:
            raise ValidationError(f"builtin_grid overrides {bad} not supported")
        return list(builtin_grid(**_numeric_fields(overrides, "builtin_grid")))
    if "scenarios" in data:
        cells = data["scenarios"]
        if not isinstance(cells, list) or not cells:
            raise ValidationError(f"{path}: 'scenarios' must be a non-empty list")
        return [ScenarioConfig.from_dict(c) for c in cells]
    raise ValidationError(f"{path}: expected 'scenarios' or 'builtin_grid'")


def write_weights_csv(path, sample: SourceSample, weights) -> None:
    """Emit per-row weights with arm and provenance columns."""
    if weights.w.shape[0] != sample.n_s:
        raise ValidationError("weights misaligned with the sample")
    method = weights.method.value
    lines = ["row,treatment,weight,method"]
    for i, (a, w) in enumerate(zip(sample.A.tolist(), weights.w.tolist())):
        lines.append(f"{i},{a},{w!r},{method}")
    _write_atomic(path, "\n".join(lines) + "\n")


_ESTIMATE_LAYOUT = (("method", "s"), ("tau_hat", ".6f"), ("weight_min", ".4g"),
                    ("weight_max", ".4g"), ("ess_treated", ".1f"), ("ess_control", ".1f"))


class _Estimates(list):
    """A list of EstimateReports as one report, one row per estimator."""

    def to_dict(self) -> dict:
        return {
            "schema": "genbal/report/1",
            "kind": "estimates",
            "estimates": [dataclasses.asdict(r) for r in self],
        }

    def table(self, scale: float = 1.0):
        return _ESTIMATE_LAYOUT, [[getattr(r, c) for c, _ in _ESTIMATE_LAYOUT] for r in self]


def _table(rows) -> str:
    widths = [max(len(str(r[j])) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt: str = "human", path=None, scale_100: bool = False) -> str:
    """Render a report deterministically and optionally write it to a file.

    Accepts a list of EstimateReports or any report with ``to_dict()`` and
    ``table(scale)`` (a GridResult, an AsymptoticReport). JSON is the
    sorted ``to_dict()`` payload; CSV is the table's header and raw rows,
    quoted where a cell needs it; human is the table with each cell in its
    column's format. ``scale_100`` multiplies bias/sd/rmse by 100 in the
    human and CSV grid tables; JSON output always carries raw values.
    """
    if fmt not in ("human", "json", "csv"):
        raise ValidationError(f"unknown format {fmt!r}")
    if not hasattr(report, "table"):
        report = _Estimates(report)
        if not report:
            raise ValidationError("no estimates to report")
        if not all(isinstance(r, EstimateReport) for r in report):
            raise ValidationError("expected EstimateReport objects")
    if fmt == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    else:
        layout, rows = report.table(100.0 if scale_100 else 1.0)
        header = [c for c, _ in layout]
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([header, *rows])
            text = buf.getvalue()
        else:
            text = _table([header, *([format(v, f) for v, (_, f) in zip(row, layout)] for row in rows)])
    if path is not None:
        _write_atomic(path, text)
    return text
