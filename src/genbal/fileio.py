"""CSV/JSON ingestion and report emission.

Rectangular data travels as CSV, summaries and configs as JSON. Loaders
fail with typed errors naming the offending cell; nothing is imputed or
silently dropped. A source CSV with no categorical column is read by one
np.loadtxt call, which converts every column. A file it cannot take whole
(an empty, non-numeric or ``1_0``-like cell in any column, no rows, a wrong
width, a non-finite schema cell, a non-0/1 treatment) is parsed again by
one column-wise pass, which reports any error: blank rows are skipped (they
still count in line numbers), the other rows are transposed, each numeric
column is converted with one float() map, and row lengths, finiteness and
0/1 treatment are checked on whole columns. Only when a check fails are the
rows walked in file order, so the error names the first bad cell: the
earliest line, and within a line the treatment, the outcome, then the
covariates in schema order.

Writers build the full output in memory first and write it to a
temporary file beside the destination, which then replaces the
destination in one step, so no partial files are left behind.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .basis import BasisSpec, SourceSample
from .errors import ValidationError
from .estimators import EstimateReport

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
    if not text:
        raise ValidationError(
            f"empty cell at line {line}, column {column!r}", code="NON_FINITE_CELL"
        )
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric value {text!r} at line {line}, column {column!r}",
            code="NON_FINITE_CELL",
        ) from None
    if not math.isfinite(value):
        raise ValidationError(
            f"non-finite value {text!r} at line {line}, column {column!r}",
            code="NON_FINITE_CELL",
        )
    return value


def _float_column(cells):
    """The cells as a float array, or None if one is not a finite number."""
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        # float() strips less than str.strip() does (not \x1c-\x1f), so
        # retry on exactly what _parse_float converts before giving up
        try:
            values = np.fromiter(map(float, map(str.strip, cells)), float, len(cells))
        except ValueError:
            return None
    return values if np.isfinite(values).all() else None


def _parse_columns(data, width, idx, schema: ColumnSchema):
    """Treatment, outcome, covariate columns and category codes from the
    non-blank data rows in one column-wise pass, or None if a check fails."""
    if any(len(row) != width for row in data):
        return None
    cells = list(zip(*data))
    a = _float_column(cells[idx[schema.treatment]])
    if a is None or not ((a == 0.0) | (a == 1.0)).all():
        return None
    y = _float_column(cells[idx[schema.outcome]])
    if y is None:
        return None
    codes = {}
    columns = []
    for c in schema.covariates:
        if c in schema.categorical:
            labels = [cell.strip() for cell in cells[idx[c]]]
            if "" in labels:
                return None
            mapping = {label: float(code) for code, label in enumerate(sorted(set(labels)))}
            codes[c] = mapping
            column = [mapping[v] for v in labels]
        else:
            column = _float_column(cells[idx[c]])
            if column is None:
                return None
        columns.append(column)
    return a, y, columns, codes


def _raise_first_bad_cell(rows, idx, schema: ColumnSchema):
    """Walk the data rows in file order and raise the first bad cell's
    error. Within a row: length, treatment, outcome, then covariates in
    schema order."""
    width = len(rows[0])
    for line, row in enumerate(rows[1:], start=2):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            raise ValidationError(f"line {line} has {len(row)} cells, header has {width}")
        a = _parse_float(row[idx[schema.treatment]], line, schema.treatment)
        if a not in (0.0, 1.0):
            raise ValidationError(
                f"non-binary treatment value {a:g} at line {line}, "
                f"column {schema.treatment!r}",
                code="NON_BINARY_TREATMENT",
            )
        _parse_float(row[idx[schema.outcome]], line, schema.outcome)
        for c in schema.covariates:
            if c not in schema.categorical:
                _parse_float(row[idx[c]], line, c)
            elif not row[idx[c]].strip():
                raise ValidationError(
                    f"empty cell at line {line}, column {c!r}", code="NON_FINITE_CELL"
                )


def _read_plain(path, schema: ColumnSchema):
    """(X, A, Y) from one np.loadtxt call, or None if the column-wise pass must read the file."""
    needed = (schema.treatment, schema.outcome, *schema.covariates)
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns when it finds no rows
            header = [c.strip() for c in next(csv.reader(fh), [])]
            cols = [header.index(c) for c in needed]
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a used column is missing, or loadtxt cannot read a cell: the pass decides
        return None
    if not len(data) or data.shape[1] != len(header) or any(header.count(c) > 1 for c in needed):
        return None
    X, a, y = np.asfortranarray(data[:, cols[2:]]), data[:, cols[0]], data[:, cols[1]]
    if not (np.isfinite(X).all() and np.isfinite(y).all() and ((a == 0.0) | (a == 1.0)).all()):
        return None  # the pass, like this check, reads only the schema's columns
    return X, a, y


def load_source_csv(path, schema: ColumnSchema):
    """Read a source sample; returns (SourceSample, metadata).

    Metadata records the covariate column order and, for categorical
    columns, the label-to-code mapping used to build the numeric matrix.
    """
    plain = None if schema.categorical else _read_plain(path, schema)
    if plain is not None:
        return SourceSample(*plain), {"columns": list(schema.covariates), "category_codes": {}}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    needed = (schema.treatment, schema.outcome, *schema.covariates)
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValidationError(
            f"{path}: missing column(s) {missing}; header has {header}",
            code="MISSING_COLUMN",
        )
    wanted = set(needed)
    _no_repeats([c for c in header if c in wanted], f"in the header of {path} more than once")
    idx = {c: header.index(c) for c in needed}
    data = [row for row in rows[1:] if "".join(row).strip()]
    if not data:
        raise ValidationError(f"{path}: no data rows")
    parsed = _parse_columns(data, len(header), idx, schema)
    if parsed is None:
        _raise_first_bad_cell(rows, idx, schema)
    a, y, columns, codes = parsed
    X = np.array(columns, dtype=float).T
    sample = SourceSample(X, a, y)
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
