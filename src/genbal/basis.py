"""Covariate-function bases, design matrices, and target summaries.

A basis declares two ordered sets of scalar covariate functions: H-side
terms (whose means are known for the target sample, constant first) and
G-side terms (balanced between arms within the source sample). Every
design column but the constant is centred and scaled, for solver
conditioning, as the treatment logit's are; target summaries in raw units
are mapped into the same coordinates by :func:`align_target_summary`. A
batch of samples is evaluated in one pass, each sample's moments taken
over its own rows after an exact power-of-two rescaling that keeps huge
and tiny covariates finite: its design is the one it gets alone.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np

from .errors import GenbalError, ValidationError, _one

__all__ = [
    "TRANSFORMS",
    "BasisTerm",
    "BasisSpec",
    "SourceSample",
    "DesignMatrices",
    "TargetSummary",
    "RankReport",
    "parse_term",
    "evaluate_basis",
    "align_target_summary",
    "check_design_rank",
]

# Registry of named scalar transforms usable as custom terms. Closed on
# purpose: term names must round-trip through text files.
TRANSFORMS = {
    "log1p": np.log1p,
    "abs": np.abs,
    "expclip": lambda x: np.exp(np.clip(x, -30.0, 30.0)),
}

_KINDS = ("constant", "identity", "power", "indicator", "product", "custom")


@dataclasses.dataclass(frozen=True)
class BasisTerm:
    """One scalar covariate function together with its side (H or G)."""

    kind: str
    side: str = "h"
    index: int | None = None
    index2: int | None = None
    degree: int | None = None
    category: float | None = None
    transform: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown basis term kind {self.kind!r}")
        if self.side not in ("h", "g"):
            raise ValidationError(f"term side must be 'h' or 'g', got {self.side!r}")
        if self.kind != "constant" and (self.index is None or self.index < 0):
            raise ValidationError(f"{self.kind} term needs a covariate index")
        if self.kind == "power" and (self.degree is None or self.degree < 2):
            raise ValidationError("power term needs an integer degree >= 2")
        if self.kind == "indicator" and not (self.category is not None and math.isfinite(self.category)):
            raise ValidationError(f"indicator term on x{self.index + 1} needs a finite category", "UNKNOWN_TERM")
        if self.kind == "product":
            if self.index2 is None or self.index2 < 0:
                raise ValidationError("product term needs two covariate indices")
            if self.index2 == self.index:
                raise ValidationError("product indices must differ; use power for squares")
        if self.kind == "custom" and self.transform not in TRANSFORMS:
            raise ValidationError(
                f"unknown transform {self.transform!r}; known: {sorted(TRANSFORMS)}"
            )

    @property
    def name(self) -> str:
        """Stable text name, also the key used in summary files."""
        if self.kind == "constant":
            return "const"
        if self.kind == "identity":
            return f"x{self.index + 1}"
        if self.kind == "power":
            return f"x{self.index + 1}^{self.degree}"
        if self.kind == "indicator":
            return f"x{self.index + 1}={self.category:g}"
        if self.kind == "product":
            return f"x{self.index + 1}:x{self.index2 + 1}"
        return f"{self.transform}(x{self.index + 1})"

    def indices(self) -> frozenset[int]:
        """The covariate indices the term reads."""
        if self.kind == "constant":
            return frozenset()
        if self.kind == "product":
            return frozenset((self.index, self.index2))
        return frozenset((self.index,))

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.kind == "constant":
            return np.ones(X.shape[0])
        if self.kind == "identity":
            return X[:, self.index].copy()
        if self.kind == "power":
            return X[:, self.index] ** self.degree
        if self.kind == "indicator":
            return (X[:, self.index] == self.category).astype(float)
        if self.kind == "product":
            return X[:, self.index] * X[:, self.index2]
        return TRANSFORMS[self.transform](X[:, self.index])


_TERM_PATTERNS = (
    (re.compile(r"^const$"), lambda m, side: BasisTerm("constant", side)),
    (re.compile(r"^x(\d+)$"), lambda m, side: BasisTerm("identity", side, index=int(m.group(1)) - 1)),
    (
        re.compile(r"^x(\d+)\^(\d+)$"),
        lambda m, side: BasisTerm("power", side, index=int(m.group(1)) - 1, degree=int(m.group(2))),
    ),
    (
        re.compile(r"^x(\d+)=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)$"),
        lambda m, side: BasisTerm("indicator", side, index=int(m.group(1)) - 1,
                                  category=float(m.group(2))),
    ),
    (
        re.compile(r"^x(\d+):x(\d+)$"),
        lambda m, side: BasisTerm("product", side, index=int(m.group(1)) - 1,
                                  index2=int(m.group(2)) - 1),
    ),
    (
        re.compile(r"^(\w+)\(x(\d+)\)$"),
        lambda m, side: BasisTerm("custom", side, index=int(m.group(2)) - 1, transform=m.group(1)),
    ),
)


def parse_term(text: str, side: str = "h") -> BasisTerm:
    """Parse a term name like ``x2``, ``x1^2``, ``x3=1`` or ``log1p(x4)``.

    Covariate indices in names are 1-based.
    """
    text = text.strip()
    for pattern, build in _TERM_PATTERNS:
        m = pattern.match(text)
        if m:
            return build(m, side)
    raise ValidationError(f"cannot parse basis term {text!r}", code="UNKNOWN_TERM")


@dataclasses.dataclass(frozen=True)
class BasisSpec:
    """Ordered H-side and G-side covariate functions.

    Invariants: exactly one constant term, on the H side and first among
    the H terms; no term (by name) appears twice. Linear independence of
    the union is a numerical matter, checked on data by each solve in
    :mod:`genbal.solver` for the design it solves.
    """

    terms: tuple[BasisTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        consts = [t for t in terms if t.kind == "constant"]
        if len(consts) != 1:
            raise ValidationError("basis must contain exactly one constant term")
        if consts[0].side != "h":
            raise ValidationError("the constant term must sit on the H side")
        if self.h_terms[0].kind != "constant":
            raise ValidationError("the constant must be the first H-side term")
        names = [t.name for t in terms]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValidationError(f"duplicate basis terms: {dupes}")

    @functools.cached_property
    def h_terms(self) -> tuple[BasisTerm, ...]:
        return tuple(t for t in self.terms if t.side == "h")

    @functools.cached_property
    def g_terms(self) -> tuple[BasisTerm, ...]:
        return tuple(t for t in self.terms if t.side == "g")

    @functools.cached_property
    def h_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.h_terms)

    @functools.cached_property
    def g_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.g_terms)

    @property
    def k_h(self) -> int:
        """Number of non-constant H terms."""
        return len(self.h_terms) - 1

    @property
    def k_g(self) -> int:
        return len(self.g_terms)

    def max_index(self) -> int:
        return max(frozenset().union(*(t.indices() for t in self.terms)), default=-1)

    def h_only(self) -> "BasisSpec":
        return BasisSpec(self.h_terms)

    def evaluate_h(self, X: np.ndarray) -> np.ndarray:
        """Raw (unstandardized) H columns for arbitrary covariate rows."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack([t.evaluate(X) for t in self.h_terms])

    def evaluate_g(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not self.g_terms:
            return np.empty((X.shape[0], 0))
        return np.column_stack([t.evaluate(X) for t in self.g_terms])

    @classmethod
    def from_names(cls, h, g=()) -> "BasisSpec":
        terms = [parse_term(t, "h") for t in h] + [parse_term(t, "g") for t in g]
        return cls(tuple(terms))


def _numeric(values, name) -> np.ndarray:
    """``values`` as a float array, or a ValidationError naming ``name``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"non-numeric value in {name}", code="NON_FINITE_CELL") from None


@dataclasses.dataclass(frozen=True)
class SourceSample:
    """Individual-level source data: covariates, binary treatment, outcome."""

    X: np.ndarray
    A: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(_numeric(self.X, "X (covariates)"))
        A = _numeric(self.A, "A (treatment)")
        Y = _numeric(self.Y, "Y (outcomes)").ravel()
        if X.ndim != 2:
            raise ValidationError("X must be a 2-d (n_s, p) array")
        n = X.shape[0]
        if A.shape != (n,) or Y.shape != (n,):
            raise ValidationError("X, A, Y must agree on the number of rows")
        if not np.isfinite(X).all():
            raise ValidationError("non-finite value in covariates", code="NON_FINITE_CELL")
        if not np.isfinite(Y).all():
            raise ValidationError("non-finite value in outcomes", code="NON_FINITE_CELL")
        if not ((A == 0) | (A == 1)).all():
            raise ValidationError(
                "treatment must contain only 0/1 values", code="NON_BINARY_TREATMENT"
            )
        A = A.astype(np.int64)
        if A.sum() == 0 or A.sum() == n:
            raise ValidationError("both treatment arms must be non-empty")
        for arr in (X, A, Y):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Y", Y)

    @property
    def n_s(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def s1(self) -> np.ndarray:
        """Indices of the treated arm."""
        return np.flatnonzero(self.A == 1)

    @property
    def s0(self) -> np.ndarray:
        """Indices of the control arm."""
        return np.flatnonzero(self.A == 0)

    @property
    def treated(self) -> np.ndarray:
        return self.A == 1


def _source_samples(X, A, Y, sizes) -> list:
    """Read-only SourceSamples of members whose float X, Y and 0/1 int64 A lie back to back, ``sizes``
    rows each, checked once over the batch; if that fails, each is built alone to raise its own error."""
    ones = np.add.reduceat(A, at := np.cumsum(sizes) - sizes)
    if not (np.isfinite(X).all() and np.isfinite(Y).all() and ((ones > 0) & (ones < sizes)).all()):
        return [SourceSample(*(v[a:a + k] for v in (X, A, Y))) for a, k in zip(at, sizes)]
    samples = [object.__new__(SourceSample) for _ in at]
    for name, arr in zip("XAY", (X, A, Y)):
        arr.setflags(write=False)
        for sample, part in zip(samples, np.split(arr, at[1:])):
            object.__setattr__(sample, name, part)
    return samples


@dataclasses.dataclass(frozen=True)
class DesignMatrices:
    """Materialized H and G columns plus the affine scaling that produced them.

    ``h[:, 0]`` is always the constant column of ones; its recorded center
    is 0 and scale is 1 in every code path. ``rows`` holds the [H | G] rows
    of the batch the design was built in, each member's after a zero row,
    from ``first`` on for this one; a design built by hand gets its own.
    """

    spec: BasisSpec
    h: np.ndarray
    g: np.ndarray
    h_center: np.ndarray
    h_scale: np.ndarray
    g_center: np.ndarray
    g_scale: np.ndarray
    rows: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)
    first: int = dataclasses.field(default=1, repr=False, compare=False)

    def __post_init__(self):
        if not (self.h[:, 0] == 1.0).all():
            raise ValidationError("first H column must be the constant 1")
        if not (np.all(self.h_scale) and np.all(self.g_scale)):
            raise ValidationError("recorded scaling must be invertible")
        if self.rows is None:
            object.__setattr__(self, "rows", np.vstack([np.zeros((1, self.h.shape[1] + self.g.shape[1])),
                                                       np.hstack([self.h, self.g])]))
        for arr in (self.h, self.g, self.h_center, self.h_scale, self.g_center, self.g_scale, self.rows):
            np.asarray(arr).setflags(write=False)

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclasses.dataclass(frozen=True)
class TargetSummary:
    """Target-sample means of the H terms, in design coordinates.

    ``values`` aligns with the H columns of the design the summary was
    built against.
    """

    values: np.ndarray
    n_t: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values[0] != 1.0:
            raise ValidationError(
                "constant entry of the target summary must be exactly 1",
                code="BAD_CONSTANT",
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def evaluate_basis(spec: BasisSpec, sample: SourceSample) -> DesignMatrices:
    """Materialize H(X_i) and G(X_i) for every source row.

    Non-constant columns are standardized (subtract mean, divide by the
    uncorrected divide-by-n standard deviation) and the parameters are
    recorded so target summaries can be mapped into the same coordinates.
    """
    return _one(_design_batch(spec, [sample])[0])


def _design_batch(spec: BasisSpec, samples) -> list:
    """Each sample's DesignMatrices, or the ValidationError that stops it,
    from one evaluation of every term over all the samples' rows, laid back
    to back with a zero row before each sample's. Centers and scales are
    ``np.add.reduceat`` sums over a sample's own segment, which, led by the
    zero, sum as NumPy sums the sample alone. Each column is first scaled
    by the power of two of its largest magnitude (exact, and the squares of
    huge or tiny values stay finite and nonzero); the recorded center and
    scale carry the factor. The designs are views of one array of rows."""
    q = spec.max_index() + 1
    out = [ValidationError(f"basis references covariate x{q} but the sample has p={s.p}",
                           code="INDEX_OUT_OF_RANGE") if q > s.p else None for s in samples]
    ok = [i for i, err in enumerate(out) if err is None]
    if not ok:
        return out
    n = np.array([samples[i].n_s for i in ok])
    start = np.cumsum(n + 1) - (n + 1)  # each member's zero row
    X = np.concatenate([x for i in ok for x in (np.zeros((1, q)), samples[i].X[:, :q])])
    terms = spec.h_terms + spec.g_terms
    rows = np.empty((X.shape[0], len(terms)))
    rows[:, 0] = terms[0].evaluate(X)  # the constant column is never touched
    e = np.zeros((len(terms), len(ok)), dtype=int)
    center, sd = np.zeros((2, len(terms), len(ok)))
    # only a member with a non-finite or zero-variance column can overflow,
    # divide by zero or make a NaN here, and it fails below
    with np.errstate(all="ignore"):
        for j, term in enumerate(terms[1:], 1):
            raw = term.evaluate(X)
            raw[start] = 0.0
            e[j] = np.maximum(np.frexp(np.maximum.reduceat(np.abs(raw), start))[1], -1022)
            v = raw * np.repeat(np.ldexp(1.0, -e[j]), n + 1)
            center[j] = np.add.reduceat(v, start) / n
            v -= np.repeat(center[j], n + 1)
            v[start] = 0.0
            sd[j] = np.sqrt(np.add.reduceat(v * v, start) / n)
            rows[:, j] = v / np.repeat(sd[j], n + 1)
    rows[start] = 0.0
    sd[0], finite = 1.0, np.isfinite(center).all(axis=0)  # a non-finite value makes its sum non-finite
    center, scale = np.ldexp(center, e).T, np.ldexp(sd, e).T
    degenerate, kh = sd == 0, len(spec.h_terms)
    for r, (i, j, a) in enumerate(zip(ok, degenerate.argmax(axis=0).tolist(), (start + 1).tolist())):
        if not finite[r]:
            out[i] = ValidationError("basis evaluation produced non-finite values", code="NON_FINITE_CELL")
        elif degenerate[j, r]:
            out[i] = ValidationError(f"degenerate basis term {terms[j].name!r}: zero variance in the sample",
                                     code="DEGENERATE_TERM")
        else:
            block = rows[a:a + n[r]]
            out[i] = DesignMatrices(spec, block[:, :kh], block[:, kh:], center[r, :kh], scale[r, :kh],
                                    center[r, kh:], scale[r, kh:], rows, a)
    return out


def align_target_summary(spec: BasisSpec, raw, design: DesignMatrices, n_t: int | None = None) -> TargetSummary:
    """Map raw target means onto the design's standardized coordinates."""
    return _one(_align_batch(spec, [raw], [design], [n_t])[0])


def _align_batch(spec: BasisSpec, raws, designs, n_ts) -> list:
    """Each member's TargetSummary, or the error that stops it: its design's, else the first
    failed check of its raw means (basis, length, constant, finiteness), the last of which
    and the map into design coordinates take one pass over the members that get that far."""
    out, k = list(designs), len(spec.h_terms)
    for i, design in [(i, d) for i, d in enumerate(designs) if not isinstance(d, GenbalError)]:
        if design.spec.h_names != spec.h_names:
            out[i] = ValidationError("design was built from a different basis")
        elif (raw := np.asarray(raws[i], dtype=float).ravel()).shape[0] != k:
            out[i] = ValidationError(f"target summary has {raw.shape[0]} entries, basis has {k} H terms",
                                     code="LENGTH_MISMATCH")
        else:
            out[i] = raw if raw[0] == 1.0 else ValidationError(
                "constant entry of the target summary must be exactly 1", code="BAD_CONSTANT")
    ok = [i for i, raw in enumerate(out) if isinstance(raw, np.ndarray)]
    if ok:
        raw = np.array([out[i] for i in ok])
        values = (raw - np.array([designs[i].h_center for i in ok])) / np.array([designs[i].h_scale for i in ok])
        for i, finite, v in zip(ok, np.isfinite(raw).all(axis=1).tolist(), values):
            out[i] = (TargetSummary(v, n_ts[i]) if finite
                      else ValidationError("non-finite target summary entry", code="NON_FINITE_CELL"))
    return out


@dataclasses.dataclass(frozen=True)
class RankReport:
    """Numerical rank diagnostics for the concatenated [H | G] matrix."""

    singular_values: np.ndarray
    rank: int
    n_columns: int
    condition_number: float
    deficient: bool
    tol: float


def check_design_rank(design: DesignMatrices, tol: float = 1e-10) -> RankReport:
    """Diagnose (near-)collinearity of the union basis on the data.

    A diagnostic only: the solvers check the rank of the design they
    solve, which for the joint problem splits H by treatment arm.
    """
    return matrix_rank_report(np.hstack([design.h, design.g]), tol)


def matrix_rank_report(m: np.ndarray, tol: float = 1e-10) -> RankReport:
    if m.shape[1] == 0:
        return RankReport(np.empty(0), 0, 0, 1.0, False, tol)
    sv = np.linalg.svd(m, compute_uv=False)
    smax = float(sv[0])
    if smax == 0.0:
        return RankReport(sv, 0, m.shape[1], np.inf, True, tol)
    rank = int((sv > smax * tol).sum())
    # fewer rows than columns: the missing singular values are zero
    smin = float(sv[-1]) if m.shape[0] >= m.shape[1] else 0.0
    cond = np.inf if smin == 0.0 else smax / smin
    return RankReport(sv, rank, m.shape[1], cond, rank < m.shape[1], tol)
