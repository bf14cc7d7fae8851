"""Covariate-function bases, design matrices, and target summaries.

A basis declares two ordered sets of scalar covariate functions: H-side
terms (whose means are known for the target sample, constant first) and
G-side terms (balanced between arms within the source sample). Designs
are standardized column by column for solver conditioning; the constant
column is never touched, and target summaries supplied in raw units are
mapped into the same coordinates by :func:`align_target_summary`.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from .errors import ValidationError

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
        if self.kind == "indicator" and self.category is None:
            raise ValidationError("indicator term needs a category value")
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

    def max_index(self) -> int:
        if self.kind == "constant":
            return -1
        if self.kind == "product":
            return max(self.index, self.index2)
        return self.index

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


def identity(index: int, side: str = "h") -> BasisTerm:
    return BasisTerm("identity", side, index=index)


def power(index: int, degree: int, side: str = "h") -> BasisTerm:
    return BasisTerm("power", side, index=index, degree=degree)


def indicator(index: int, category: float, side: str = "h") -> BasisTerm:
    return BasisTerm("indicator", side, index=index, category=float(category))


def product(index: int, index2: int, side: str = "h") -> BasisTerm:
    return BasisTerm("product", side, index=index, index2=index2)


def custom(transform: str, index: int, side: str = "h") -> BasisTerm:
    return BasisTerm("custom", side, index=index, transform=transform)


_TERM_PATTERNS = (
    (re.compile(r"^const$"), lambda m, side: BasisTerm("constant", side)),
    (re.compile(r"^x(\d+)$"), lambda m, side: identity(int(m.group(1)) - 1, side)),
    (
        re.compile(r"^x(\d+)\^(\d+)$"),
        lambda m, side: power(int(m.group(1)) - 1, int(m.group(2)), side),
    ),
    (
        re.compile(r"^x(\d+)=([-+0-9.eE]+)$"),
        lambda m, side: indicator(int(m.group(1)) - 1, float(m.group(2)), side),
    ),
    (
        re.compile(r"^x(\d+):x(\d+)$"),
        lambda m, side: product(int(m.group(1)) - 1, int(m.group(2)) - 1, side),
    ),
    (
        re.compile(r"^(\w+)\(x(\d+)\)$"),
        lambda m, side: custom(m.group(1), int(m.group(2)) - 1, side),
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
    the union is a numerical matter, checked on data by
    :func:`check_design_rank`.
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

    @property
    def h_terms(self) -> tuple[BasisTerm, ...]:
        return tuple(t for t in self.terms if t.side == "h")

    @property
    def g_terms(self) -> tuple[BasisTerm, ...]:
        return tuple(t for t in self.terms if t.side == "g")

    @property
    def h_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.h_terms)

    @property
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
        return max(t.max_index() for t in self.terms)

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


@dataclasses.dataclass(frozen=True)
class SourceSample:
    """Individual-level source data: covariates, binary treatment, outcome."""

    X: np.ndarray
    A: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        A = np.asarray(self.A)
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValidationError("X must be a 2-d (n_s, p) array")
        n = X.shape[0]
        if A.shape != (n,) or Y.shape != (n,):
            raise ValidationError("X, A, Y must agree on the number of rows")
        if not np.isfinite(X).all():
            raise ValidationError("non-finite value in covariates", code="NON_FINITE_CELL")
        if not np.isfinite(Y).all():
            raise ValidationError("non-finite value in outcomes", code="NON_FINITE_CELL")
        a = np.asarray(A, dtype=float)
        if not np.isfinite(a).all() or not np.isin(a, (0.0, 1.0)).all():
            raise ValidationError(
                "treatment must contain only 0/1 values", code="NON_BINARY_TREATMENT"
            )
        A = a.astype(np.int64)
        if A.sum() == 0 or A.sum() == n:
            raise ValidationError("both treatment arms must be non-empty")
        for arr in (X, A, Y):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Y", Y)
        s1 = np.flatnonzero(A == 1)
        s0 = np.flatnonzero(A == 0)
        s1.setflags(write=False)
        s0.setflags(write=False)
        object.__setattr__(self, "_s1", s1)
        object.__setattr__(self, "_s0", s0)

    @property
    def n_s(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def s1(self) -> np.ndarray:
        """Indices of the treated arm."""
        return self._s1

    @property
    def s0(self) -> np.ndarray:
        """Indices of the control arm."""
        return self._s0

    @property
    def treated(self) -> np.ndarray:
        return self.A == 1


@dataclasses.dataclass(frozen=True)
class DesignMatrices:
    """Materialized H and G columns plus the affine scaling that produced them.

    ``h[:, 0]`` is always the constant column of ones; its recorded center
    is 0 and scale is 1 in every code path.
    """

    spec: BasisSpec
    h: np.ndarray
    g: np.ndarray
    h_center: np.ndarray
    h_scale: np.ndarray
    g_center: np.ndarray
    g_scale: np.ndarray
    standardized: bool = True

    def __post_init__(self):
        if not np.all(self.h[:, 0] == 1.0):
            raise ValidationError("first H column must be the constant 1")
        if np.any(self.h_scale == 0) or np.any(self.g_scale == 0):
            raise ValidationError("recorded scaling must be invertible")
        for arr in (self.h, self.g, self.h_center, self.h_scale, self.g_center, self.g_scale):
            np.asarray(arr).setflags(write=False)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def stacked(self) -> np.ndarray:
        return np.hstack([self.h, self.g])

    def h_only(self) -> "DesignMatrices":
        empty = np.empty((self.n, 0))
        return DesignMatrices(
            spec=self.spec.h_only(),
            h=self.h,
            g=empty,
            h_center=self.h_center,
            h_scale=self.h_scale,
            g_center=np.empty(0),
            g_scale=np.empty(0),
            standardized=self.standardized,
        )


@dataclasses.dataclass(frozen=True)
class TargetSummary:
    """Target-sample means of the H terms, in design coordinates.

    ``values`` aligns with the H columns of the design the summary was
    built against; ``raw_values`` keeps the user-supplied raw means.
    """

    values: np.ndarray
    raw_values: np.ndarray
    n_t: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        raw = np.asarray(self.raw_values, dtype=float)
        if values[0] != 1.0:
            raise ValidationError(
                "constant entry of the target summary must be exactly 1",
                code="BAD_CONSTANT",
            )
        values.setflags(write=False)
        raw.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "raw_values", raw)


def evaluate_basis(spec: BasisSpec, sample: SourceSample, standardize: bool = True) -> DesignMatrices:
    """Materialize H(X_i) and G(X_i) for every source row.

    Non-constant columns are standardized (subtract mean, divide by the
    uncorrected divide-by-n standard deviation) and the parameters are
    recorded so target summaries can be mapped into the same coordinates.
    """
    if spec.max_index() >= sample.p:
        raise ValidationError(
            f"basis references covariate x{spec.max_index() + 1} but the sample has p={sample.p}",
            code="INDEX_OUT_OF_RANGE",
        )
    raw_h = spec.evaluate_h(sample.X)
    raw_g = spec.evaluate_g(sample.X)
    if not np.isfinite(raw_h).all() or not np.isfinite(raw_g).all():
        raise ValidationError(
            "basis evaluation produced non-finite values", code="NON_FINITE_CELL"
        )

    def _scaling(cols, terms, skip_constant):
        center = np.zeros(cols.shape[1])
        scale = np.ones(cols.shape[1])
        for j, term in enumerate(terms):
            if skip_constant and j == 0:
                continue
            sd = float(cols[:, j].std())
            if sd == 0.0:
                raise ValidationError(
                    f"degenerate basis term {term.name!r}: zero variance in the sample",
                    code="DEGENERATE_TERM",
                )
            if standardize:
                center[j] = float(cols[:, j].mean())
                scale[j] = sd
        return center, scale

    h_center, h_scale = _scaling(raw_h, spec.h_terms, skip_constant=True)
    g_center, g_scale = _scaling(raw_g, spec.g_terms, skip_constant=False)
    h = (raw_h - h_center) / h_scale
    g = (raw_g - g_center) / g_scale if raw_g.size else raw_g
    return DesignMatrices(
        spec=spec,
        h=h,
        g=g,
        h_center=h_center,
        h_scale=h_scale,
        g_center=g_center,
        g_scale=g_scale,
        standardized=standardize,
    )


def align_target_summary(
    spec: BasisSpec,
    raw,
    design: DesignMatrices,
    n_t: int | None = None,
) -> TargetSummary:
    """Map raw target means onto the design's standardized coordinates."""
    if design.spec.h_names != spec.h_names:
        raise ValidationError("design was built from a different basis")
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.shape[0] != len(spec.h_terms):
        raise ValidationError(
            f"target summary has {raw.shape[0]} entries, basis has {len(spec.h_terms)} H terms",
            code="LENGTH_MISMATCH",
        )
    if raw[0] != 1.0:
        raise ValidationError(
            "constant entry of the target summary must be exactly 1", code="BAD_CONSTANT"
        )
    if not np.isfinite(raw).all():
        raise ValidationError("non-finite target summary entry", code="NON_FINITE_CELL")
    values = (raw - design.h_center) / design.h_scale
    return TargetSummary(values=values, raw_values=raw, n_t=n_t)


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
    """Diagnose (near-)collinearity of the union basis on the data."""
    return matrix_rank_report(design.stacked(), tol)


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
