"""Symbolic covariate-function models for simulation and the theory oracle.

A model is a sum of terms from a small vocabulary (constant, linear,
square, pairwise max, exp of an affine form). That is enough to express
the built-in scenario families and keeps configs portable as JSON. JSON
indices are 1-based ("x3" means the third covariate).
"""

from __future__ import annotations

import dataclasses
import re
import sys

import numpy as np

from .errors import ValidationError

__all__ = [
    "FunctionTerm",
    "CovariateFunction",
    "basis_coefficients",
    "in_h_span",
    "PARTICIPATION_LOGIT",
    "PROPENSITY_MODELS",
    "CATE_MODELS",
    "BASELINE_MODELS",
]

_TERM_KINDS = ("const", "linear", "square", "max2", "expaffine")


@dataclasses.dataclass(frozen=True)
class FunctionTerm:
    kind: str
    coef: float
    index: int | None = None
    index2: int | None = None
    offset: float = 0.0
    slopes: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind not in _TERM_KINDS:
            raise ValidationError(f"unknown model term kind {self.kind!r}")
        if self.kind in ("linear", "square") and self.index is None:
            raise ValidationError(f"{self.kind} term needs an index")
        if self.kind == "max2" and (self.index is None or self.index2 is None):
            raise ValidationError("max2 term needs two indices")
        if self.kind == "expaffine" and not self.slopes:
            raise ValidationError("expaffine term needs at least one slope")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.full(X.shape[0], self.coef)
        if self.kind == "linear":
            return self.coef * X[:, self.index]
        if self.kind == "square":
            return self.coef * X[:, self.index] ** 2
        if self.kind == "max2":
            return self.coef * np.maximum(X[:, self.index], X[:, self.index2])
        s = np.full(X.shape[0], self.offset)
        for i, c in self.slopes:
            s += c * X[:, i]
        return self.coef * np.exp(s)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "coef": self.coef}
        if self.index is not None:
            d["index"] = self.index + 1
        if self.index2 is not None:
            d["index2"] = self.index2 + 1
        if self.kind == "expaffine":
            d["offset"] = self.offset
            d["slopes"] = {f"x{i + 1}": c for i, c in self.slopes}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionTerm":
        """A term from its JSON object; a bad key is a ValidationError naming it."""
        if not isinstance(d, dict) or "kind" not in d or "coef" not in d:
            raise ValidationError(f"a model term must be an object with 'kind' and 'coef', got {d!r}")
        for key in ("index", "index2"):
            if key in d and not (type(d[key]) is int and d[key] >= 1):
                raise ValidationError(f"model term {key} must be an integer >= 1, got {d[key]!r}")
        slopes = d.get("slopes", {})
        if not (isinstance(slopes, dict) and all(re.fullmatch("x[1-9][0-9]*", str(k)) for k in slopes)):
            raise ValidationError(f"model term slopes must map names like 'x3' to numbers, got {slopes!r}")
        for key, value in {"coef": d["coef"], "offset": d.get("offset", 0.0), **slopes}.items():
            if type(value) not in (int, float):  # bool is neither
                raise ValidationError(f"model term {key} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int too big for a float
                raise ValidationError(f"model term {key} must be finite, got {value!r}")
        return cls(
            kind=d["kind"],
            coef=float(d["coef"]),
            index=d["index"] - 1 if "index" in d else None,
            index2=d["index2"] - 1 if "index2" in d else None,
            offset=float(d.get("offset", 0.0)),
            slopes=tuple(sorted((int(key[1:]) - 1, float(c)) for key, c in slopes.items())),
        )


@dataclasses.dataclass(frozen=True)
class CovariateFunction:
    terms: tuple[FunctionTerm, ...]

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0])
        for term in self.terms:
            out += term.evaluate(X)
        return out

    def indices(self) -> frozenset[int]:
        """0-based indices of the covariates the function reads."""
        used = set()
        for t in self.terms:
            used.update(i for i in (t.index, t.index2) if i is not None)
            used.update(i for i, _ in t.slopes)
        return frozenset(used)

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms]}

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateFunction":
        if not (isinstance(d, dict) and isinstance(d.get("terms"), list)):
            raise ValidationError(f"expected a model tag or an object with a 'terms' list, got {d!r}")
        return cls(tuple(FunctionTerm.from_dict(t) for t in d["terms"]))


def _lin(*pairs) -> CovariateFunction:
    return CovariateFunction(tuple(FunctionTerm("linear", c, index=i) for i, c in pairs))


def basis_coefficients(fn: CovariateFunction, spec):
    """Coefficients of ``fn`` over the basis terms, or None.

    Succeeds when every model term maps onto a basis term (const to the
    constant, linear to identity, square to degree-2 power) that the spec
    actually contains. Returns (lam, gamma) aligned to the H and G terms.
    """
    by_name = {}
    for term in fn.terms:
        if term.kind == "const":
            name = "const"
        elif term.kind == "linear":
            name = f"x{term.index + 1}"
        elif term.kind == "square":
            name = f"x{term.index + 1}^2"
        else:
            return None
        by_name[name] = by_name.get(name, 0.0) + term.coef
    known = set(spec.h_names) | set(spec.g_names)
    if not set(by_name) <= known:
        return None
    lam = np.array([by_name.get(n, 0.0) for n in spec.h_names])
    gamma = np.array([by_name.get(n, 0.0) for n in spec.g_names])
    return lam, gamma


def in_h_span(fn: CovariateFunction, spec) -> bool:
    """Whether ``fn`` is an exact linear combination of the H terms."""
    decomp = basis_coefficients(fn, spec)
    if decomp is None:
        return False
    _, gamma = decomp
    return bool(gamma.size == 0 or np.all(gamma == 0.0))


# Built-in scenario families. Participation drives covariate shift in
# x1, x2, x4; the H terms cover (1, x1, x2, x3) and G covers (x4, x5).
PARTICIPATION_LOGIT = _lin((0, 0.4), (1, 0.3), (3, -0.2))

PROPENSITY_MODELS = {
    "P1": _lin((1, 0.7), (2, 0.5)),
    "P2": _lin((1, 0.35), (2, 0.25), (3, 0.2), (4, -0.7)),
    "P3": CovariateFunction((
        FunctionTerm("linear", 0.35, index=1),
        FunctionTerm("max2", -0.4, index=2, index2=3),
        FunctionTerm("linear", -0.7, index=4),
    )),
}

CATE_MODELS = {
    "T1": _lin((0, 1.0), (1, -0.6), (2, -0.4)),
    "T2": CovariateFunction((
        FunctionTerm("linear", 1.0, index=0),
        FunctionTerm("expaffine", -0.5, slopes=((1, 1.0), (2, -0.5))),
    )),
}

BASELINE_MODELS = {
    "M1": _lin((0, 0.5), (1, 0.3), (2, 0.3), (3, -0.4), (4, -0.5)),
    "M2": CovariateFunction((
        FunctionTerm("linear", 0.5, index=0),
        FunctionTerm("square", 0.3, index=1),
        FunctionTerm("expaffine", 0.2, offset=-1.0, slopes=((2, 1.0), (3, -1.0))),
        FunctionTerm("linear", -0.5, index=4),
    )),
}
