"""Basis construction, standardization, target alignment, rank checks."""

import numpy as np
import pytest

import genbal as gb
from genbal.basis import matrix_rank_report, parse_term
from genbal.errors import ValidationError


def _sample(X, A=None, Y=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if A is None:
        A = np.array([1] * (n // 2) + [0] * (n - n // 2))
    if Y is None:
        Y = np.zeros(n)
    return gb.SourceSample(X, A, Y)


def test_constant_only_basis():
    sample = _sample([[0.3], [1.2], [-0.5]])
    spec = gb.BasisSpec.from_names(["const"])
    design = gb.evaluate_basis(spec, sample)
    assert design.h.shape == (3, 1)
    np.testing.assert_array_equal(design.h[:, 0], 1.0)
    assert design.g.shape == (3, 0)


def test_identity_standardization_uses_population_sd():
    # column (1, 2, 3): mean 2, divide-by-n sd sqrt(2/3)
    sample = _sample([[1.0], [2.0], [3.0]])
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    scale = np.sqrt(2.0 / 3.0)
    assert design.h_center[1] == pytest.approx(2.0)
    assert design.h_scale[1] == pytest.approx(scale)
    np.testing.assert_allclose(design.h[:, 1], np.array([-1.0, 0.0, 1.0]) / scale, atol=1e-15)


def test_power_term_raw_column():
    sample = _sample([[-1.0], [0.0], [1.0]])
    spec = gb.BasisSpec.from_names(["const", "x1^2"])
    raw = spec.evaluate_h(sample.X)
    np.testing.assert_array_equal(raw[:, 1], [1.0, 0.0, 1.0])


def test_align_target_summary_centering():
    sample = _sample([[1.0], [2.0], [3.0]])
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0, 2.0], design)
    assert target.values[0] == 1.0
    assert target.values[1] == pytest.approx(0.0)


def test_align_target_summary_hand_value():
    # raw 2.5 against recorded (mean 2, scale 0.5) -> (2.5 - 2) / 0.5 = 1
    sample = _sample([[1.5], [2.0], [2.5]])  # mean 2, population sd ~ 0.408
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    target = gb.align_target_summary(spec, [1.0, 2.5], design)
    expected = (2.5 - design.h_center[1]) / design.h_scale[1]
    assert target.values[1] == pytest.approx(expected)
    # the worked example with scale forced to 0.5
    assert (2.5 - 2.0) / 0.5 == pytest.approx(1.0)


def test_align_rejects_bad_constant():
    sample = _sample([[1.0], [2.0], [3.0]])
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    with pytest.raises(ValidationError) as err:
        gb.align_target_summary(spec, [0.9, 2.0], design)
    assert err.value.code == "BAD_CONSTANT"


def test_align_rejects_length_mismatch():
    sample = _sample([[1.0], [2.0], [3.0]])
    spec = gb.BasisSpec.from_names(["const", "x1"])
    design = gb.evaluate_basis(spec, sample)
    with pytest.raises(ValidationError) as err:
        gb.align_target_summary(spec, [1.0, 2.0, 3.0], design)
    assert err.value.code == "LENGTH_MISMATCH"


def test_rank_full():
    report = matrix_rank_report(np.eye(3))
    assert report.rank == 3 and not report.deficient


def test_rank_duplicate_column_flagged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    sample = _sample(np.column_stack([X, X[:, 0]]))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])  # x3 == x1
    design = gb.evaluate_basis(spec, sample)
    report = gb.check_design_rank(design)
    assert report.deficient
    assert report.rank == 3


def test_rank_linear_combination_flagged():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    combo = 2.0 * X[:, 0] + X[:, 1]
    sample = _sample(np.column_stack([X, combo]))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])
    design = gb.evaluate_basis(spec, sample)
    report = gb.check_design_rank(design)
    assert report.deficient
    sv = report.singular_values
    assert sv[-1] / sv[0] < 1e-10


def test_constant_column_untouched_by_standardization():
    rng = np.random.default_rng(2)
    sample = _sample(rng.normal(size=(25, 3)))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])
    for standardize in (True, False):
        design = gb.evaluate_basis(spec, sample, standardize=standardize)
        np.testing.assert_array_equal(design.h[:, 0], 1.0)
        assert design.h_center[0] == 0.0 and design.h_scale[0] == 1.0


def test_zero_variance_column_rejected():
    sample = _sample(np.column_stack([np.full(10, 3.0), np.arange(10.0)]))
    spec = gb.BasisSpec.from_names(["const", "x1", "x2"])
    with pytest.raises(ValidationError) as err:
        gb.evaluate_basis(spec, sample)
    assert err.value.code == "DEGENERATE_TERM"


def test_index_out_of_range_rejected():
    sample = _sample(np.arange(8.0).reshape(4, 2))
    spec = gb.BasisSpec.from_names(["const", "x3"])
    with pytest.raises(ValidationError) as err:
        gb.evaluate_basis(spec, sample)
    assert err.value.code == "INDEX_OUT_OF_RANGE"


def test_absent_indicator_category_is_degenerate():
    sample = _sample(np.column_stack([np.array([0.0, 1.0, 0.0, 1.0]), np.arange(4.0)]))
    spec = gb.BasisSpec(
        (parse_term("const"), parse_term("x1=5"), parse_term("x2"))
    )
    with pytest.raises(ValidationError) as err:
        gb.evaluate_basis(spec, sample)
    assert err.value.code == "DEGENERATE_TERM"


def test_term_name_round_trip():
    names = ["const", "x2", "x1^2", "x3=1", "x1:x4", "log1p(x2)", "abs(x5)", "expclip(x1)"]
    for side, name in zip(["h"] + ["h"] * 3 + ["g"] * 4, names):
        term = parse_term(name, side)
        assert term.name == name
        assert term.side == side


def test_basis_invariants_enforced():
    with pytest.raises(ValidationError):
        gb.BasisSpec.from_names(["x1"])  # no constant
    with pytest.raises(ValidationError):
        gb.BasisSpec.from_names(["const", "x1", "x1"])  # duplicate
    with pytest.raises(ValidationError):
        gb.BasisSpec.from_names(["x1", "const"])  # constant not first
    with pytest.raises(ValidationError):
        gb.BasisSpec((parse_term("x1", "h"), parse_term("const", "g")))


def test_source_sample_validation():
    with pytest.raises(ValidationError):
        gb.SourceSample(np.ones((3, 1)), np.array([1, 1, 1]), np.zeros(3))
    with pytest.raises(ValidationError):
        gb.SourceSample(np.ones((3, 1)), np.array([1, 0, 2]), np.zeros(3))
    with pytest.raises(ValidationError):
        gb.SourceSample(np.array([[np.nan], [1.0]]), np.array([1, 0]), np.zeros(2))
    sample = gb.SourceSample(np.ones((2, 1)), np.array([1, 0]), np.zeros(2))
    assert sample.n_s == 2 and sample.p == 1
    np.testing.assert_array_equal(sample.s1, [0])
    np.testing.assert_array_equal(sample.s0, [1])
    with pytest.raises(ValueError):
        sample.X[0, 0] = 2.0  # frozen arrays


def test_standardize_then_align_commutes_with_raw_solve():
    # same weights and raw-unit balance residuals either way
    rng = np.random.default_rng(3)
    from helpers import random_instance

    sample, spec, design, target, raw_target = random_instance(rng, n_s=50, k_h=2, k_g=1)
    design_raw = gb.evaluate_basis(spec, sample, standardize=False)
    target_raw_aligned = gb.align_target_summary(spec, raw_target, design_raw)
    _, ws_std = gb.solve_extended(design, target, sample.treated)
    _, ws_raw = gb.solve_extended(design_raw, target_raw_aligned, sample.treated)
    np.testing.assert_allclose(ws_std.w, ws_raw.w, atol=1e-10)
    res_std = gb.balance_residuals(design_raw, target_raw_aligned, sample.treated, ws_std.w)
    res_raw = gb.balance_residuals(design_raw, target_raw_aligned, sample.treated, ws_raw.w)
    np.testing.assert_allclose(res_std.stacked(), res_raw.stacked(), atol=1e-12)


def test_rank_wide_matrix_reports_infinite_condition_number():
    # 5 rows cannot span 6 columns: the sixth singular value is zero
    m = np.random.default_rng(2).normal(size=(5, 6))
    report = matrix_rank_report(m)
    assert report.rank == 5
    assert report.deficient
    assert report.condition_number == np.inf
