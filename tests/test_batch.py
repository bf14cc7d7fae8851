"""A batch of data sets solved together gives each member its own outcome.

Every estimator, the dual kernel and the logistic fit run a batch of data
sets that share a basis at once. Each member must come out as it does
when solved alone as a batch of one: the same error class, or the same
iteration count with parameters and weights equal to 1e-12 relative.
When every member has the same row and arm counts, the padded arrays of
the batch have the shapes of each member's own, so the outcomes are
equal bit for bit, error messages included. A member's basis design is
reduced over its own rows only, so it is equal bit for bit in any batch,
and a member whose design fails keeps the error class, code and message
it gets alone.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal import estimators, simulation
from genbal.basis import _align_batch, _design_batch, _source_samples
from genbal.errors import GenbalError, ValidationError
from genbal.estimators import ESTIMATORS, _SharedWork
from genbal.solver import Method, _et_weights, _GroupDual, _joint_weights, _JointDual

SPEC = gb.BasisSpec.from_names(["const", "x1", "x2"], ["x3"])
KINDS = ("feasible", "collinear", "infeasible", "separated", "duplicated")


def _member(rng, n, n1, kind):
    """A data set of ``n`` rows, ``n1`` treated, and its raw target means.

    ``collinear`` sets x2 = x1 on the treated arm; ``infeasible`` puts the
    target mean of x1 past its largest value; ``separated`` treats the n1
    rows with the largest x1; ``duplicated`` sets x3 = x1 on every row, so
    the logistic regressors [1 | X] are rank deficient and every
    information matrix of the fit is singular.
    """
    X = rng.normal(size=(n, 3))
    A = np.zeros(n, dtype=int)
    if kind == "separated":
        A[np.argsort(X[:, 0])[n - n1:]] = 1
    else:
        A[rng.permutation(n)[:n1]] = 1
    if kind == "collinear":
        X[A == 1, 1] = X[A == 1, 0]
    if kind == "duplicated":
        X[:, 2] = X[:, 0]
    u = np.exp(0.2 * rng.standard_normal(n))
    target = np.r_[1.0, X[:, :2].T @ u / u.sum()]
    if kind == "infeasible":
        target[1] = X[:, 0].max() + 1.0
    return gb.SourceSample(X, A, rng.normal(size=n)), target


@st.composite
def batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    same_shape = draw(st.booleans())
    shapes = []
    for _ in range(size):
        if not shapes or not same_shape:
            n = draw(st.integers(6, 60))  # from just above the 4 regressors
            shapes.append((n, draw(st.integers(3, n - 3))))
        else:
            shapes.append(shapes[0])
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=size, max_size=size))
    members = [_member(rng, n, n1, kind) for (n, n1), kind in zip(shapes, kinds)]
    options = gb.SolverOptions(max_iter=draw(st.sampled_from([1, 200])))
    return members, same_shape, options


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= 1e-12 * scale


def _check(batched, alone, exact):
    """A batch's outcome for one member against the member's own."""
    if exact:
        if isinstance(alone, GenbalError):
            assert (type(batched), str(batched)) == (type(alone), str(alone))
        else:
            assert batched == alone
        return
    assert type(batched) is type(alone), (batched, alone)


def _same_solution(batched, alone):
    """Two solve outcomes, each (solution or error, weights): same class,
    and for a success the same iterations, parameters and weights."""
    (out_b, w_b), (out_a, w_a) = batched, alone
    assert type(out_b) is type(out_a), (out_b, out_a)
    if isinstance(out_a, GenbalError):
        return
    assert out_b.iterations == out_a.iterations
    theta = lambda s: np.concatenate([np.atleast_1d(v) for v in vars(s).values()
                                      if isinstance(v, np.ndarray)])
    assert _close(theta(out_b), theta(out_a))
    assert _close(w_b, w_a)


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=batches())
def test_batch_members_get_the_outcome_they_get_alone(batch):
    members, same_shape, options = batch
    samples = [sample for sample, _ in members]
    shared = _SharedWork(samples, SPEC, [target for _, target in members])
    alone = [_SharedWork([sample], SPEC, [target]) for sample, target in members]

    for name, estimate in ESTIMATORS.items():
        for batched, own in zip(estimate(shared, options), alone):
            (mine,) = estimate(own, options)
            _check(batched, mine, same_shape)
            if not same_shape and not isinstance(mine, GenbalError):
                assert batched.solver_info.keys() == mine.solver_info.keys()
                for key in ("iterations", "et_iterations"):
                    assert batched.solver_info.get(key) == mine.solver_info.get(key)
                assert _close([batched.tau_hat, batched.weight_min, batched.weight_max],
                              [mine.tau_hat, mine.weight_min, mine.weight_max])

    # the kernels under the estimators, member by member
    ok = [i for i, d in enumerate(shared.designs) if not isinstance(shared.targets[i], GenbalError)]
    designs = [shared.designs[i] for i in ok]
    targets = [shared.targets[i] for i in ok]
    treateds = [samples[i].treated for i in ok]
    solves = (lambda ds, ts, trs: _joint_weights(Method.EXTENDED, ds, ts, trs, options),
              lambda ds, ts, trs: _joint_weights(Method.EBAL, ds, ts, trs, options),
              lambda ds, ts, _: _et_weights(ds, ts, options))
    for solve in solves if ok else ():
        outcomes, w = solve(designs, targets, treateds)
        for r, member in enumerate(zip(outcomes, np.split(w, np.cumsum([d.n for d in designs])[:-1]))):
            (out,), w_alone = solve([designs[r]], [targets[r]], [treateds[r]])
            _same_solution(member, (out, w_alone))
    for sample, out in zip(samples, estimators._fit_logistic(samples)):
        (mine,) = estimators._fit_logistic([sample])
        assert type(out) is type(mine)
        if not isinstance(mine, GenbalError):
            assert (out.iterations, out.converged) == (mine.iterations, mine.converged)
            assert _close(out.coefficients, mine.coefficients)
            assert _close(out.propensities, mine.propensities)


@st.composite
def tiny_samples(draw):
    """2-6 samples of 2-8 rows over 3 covariates; rows at or below the 4
    logistic regressors, or a duplicated covariate, make [1 | X] rank
    deficient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for _ in range(draw(st.integers(2, 6))):
        n = draw(st.integers(2, 8))
        X = rng.normal(size=(n, 3))
        if draw(st.booleans()):
            X[:, 2] = X[:, 0]
        A = np.zeros(n, dtype=int)
        A[rng.permutation(n)[:draw(st.integers(1, n - 1))]] = 1
        samples.append(gb.SourceSample(X, A, rng.normal(size=n)))
    return samples


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples=tiny_samples())
def test_rank_deficient_logistic_fits_end_in_a_batch_as_they_end_alone(samples):
    for out, sample in zip(estimators._fit_logistic(samples), samples):
        (mine,) = estimators._fit_logistic([sample])
        if isinstance(mine, GenbalError):
            assert (type(out), str(out)) == (type(mine), str(mine))
        else:
            assert (out.iterations, out.converged) == (mine.iterations, mine.converged)
            assert _close(out.coefficients, mine.coefficients)


DESIGN_SPEC = gb.BasisSpec.from_names(["const", "x1", "x2"], ["log1p(x3)"])
DESIGN_KINDS = ("good", "good", "narrow", "non_finite", "degenerate")


def _design_member(rng, n, n1, kind):
    """A data set for DESIGN_SPEC and its raw target means. ``narrow`` has
    no x3 (INDEX_OUT_OF_RANGE), ``non_finite`` one x3 of -1, whose log1p is
    -inf (NON_FINITE_CELL), and ``degenerate`` a constant x2
    (DEGENERATE_TERM)."""
    X = rng.normal(size=(n, 3))
    X[:, 2] = rng.random(n)
    if kind == "non_finite":
        X[rng.integers(n), 2] = -1.0
    if kind == "degenerate":
        X[:, 1] = 0.5
    if kind == "narrow":
        X = X[:, :2]
    A = np.zeros(n, dtype=int)
    A[rng.permutation(n)[:n1]] = 1
    u = np.exp(0.2 * rng.standard_normal(n))
    return gb.SourceSample(X, A, rng.normal(size=n)), np.r_[1.0, X[:, :2].T @ u / u.sum()]


@st.composite
def design_batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    same_shape = draw(st.booleans())
    n = draw(st.integers(6, 60))
    shapes = [(n, draw(st.integers(3, n - 3)))]
    for _ in range(size - 1):
        m = n if same_shape else draw(st.integers(6, 60))
        shapes.append(shapes[0] if same_shape else (m, draw(st.integers(3, m - 3))))
    kinds = draw(st.lists(st.sampled_from(DESIGN_KINDS), min_size=size, max_size=size))
    return [_design_member(rng, n, n1, kind) for (n, n1), kind in zip(shapes, kinds)], same_shape


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=design_batches())
def test_batch_designs_and_reports_are_each_members_own(batch):
    members, same_shape = batch
    samples = [sample for sample, _ in members]
    # log1p(-1) is -inf by design here
    with np.errstate(divide="ignore"):
        designs = _design_batch(DESIGN_SPEC, samples)
        alone = [_design_batch(DESIGN_SPEC, [sample])[0] for sample in samples]
    for batched, mine in zip(designs, alone):
        if isinstance(mine, GenbalError):
            assert (type(batched), batched.code, str(batched)) == (type(mine), mine.code, str(mine))
            continue
        # a member's design is reduced over its own rows only: bit for bit
        for field in ("h", "g", "h_center", "h_scale", "g_center", "g_scale"):
            np.testing.assert_array_equal(getattr(batched, field), getattr(mine, field))
    kinds = {getattr(d, "code", "ok") for d in alone}
    assert kinds <= {"ok", "INDEX_OUT_OF_RANGE", "NON_FINITE_CELL", "DEGENERATE_TERM"}

    # the logistic fit needs one covariate count, so narrow members sit out
    wide = [(sample, target) for sample, target in members if sample.p == 3]
    if not wide:
        return
    with np.errstate(divide="ignore"):
        shared = _SharedWork([s for s, _ in wide], DESIGN_SPEC, [t for _, t in wide])
        own = [_SharedWork([s], DESIGN_SPEC, [t]) for s, t in wide]
        for name, estimate in ESTIMATORS.items():
            for batched, mine in zip(estimate(shared, None), own):
                (mine,) = estimate(mine, None)
                if isinstance(mine, ValidationError):
                    assert batched.code == mine.code
                _check(batched, mine, same_shape)
                if not same_shape and not isinstance(mine, GenbalError):
                    assert _close([batched.tau_hat, batched.weight_min, batched.weight_max,
                                   batched.ess_treated, batched.ess_control],
                                  [mine.tau_hat, mine.weight_min, mine.weight_max,
                                   mine.ess_treated, mine.ess_control])


def test_a_batch_evaluates_each_basis_term_once_over_its_rows(monkeypatch):
    config = gb.builtin_scenario("P2", "T1", "M1", n=200, replicates=20, seed=3)
    draws = [gb.draw_replicate(config, rep) for rep in range(20)]
    calls = []
    real = gb.BasisTerm.evaluate

    def spy(term, X):
        calls.append((term.name, X.shape[0]))
        return real(term, X)

    monkeypatch.setattr(gb.BasisTerm, "evaluate", spy)
    shared = _SharedWork([d.sample for d in draws], config.basis(), [d.target_means for d in draws])
    assert all(isinstance(d, gb.DesignMatrices) for d in shared.designs)
    # every sample's rows, each sample's after one zero row, in one call per term
    rows = sum(d.sample.n_s for d in draws) + len(draws)
    assert calls == [(term.name, rows) for term in config.basis().terms]


@pytest.mark.parametrize("member", [1, 2])
def test_calibrations_on_a_design_inside_a_batch_match_the_design_built_alone(member):
    rng = np.random.default_rng(41)
    members = [_member(rng, n, n1, "feasible") for n, n1 in ((30, 12), (45, 20), (38, 19))]
    designs = _design_batch(SPEC, [sample for sample, _ in members])
    sample, raw = members[member]
    shared, alone = designs[member], gb.evaluate_basis(SPEC, sample)
    assert shared.rows is designs[0].rows and shared.first > 1 and alone.first == 1

    def weights(design):
        target = gb.align_target_summary(SPEC, raw, design)
        return [gb.solve_et_calibration(design, target)[1].w, gb.solve_two_step(design, target, sample.treated).w,
                gb.solve_att(design, sample.treated).w]

    for w_shared, w_alone in zip(weights(shared), weights(alone)):
        assert w_shared.tobytes() == w_alone.tobytes()


@st.composite
def labelled_batches(draw):
    """Designs of 1-4 of the members of one batch, in any order, with a
    label in {-1, ..., b - 1} for each of their 2-60 rows, b 1 or 2 blocks
    of the first k columns of [H | G], and a base of 1 or a weight per row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(2, 60), min_size=1, max_size=4))
    samples = [gb.SourceSample(rng.normal(size=(n, 3)), np.arange(n) % 2, np.zeros(n)) for n in sizes]
    batch = _design_batch(SPEC, samples)
    order = draw(st.permutations(range(len(batch))))
    designs = [batch[i] for i in order[:draw(st.integers(1, len(order)))]]
    blocks = draw(st.integers(1, 2))
    labels = rng.integers(-1, blocks, size=sum(d.n for d in designs))
    base = rng.random(labels.size) + 0.5 if draw(st.booleans()) else 1.0
    return designs, labels, np.arange(blocks * draw(st.integers(1, 4))).reshape(blocks, -1), base


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch=labelled_batches())
def test_the_gather_stacks_each_members_labelled_rows_zero_padded(batch):
    designs, labels, cols, base = batch
    B, k = cols.shape
    per_member = np.split(np.arange(labels.size), np.cumsum([d.n for d in designs])[:-1])
    picks = [[at[labels[at] == b] for b in range(B)] for at in per_member]
    args = (designs, labels, cols, np.zeros((len(designs), cols.size)), 30.0, base)
    if min(len(p) for member in picks for p in member) == 0:
        with pytest.raises(ValidationError, match="both arms must be non-empty"):
            _GroupDual.gather(*args)
        return
    problem = _GroupDual.gather(*args)
    # the reference: each block's rows in source order, zero-padded to the longest
    m = max(len(p) for member in picks for p in member)
    E = np.zeros((len(designs), B, m, k))
    weights, source = np.zeros((2, len(designs), B, m))
    full = np.broadcast_to(base, labels.shape)
    for r, (design, member, at) in enumerate(zip(designs, picks, per_member)):
        rows = np.hstack([design.h, design.g])[:, :k]
        for b, p in enumerate(member):
            E[r, b, :len(p)], weights[r, b, :len(p)], source[r, b, :len(p)] = rows[p - at[0]], full[p], p
    np.testing.assert_array_equal(problem.E, E)
    np.testing.assert_array_equal(problem.base, weights)
    assert problem.E.flags.c_contiguous
    np.testing.assert_array_equal(problem.in_source_order(source), np.flatnonzero(labels >= 0))
    np.testing.assert_array_equal(problem.n_s, [d.n for d in designs])


def _built(config, size):
    """The draws of replicates 0..size-1 of ``config``, their _SharedWork, and
    the designs, targets and treated masks of the members whose target was built."""
    draws = simulation._draw_batch(config, range(size))
    shared = _SharedWork([d.sample for d in draws], config.basis(), [d.target_means for d in draws],
                         [d.n_t for d in draws])
    ok = [i for i, t in enumerate(shared.targets) if not isinstance(t, GenbalError)]
    return shared, ok, [[col[i] for i in ok] for col in (shared.designs, shared.targets,
                                                         [d.sample.treated for d in draws])]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cell=st.sampled_from([c.name for c in gb.builtin_grid()]), seed=st.integers(0, 2**16),
       n=st.sampled_from([20, 60, 200, 800]), size=st.integers(1, 6))
def test_ebal_reads_the_rows_of_the_extended_dual_as_a_fresh_gather_lays_them(cell, seed, n, size):
    _, ok, columns = _built(gb.builtin_scenario(*cell.split("-"), n=n, seed=seed), size)
    if not ok:
        return
    extended = _JointDual(*columns, np.inf)
    for with_g in (False, True):
        shared, fresh = (_JointDual(*columns, 30.0, with_g, lent) for lent in (extended, None))
        for name in ("E", "base", "cols", "rows", "target", "n_s"):
            got, want = getattr(shared, name), getattr(fresh, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert shared.E.flags.c_contiguous and shared.cap == fresh.cap == 30.0


def test_ebal_and_extended_gather_the_joint_rows_of_a_batch_once(monkeypatch):
    shared, ok, _ = _built(gb.builtin_scenario("P2", "T1", "M1", n=400, seed=5), 6)
    assert ok
    calls = []
    real = _GroupDual.gather.__func__
    monkeypatch.setattr(_GroupDual, "gather", classmethod(lambda cls, *a, **k: calls.append(1) or real(cls, *a, **k)))
    alone = [ESTIMATORS[m](_SharedWork(shared.samples, shared.spec, shared.targets_raw, shared.n_ts), None)
             for m in ("ebal", "extended")]
    assert len(calls) == 2
    for method, mine in zip(("ebal", "extended"), alone):
        assert ESTIMATORS[method](shared, None) == mine
    assert len(calls) == 3


def test_a_batch_aligns_each_member_as_it_aligns_alone():
    rng = np.random.default_rng(8)
    samples, raws = zip(*(_member(rng, 30, 12, "feasible") for _ in range(7)))
    designs = _design_batch(SPEC, samples)
    designs[1] = ValidationError("a failed design", code="DEGENERATE_TERM")
    designs[2] = gb.evaluate_basis(gb.BasisSpec.from_names(["const", "x1", "x3"]), samples[2])
    raws = list(raws)
    raws[3], raws[4], raws[5] = raws[3][:2], np.r_[0.5, raws[4][1:]], np.r_[raws[5][:2], np.nan]
    n_ts = [None, 5, 6, 7, 8, 9, 100]
    batched = _align_batch(SPEC, raws, designs, n_ts)
    for design, raw, n_t, out in zip(designs, raws, n_ts, batched):
        if isinstance(design, GenbalError):
            assert out is design
            continue
        try:
            mine = gb.align_target_summary(SPEC, raw, design, n_t=n_t)
        except ValidationError as exc:
            assert (type(out), out.code, str(out)) == (type(exc), exc.code, str(exc))
            continue
        assert out.values.tobytes() == mine.values.tobytes() and out.n_t == mine.n_t
        assert not out.values.flags.writeable
    codes = [getattr(out, "code", None) for out in batched]
    assert codes == [None, "DEGENERATE_TERM", "VALIDATION", "LENGTH_MISMATCH", "BAD_CONSTANT", "NON_FINITE_CELL",
                     None]


@pytest.mark.parametrize("bad", [None, "x", "y"])
def test_a_batch_of_samples_is_checked_once_as_each_sample_alone(bad):
    rng = np.random.default_rng(9)
    sizes = np.array([5, 7, 4])
    X, Y = rng.normal(size=(16, 3)), rng.normal(size=16)
    A = np.tile([0, 1], 8)
    if bad == "x":
        X[13, 2] = np.inf  # the third member's
    if bad == "y":
        Y[[6, 14]] = np.nan  # the second member's, and the third's
    if bad:
        with pytest.raises(ValidationError) as info:
            _source_samples(X, A, Y, sizes)
        member = 2 if bad == "x" else 1
        at = np.cumsum(sizes) - sizes
        with pytest.raises(ValidationError) as alone:
            gb.SourceSample(*(v[at[member]:at[member] + sizes[member]] for v in (X, A, Y)))
        assert (info.value.code, str(info.value)) == (alone.value.code, str(alone.value))
        return
    for sample, a, k in zip(_source_samples(X, A, Y, sizes), [0, 5, 12], sizes):
        mine = gb.SourceSample(X[a:a + k], A[a:a + k], Y[a:a + k])
        for got, want in ((sample.X, mine.X), (sample.A, mine.A), (sample.Y, mine.Y)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert not got.flags.writeable

