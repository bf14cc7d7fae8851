"""Property tests of the balancing solver on random feasible instances."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal.errors import GenbalError
from genbal.estimators import ESTIMATORS, _SharedWork

from helpers import random_instance

instances = st.builds(
    lambda seed, n_s, k_h, k_g, spread: random_instance(
        np.random.default_rng(seed), n_s=n_s, k_h=k_h, k_g=k_g, spread=spread
    ),
    seed=st.integers(0, 2**32 - 1),
    n_s=st.integers(20, 150),
    k_h=st.integers(1, 3),
    k_g=st.integers(0, 2),
    spread=st.floats(0.0, 0.3),
)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances, perm_seed=st.integers(0, 2**32 - 1))
def test_balancing_invariants_on_random_feasible_instances(instance, perm_seed):
    sample, spec, design, target, raw_target = instance
    opts = gb.SolverOptions()

    _, ws = gb.solve_extended(design, target, sample.treated, opts)
    assert (ws.w > 0).all()
    assert gb.balance_residuals(design, target, sample.treated, ws.w).sup_norm <= opts.tol

    # the estimate does not depend on the order of the rows
    tau = gb.estimate_extended(sample, spec, raw_target).tau_hat
    perm = np.random.default_rng(perm_seed).permutation(sample.n_s)
    permuted = gb.SourceSample(sample.X[perm], sample.A[perm], sample.Y[perm])
    assert gb.estimate_extended(permuted, spec, raw_target).tau_hat == pytest.approx(
        tau, rel=1e-9, abs=1e-9
    )

    # extended balancing with no G terms is per-arm entropy balancing
    ebal = gb.estimate_ebal(sample, spec, raw_target)
    no_g = gb.estimate_extended(sample, spec.h_only(), raw_target)
    assert no_g.tau_hat == pytest.approx(ebal.tau_hat, rel=1e-12, abs=1e-12)
    assert (no_g.weight_min, no_g.weight_max) == pytest.approx(
        (ebal.weight_min, ebal.weight_max), rel=1e-12
    )


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instance=instances, shift=st.floats(-100.0, 100.0))
def test_every_estimate_invariant_to_outcome_location_shift(instance, shift):
    sample, spec, _, _, raw_target = instance
    shifted = gb.SourceSample(sample.X, sample.A, sample.Y + shift)
    base = _SharedWork(sample, spec, raw_target)
    moved = _SharedWork(shifted, spec, raw_target)
    for name, estimate in ESTIMATORS.items():
        try:
            tau = estimate(base, None).tau_hat
        except GenbalError as exc:
            # a failing fit or solve does not read Y, so it fails again
            with pytest.raises(type(exc)):
                estimate(moved, None)
            continue
        assert estimate(moved, None).tau_hat == pytest.approx(tau, rel=0, abs=1e-10), name
