import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfed.datagen import WorkerShard
from byzfed.errors import ConfigError
from byzfed.localsolve import (
    LossSpec,
    local_erm,
    local_gradient,
    loss_grad,
    online_to_batch,
    shard_stats,
)
from byzfed.numerics import least_squares
from byzfed.pipeline import SolverSpec, stage1_erms

SQ = LossSpec("squared_error")
LOC = LossSpec("location")


def _sq_loss(w, x, y):
    return 0.5 * float(x @ w - y) ** 2


def _loc_loss(w, x):
    return 0.5 * float(np.sum((w - x) ** 2))


def _shard(rng, n=30, d=4, sigma=0.1, w=None):
    w = rng.standard_normal(d) if w is None else w
    X = rng.standard_normal((n, d))
    y = X @ w + sigma * rng.standard_normal(n)
    return WorkerShard(machine_id=0, X=X, y=y, true_cluster=0), w


def test_loss_spec_validation():
    with pytest.raises(ConfigError):
        LossSpec("huber")
    assert SQ.uses_targets and not LOC.uses_targets


def test_single_sample_value_and_grad(rng):
    w = rng.standard_normal(3)
    x = rng.standard_normal(3)
    y = 0.7
    np.testing.assert_allclose(loss_grad(SQ, w, x, y), x * (x @ w - y))
    np.testing.assert_allclose(loss_grad(LOC, w, x), w - x)
    with pytest.raises(ConfigError):
        loss_grad(SQ, w, x)  # missing target


def test_gradients_match_finite_differences(rng):
    w = rng.standard_normal(4)
    x = rng.standard_normal(4)
    y = -1.2
    eps = 1e-6
    for loss, f, args in ((SQ, _sq_loss, (x, y)), (LOC, _loc_loss, (x,))):
        g = loss_grad(loss, w, *args)
        num = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            num[j] = (f(w + e, *args) - f(w - e, *args)) / (2 * eps)
        np.testing.assert_allclose(g, num, atol=1e-5)


def test_batch_objective_and_gradient_consistent(rng):
    shard, _ = _shard(rng)
    w = rng.standard_normal(4)
    # gradient equals the average single-sample gradient
    manual_g = np.mean([loss_grad(SQ, w, shard.X[i], shard.y[i]) for i in range(shard.n)], axis=0)
    np.testing.assert_allclose(local_gradient(shard_stats([shard], SQ), w)[0], manual_g, atol=1e-12)


def test_location_objective_minimized_at_mean(rng):
    shard, _ = _shard(rng)
    mu = shard.X.mean(axis=0)
    np.testing.assert_allclose(local_gradient(shard_stats([shard], LOC), mu), 0, atol=1e-12)


def test_local_erm_squared_error_is_least_squares(rng):
    shard, _ = _shard(rng)
    np.testing.assert_array_equal(local_erm(shard, SQ), least_squares(shard.X, shard.y))


def test_local_erm_location_is_mean(rng):
    shard, _ = _shard(rng)
    np.testing.assert_array_equal(local_erm(shard, LOC), shard.X.mean(axis=0))


def test_gradient_shape_validation(rng):
    shard, _ = _shard(rng)
    stats = shard_stats([shard], SQ)
    with pytest.raises(ConfigError):
        local_gradient(stats, np.zeros(5))
    with pytest.raises(ConfigError):
        local_gradient(stats, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# the sufficient-statistics kernel


def _ragged_shards(gen, sizes, d):
    shards = []
    for i, n in enumerate(sizes):
        X = gen.standard_normal((n, d))
        shards.append(WorkerShard(machine_id=i, X=X, y=gen.standard_normal(n), true_cluster=0))
    return shards


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)
def test_kernel_matches_raw_row_gradients(sizes, d, seed):
    gen = np.random.default_rng(seed)
    shards = _ragged_shards(gen, sizes, d)
    W = gen.standard_normal((len(shards), d))
    got = local_gradient(shard_stats(shards, SQ), W)
    for i, s in enumerate(shards):
        raw = s.X.T @ (s.X @ W[i] - s.y) / s.n
        np.testing.assert_allclose(got[i], raw, rtol=1e-12, atol=1e-12 * (1 + np.abs(raw).max()))
    # location loss: A is a read-only identity view, and the gradient is
    # exactly w - mean, also for one model shared by all machines
    loc = shard_stats(shards, LOC)
    assert not loc.A.flags.writeable
    np.testing.assert_array_equal(loc.n, sizes)
    got = local_gradient(loc, W)
    shared = local_gradient(loc, W[0])
    for i, s in enumerate(shards):
        np.testing.assert_array_equal(got[i], W[i] - s.X.mean(axis=0))
        np.testing.assert_array_equal(shared[i], W[0] - s.X.mean(axis=0))


# ---------------------------------------------------------------------------
# gradient descent solver (Stage I)


def test_gd_erm_converges_to_exact_solution(rng):
    shard, _ = _shard(rng, n=50, d=5)
    w_gd = stage1_erms([shard], SolverSpec(kind="gd", iters=4000), SQ)[0]
    w_exact = local_erm(shard, SQ)
    assert np.linalg.norm(w_gd - w_exact) < 1e-6


def test_gd_erm_location_converges_to_mean(rng):
    shard, _ = _shard(rng)
    w = stage1_erms([shard], SolverSpec(kind="gd", iters=60), LOC)[0]
    np.testing.assert_allclose(w, shard.X.mean(axis=0), atol=1e-9)


def test_gd_erm_on_a_tiny_scale_shard_returns_the_least_squares_solution():
    # A_i is about 1e-14, so the step is about 1e14 and the solution's norm
    # about 2e13; neither is a divergence, and 1000 steps reach the ERM
    gen = np.random.default_rng(0)
    X = 1e-7 * gen.standard_normal((50, 3))
    shard = WorkerShard(machine_id=0, X=X, y=X @ np.array([1e13, -2e13, 5e12]), true_cluster=0)
    with np.errstate(all="raise"):
        got = stage1_erms([shard], SolverSpec(kind="gd", iters=1000), SQ)[0]
    np.testing.assert_allclose(got, local_erm(shard, SQ), rtol=1e-9)


def test_gd_erm_validation(rng):
    for bad in (dict(iters=0), dict(iters=2.5), dict(iters=True)):
        with pytest.raises(ConfigError):
            SolverSpec(kind="gd", **bad)
    SolverSpec(kind="gd", iters=np.int64(3))
    # Stage I always steps at 1/lambda_max(A_i); online GD takes
    # online_to_batch's defaults
    for removed in ("step", "lam", "radius"):
        with pytest.raises(TypeError, match=f"'{removed}'"):
            SolverSpec(kind="gd", **{removed: 1.0})


def _raw_row_gd(shard, loss, step, iters):
    """Stage-I recursion w <- w - step grad F_i(w) from the origin, with
    the gradient taken over the raw rows, written independently."""
    w = np.zeros(shard.X.shape[1])
    for _ in range(iters):
        if loss.uses_targets:
            g = shard.X.T @ (shard.X @ w - shard.y) / shard.n
        else:
            g = np.mean(w - shard.X, axis=0)
        w = w - step * g
    return w


def _diagonal_shard(gen, d):
    """8 rows, column j nonzero only in row j with a power-of-two value,
    so A = X'X/8 is diagonal with power-of-two eigenvalues that LAPACK
    returns exactly."""
    X = np.zeros((8, d))
    X[np.arange(d), np.arange(d)] = 2.0 ** gen.integers(0, 3, size=d)
    return WorkerShard(machine_id=0, X=X, y=gen.standard_normal(8), true_cluster=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["random", "exact"]),
    st.sampled_from(["squared_error", "location"]),
)
def test_stage1_gd_closed_form_matches_raw_row_recursion(n, d, seed, mode, loss_kind):
    # n < d gives singular shards; "exact" has step*lam_max == 1 exactly
    gen = np.random.default_rng(seed)
    loss = LossSpec(loss_kind)
    if mode == "exact":
        shard = _diagonal_shard(gen, d)
    else:
        shard = _ragged_shards(gen, [n], d)[0]
    if loss.uses_targets:
        lam_max = np.linalg.eigvalsh(shard.X.T @ shard.X / shard.n)[-1]
    else:
        lam_max = 1.0
    iters = int(gen.integers(1, 81))
    with np.errstate(all="raise"):
        got = stage1_erms([shard], SolverSpec(kind="gd", iters=iters), loss)
        ref = _raw_row_gd(shard, loss, 1.0 / lam_max, iters)
    assert np.linalg.norm(got[0] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stage1_gd_location_auto_step_returns_the_mean_exactly(rng):
    shards = _ragged_shards(rng, [7, 30, 1], 5)
    with np.errstate(all="raise"):
        got = stage1_erms(shards, SolverSpec(kind="gd", iters=1000), LOC)
    np.testing.assert_array_equal(got, shard_stats(shards, LOC).b)


def test_gd_erm_deterministic(rng):
    shard, _ = _shard(rng)
    solver = SolverSpec(kind="gd", iters=100)
    np.testing.assert_array_equal(stage1_erms([shard], solver, SQ), stage1_erms([shard], solver, SQ))


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["squared_error", "location"]),
)
def test_stage1_gd_machine_independent_of_its_stack(sizes, seed, loss):
    gen = np.random.default_rng(seed)
    shards = _ragged_shards(gen, sizes, 3)
    solver, loss = SolverSpec(kind="gd", iters=30), LossSpec(loss)
    stacked = stage1_erms(shards, solver, loss)
    reversed_stack = stage1_erms(shards[::-1], solver, loss)[::-1]
    for i, s in enumerate(shards):
        alone = stage1_erms([s], solver, loss)[0]
        np.testing.assert_array_equal(stacked[i], alone)
        np.testing.assert_array_equal(reversed_stack[i], alone)


def test_stage1_gd_holds_one_machine_statistics_at_a_time(rng):
    # the (m, d, d) stack of every machine's A_i is 768 kB here; Stage-I GD
    # builds each machine's A_i, b_i inside its own solve instead
    m, d = 60, 40
    shards = _ragged_shards(rng, [50] * m, d)
    solver = SolverSpec(kind="gd")
    tracemalloc.start()
    try:
        W = stage1_erms(shards, solver, SQ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.shape == (m, d)
    assert peak < m * d * d * 8 / 4


# ---------------------------------------------------------------------------
# online-to-batch


def _otb_reference(shard, loss, lam, radius):
    """Documented recursion, written independently: single ordered pass,
    projection onto the radius ball, average of iterates w_1..w_n."""
    d = shard.X.shape[1]
    w = np.zeros(d)
    iterates = []
    for l in range(shard.n):
        iterates.append(w.copy())
        eta = 1.0 / (lam * (l + 1))
        if loss.uses_targets:
            g = shard.X[l] * (shard.X[l] @ w - shard.y[l])
        else:
            g = w - shard.X[l]
        w = w - eta * g
        nw = np.linalg.norm(w)
        if nw > radius:
            w = w * (radius / nw)
    return np.mean(iterates, axis=0)


def test_online_to_batch_matches_reference_recursion(rng):
    shard, _ = _shard(rng, n=25, d=3)
    got = online_to_batch(shard, SQ, lam=2.0, radius=5.0)
    ref = _otb_reference(shard, SQ, 2.0, 5.0)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_online_to_batch_default_radius_and_schedule(rng):
    shard, _ = _shard(rng, n=20, d=4)
    got = online_to_batch(shard, SQ)
    ref = _otb_reference(shard, SQ, 1.0, 2.0 * np.sqrt(4))
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_online_to_batch_first_iterate_is_zero(rng):
    # with a single sample the average is w_1 = 0 by construction
    shard = WorkerShard(machine_id=0, X=rng.standard_normal((1, 3)), y=rng.standard_normal(1), true_cluster=0)
    np.testing.assert_array_equal(online_to_batch(shard, SQ), np.zeros(3))


def test_online_to_batch_projection_keeps_iterates_bounded(rng):
    shard, _ = _shard(rng, n=40, d=4, sigma=0.0)
    R = 0.05
    got = online_to_batch(shard, SQ, radius=R)
    assert np.linalg.norm(got) <= R + 1e-12


def test_online_to_batch_location_estimates_mean(rng):
    X = np.array([2.0, 3.0]) + 0.01 * rng.standard_normal((400, 2))
    shard = WorkerShard(machine_id=0, X=X, y=np.zeros(400), true_cluster=0)
    # default radius 2*sqrt(d) would clip this mean, so widen the ball
    got = online_to_batch(shard, LOC, lam=1.0, radius=10.0)
    assert np.linalg.norm(got - [2.0, 3.0]) < 0.1


def test_online_to_batch_validation(rng):
    shard, _ = _shard(rng)
    with pytest.raises(ConfigError):
        online_to_batch(shard, SQ, lam=0.0)
    with pytest.raises(ConfigError):
        online_to_batch(shard, SQ, radius=-1.0)
