import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfed.datagen import WorkerShard
from byzfed.errors import ConfigError
from byzfed.localsolve import local_erm, local_gradient, shard_stats
from byzfed.numerics import least_squares
from byzfed.pipeline import SolverSpec, stage1_erms


def _shard(rng, n=30, d=4, sigma=0.1, w=None):
    w = rng.standard_normal(d) if w is None else w
    X = rng.standard_normal((n, d))
    y = X @ w + sigma * rng.standard_normal(n)
    return WorkerShard(machine_id=0, X=X, y=y, true_cluster=0), w


def _points(shard):
    """The shard's rows as raw points: no targets, so the location loss."""
    return replace(shard, y=None)


def test_batch_objective_and_gradient_consistent(rng):
    shard, _ = _shard(rng)
    w = rng.standard_normal(4)
    # gradient equals the average single-sample gradient x (x'w - y)
    manual_g = np.mean([x * (x @ w - y) for x, y in zip(shard.X, shard.y)], axis=0)
    np.testing.assert_allclose(local_gradient(shard_stats([shard]), w)[0], manual_g, atol=1e-12)


def test_location_objective_minimized_at_mean(rng):
    shard, _ = _shard(rng)
    mu = shard.X.mean(axis=0)
    np.testing.assert_allclose(local_gradient(shard_stats([_points(shard)]), mu), 0, atol=1e-12)


def test_local_erm_squared_error_is_least_squares(rng):
    shard, _ = _shard(rng)
    np.testing.assert_array_equal(local_erm(shard), least_squares(shard.X, shard.y))


def test_local_erm_location_is_mean(rng):
    shard, _ = _shard(rng)
    np.testing.assert_array_equal(local_erm(_points(shard)), shard.X.mean(axis=0))


def test_gradient_shape_validation(rng):
    shard, _ = _shard(rng)
    for stats in (shard_stats([shard]), shard_stats([_points(shard)])):
        with pytest.raises(ConfigError):
            local_gradient(stats, np.zeros(5))
        with pytest.raises(ConfigError):
            local_gradient(stats, np.zeros((2, 4)))


def test_shards_with_and_without_targets_do_not_mix(rng):
    shard, _ = _shard(rng)
    points = replace(_points(shard), machine_id=1)
    for shards in ([shard, points], [points, shard]):
        with pytest.raises(ConfigError, match="targets"):
            shard_stats(shards)


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
    got = local_gradient(shard_stats(shards), W)
    for i, s in enumerate(shards):
        raw = s.X.T @ (s.X @ W[i] - s.y) / s.n
        np.testing.assert_allclose(got[i], raw, rtol=1e-12, atol=1e-12 * (1 + np.abs(raw).max()))
    # raw points: A is None (the identity), and the gradient is exactly
    # w - mean, also for one model shared by all machines
    loc = shard_stats([_points(s) for s in shards])
    assert loc.A is None
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
    w_gd = stage1_erms([shard], SolverSpec(kind="gd", iters=4000))[0]
    w_exact = local_erm(shard)
    assert np.linalg.norm(w_gd - w_exact) < 1e-6


def test_gd_erm_location_converges_to_mean(rng):
    shard, _ = _shard(rng)
    w = stage1_erms([_points(shard)], SolverSpec(kind="gd", iters=60))[0]
    np.testing.assert_allclose(w, shard.X.mean(axis=0), atol=1e-9)


def test_gd_erm_on_a_tiny_scale_shard_returns_the_least_squares_solution():
    # A_i is about 1e-14, so the step is about 1e14 and the solution's norm
    # about 2e13; neither is a divergence, and 1000 steps reach the ERM
    gen = np.random.default_rng(0)
    X = 1e-7 * gen.standard_normal((50, 3))
    shard = WorkerShard(machine_id=0, X=X, y=X @ np.array([1e13, -2e13, 5e12]), true_cluster=0)
    with np.errstate(all="raise"):
        got = stage1_erms([shard], SolverSpec(kind="gd", iters=1000))[0]
    np.testing.assert_allclose(got, local_erm(shard), rtol=1e-9)


def test_erm_takes_no_iters():
    # only gd reads iters, so erm's must stay at its default
    with pytest.raises(ConfigError, match="solver 'erm' takes no iters; only 'gd' does"):
        SolverSpec("erm", iters=500)
    assert SolverSpec("erm", iters=100) == SolverSpec("erm")


def test_gd_erm_validation(rng):
    for bad in (dict(iters=0), dict(iters=2.5), dict(iters=True)):
        with pytest.raises(ConfigError):
            SolverSpec(kind="gd", **bad)
    SolverSpec(kind="gd", iters=np.int64(3))
    # Stage I always steps at 1/lambda_max(A_i)
    for removed in ("step", "lam", "radius"):
        with pytest.raises(TypeError, match=f"'{removed}'"):
            SolverSpec(kind="gd", **{removed: 1.0})


def _raw_row_gd(shard, step, iters):
    """Stage-I recursion w <- w - step grad F_i(w) from the origin, with
    the gradient taken over the raw rows, written independently."""
    w = np.zeros(shard.X.shape[1])
    for _ in range(iters):
        if shard.y is None:
            g = np.mean(w - shard.X, axis=0)
        else:
            g = shard.X.T @ (shard.X @ w - shard.y) / shard.n
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
    st.booleans(),
)
def test_stage1_gd_closed_form_matches_raw_row_recursion(n, d, seed, mode, targets):
    # n < d gives singular shards; "exact" has step*lam_max == 1 exactly
    gen = np.random.default_rng(seed)
    if mode == "exact":
        shard = _diagonal_shard(gen, d)
    else:
        shard = _ragged_shards(gen, [n], d)[0]
    if targets:
        lam_max = np.linalg.eigvalsh(shard.X.T @ shard.X / shard.n)[-1]
    else:
        shard, lam_max = _points(shard), 1.0
    iters = int(gen.integers(1, 81))
    with np.errstate(all="raise"):
        got = stage1_erms([shard], SolverSpec(kind="gd", iters=iters))
        ref = _raw_row_gd(shard, 1.0 / lam_max, iters)
    assert np.linalg.norm(got[0] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stage1_gd_location_auto_step_returns_the_mean_exactly(rng):
    shards = [_points(s) for s in _ragged_shards(rng, [7, 30, 1], 5)]
    with np.errstate(all="raise"):
        got = stage1_erms(shards, SolverSpec(kind="gd", iters=1000))
    np.testing.assert_array_equal(got, shard_stats(shards).b)


def test_gd_erm_deterministic(rng):
    shard, _ = _shard(rng)
    solver = SolverSpec(kind="gd", iters=100)
    np.testing.assert_array_equal(stage1_erms([shard], solver), stage1_erms([shard], solver))


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_stage1_gd_machine_independent_of_its_stack(sizes, seed, targets):
    gen = np.random.default_rng(seed)
    shards = _ragged_shards(gen, sizes, 3)
    if not targets:
        shards = [_points(s) for s in shards]
    solver = SolverSpec(kind="gd", iters=30)
    stacked = stage1_erms(shards, solver)
    reversed_stack = stage1_erms(shards[::-1], solver)[::-1]
    for i, s in enumerate(shards):
        alone = stage1_erms([s], solver)[0]
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
        W = stage1_erms(shards, solver)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.shape == (m, d)
    assert peak < m * d * d * 8 / 4
