import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the reference solver

from byzfed.errors import ConfigError, NumericError
from byzfed.numerics import (
    RngStream,
    derive_seed,
    eigh_evd,
    least_squares,
    min_cost_assignment,
    top_eigenpair,
)


# ---------------------------------------------------------------------------
# least squares


def test_least_squares_matches_normal_equations(rng):
    X = rng.standard_normal((40, 7))
    y = rng.standard_normal(40)
    w = least_squares(X, y)
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(w, oracle, atol=1e-10)


def test_least_squares_recovers_noiseless_coefficients(rng):
    w_true = rng.standard_normal(5)
    X = rng.standard_normal((30, 5))
    w = least_squares(X, X @ w_true)
    np.testing.assert_allclose(w, w_true, atol=1e-10)


def test_least_squares_rank_deficient_returns_min_norm(rng):
    # duplicate column makes X singular; lstsq must still answer
    col = rng.standard_normal(20)
    X = np.column_stack([col, col, rng.standard_normal(20)])
    y = rng.standard_normal(20)
    w = least_squares(X, y)
    # residual must be orthogonal to the column space
    r = y - X @ w
    np.testing.assert_allclose(X.T @ r, 0, atol=1e-9)
    # min-norm solution splits the duplicated coefficient evenly
    assert abs(w[0] - w[1]) < 1e-9


def test_least_squares_underdetermined_interpolates(rng):
    X = rng.standard_normal((3, 8))
    y = rng.standard_normal(3)
    w = least_squares(X, y)
    np.testing.assert_allclose(X @ w, y, atol=1e-9)


def test_least_squares_input_validation():
    with pytest.raises(ConfigError):
        least_squares(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ConfigError):
        least_squares(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ConfigError):
        least_squares(np.array([[np.nan, 0.0]]), np.zeros(1))
    with pytest.raises(ConfigError):
        least_squares(np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# top eigenpair


def test_top_eigenpair_diagonal_oracle():
    M = np.diag([1.0, 5.0, 3.0])
    lam, v = top_eigenpair(M)
    assert lam == pytest.approx(5.0, abs=1e-8)
    np.testing.assert_allclose(np.abs(v), [0, 1, 0], atol=1e-6)


def test_top_eigenpair_matches_eigh(rng):
    for _ in range(10):
        A = rng.standard_normal((6, 6))
        M = A @ A.T
        lam, v = top_eigenpair(M)
        lam_true = np.linalg.eigvalsh(M)[-1]
        assert lam == pytest.approx(lam_true, rel=1e-8)
        assert np.linalg.norm(M @ v - lam * v) <= 1e-6 * max(1.0, lam)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_top_eigenpair_exact_on_small_eigengap():
    # a d=100 second-moment matrix like a Stage-I A_i; its top eigengap is
    # 0.2% of lambda_max, where an iterative eigensolver converges slowly
    X = np.random.default_rng(14).standard_normal((100, 100))
    M = X.T @ X / 100
    lam, v = top_eigenpair(M)
    assert lam == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-12)
    assert np.linalg.norm(M @ v - lam * v) <= 1e-10 * lam


def test_top_eigenpair_zero_matrix():
    lam, v = top_eigenpair(np.zeros((4, 4)))
    assert lam == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_top_eigenpair_rejects_asymmetric():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        top_eigenpair(M)
    with pytest.raises(ConfigError):
        top_eigenpair(np.zeros((2, 3)))


def test_top_eigenpair_deterministic(rng):
    A = rng.standard_normal((5, 5))
    M = A @ A.T
    out1 = top_eigenpair(M)
    out2 = top_eigenpair(M)
    assert out1[0] == out2[0]
    np.testing.assert_array_equal(out1[1], out2[1])


# ---------------------------------------------------------------------------
# seed derivation and streams


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)
    same_master = {derive_seed(42, p) for p in range(64)}
    assert len(same_master) == 64


def test_derive_seed_range():
    for s in (0, 1, 2**31, 2**63 - 1):
        val = derive_seed(s, 5)
        assert 0 <= val < 2**64


def test_rng_stream_reproducible():
    a = RngStream(123, 4).generator().standard_normal(8)
    b = RngStream(123, 4).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_distinct_ids_differ():
    a = RngStream(123, 0).generator().standard_normal(8)
    b = RngStream(123, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# min-cost assignment


def _assert_same_assignment(cost):
    rows, cols = min_cost_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert rows.tolist() == ref_rows.tolist()
    assert cols.tolist() == ref_cols.tolist()


# integer costs with many ties, then real costs
_COST_FAMILIES = (
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.sampled_from(_COST_FAMILIES),
    st.data(),
)
def test_min_cost_assignment_equals_scipy(nr, nc, family, data):
    # square, wide and tall shapes; one value family per matrix
    values = data.draw(st.lists(family, min_size=nr * nc, max_size=nr * nc))
    _assert_same_assignment(np.array(values, dtype=float).reshape(nr, nc))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**32),
)
def test_min_cost_assignment_equals_scipy_on_gaussian_costs(nr, nc, seed):
    _assert_same_assignment(np.random.default_rng(seed).standard_normal((nr, nc)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
def test_min_cost_assignment_single_row_or_column(rng, shape):
    cost = rng.integers(0, 3, size=shape).astype(float)
    _assert_same_assignment(cost)
    rows, cols = min_cost_assignment(cost)
    assert len(rows) == len(cols) == 1
    assert cost[rows[0], cols[0]] == cost.min()


def test_min_cost_assignment_constant_cost_is_the_identity():
    rows, cols = min_cost_assignment(np.zeros((4, 4)))
    assert rows.tolist() == cols.tolist() == [0, 1, 2, 3]


def test_min_cost_assignment_takes_integer_costs():
    confusion = np.array([[0, 5, 1], [4, 0, 0], [0, 1, 6]])
    _assert_same_assignment(-confusion)
    assert min_cost_assignment(-confusion)[1].tolist() == [1, 0, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_cost_assignment_rejects_non_finite_costs(bad):
    cost = np.ones((3, 2))
    cost[1, 0] = bad
    with pytest.raises(NumericError):
        min_cost_assignment(cost)


def test_min_cost_assignment_needs_a_matrix():
    with pytest.raises(ConfigError):
        min_cost_assignment(np.ones(3))


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=1000))
def test_derive_seed_stable_under_repetition(master, p):
    assert derive_seed(master, p) == derive_seed(master, p)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_least_squares_residual_orthogonality(d, seed):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((d + 5, d))
    y = gen.standard_normal(d + 5)
    w = least_squares(X, y)
    scale = max(1.0, float(np.abs(X).max() * np.abs(y).max()))
    assert np.linalg.norm(X.T @ (y - X @ w)) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# the scipy seam


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_numerics_imports_scipy():
    # every LAPACK call goes through byzfed.numerics, so replacing scipy
    # there changes one module
    package = Path(__file__).parents[1] / "src" / "byzfed"
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(m == "scipy" or m.startswith("scipy.") for m in _imported_modules(path))
    )
    assert importers == ["numerics.py"]


def test_eigh_evd_is_an_eigendecomposition(rng):
    X = rng.standard_normal((5, 8))
    A = X.T @ X / 5  # rank 5
    lam, V = eigh_evd(A)
    assert np.all(np.diff(lam) >= 0)
    np.testing.assert_allclose(V @ np.diag(lam) @ V.T, A, atol=1e-12)
    np.testing.assert_allclose(V.T @ V, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(lam[:3], 0.0, atol=1e-12)
