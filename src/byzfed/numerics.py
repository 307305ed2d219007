"""Dense linear algebra and reproducible random streams.

least_squares wraps numpy's lstsq; top_eigenpair is one call of LAPACK's
syevr restricted to the largest eigenvalue, so every step size
1/lambda_max and every spectral-filter test uses the top eigenvalue to
LAPACK accuracy.

Model vectors are plain 1-D float64 numpy arrays; a fixed dimension d is
shared by every vector in a run. All functions here are pure and
thread-safe. Random streams are single-owner: a stream is never drawn
from by two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork

from .errors import ConfigError

__all__ = [
    "least_squares",
    "top_eigenpair",
    "RngStream",
    "derive_seed",
]


def least_squares(X, y) -> np.ndarray:
    """Minimize ||y - Xw||_2; minimum-norm solution on rank-deficient X.

    Small shards with n < d are a supported regime, so singular designs
    return the minimum-norm minimizer instead of raising.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1:
        raise ConfigError(f"bad shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ConfigError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 1:
        raise ConfigError("need at least one sample")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ConfigError("least_squares input contains NaN or Inf")
    w, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return w


def top_eigenpair(M):
    """Largest eigenpair of a symmetric matrix, exact to LAPACK accuracy.

    Returns (eigenvalue, unit eigenvector); the eigenvector's sign is
    whatever LAPACK returns. Only the top eigenpair is computed, by syevr
    on the lower triangle with the workspace size LAPACK asks for: the
    call scipy.linalg.eigh(M, subset_by_index=[d-1, d-1]) makes, so the
    result is bit for bit eigh's, without eigh's argument handling. A
    non-finite M raises eigh's ValueError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"expected a square matrix, got {M.shape}")
    # ndarray.max rather than np.max: the same reduction without its dispatch
    amax = float(np.abs(M).max())  # nan or inf when M is not finite
    scale = max(1.0, amax)
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ConfigError("matrix is not symmetric within 1e-10")
    if not math.isfinite(amax):
        raise ValueError("array must not contain infs or NaNs")
    d = M.shape[0]
    syevr, syevr_lwork = get_lapack_funcs(("syevr", "syevr_lwork"), (M,))
    # eigh's own workspace query: another lwork can change LAPACK's
    # blocking, and with it the bits
    lwork, liwork = _compute_lwork(syevr_lwork, n=d, lower=1)
    w, V, _, _, info = syevr(
        M, compute_v=1, range="I", lower=1, il=d, iu=d, lwork=lwork, liwork=liwork
    )
    if info != 0:
        raise LinAlgError(
            f"Illegal value in argument {-info} of internal dsyevr" if info < -1
            else "Internal Error."
        )
    return float(w[0]), V[:, 0]


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (master, path...) coordinate.

    Used to pre-split randomness before any parallel dispatch so thread
    scheduling can never affect results. Callers must keep path lengths
    consistent per master: SeedSequence entropy ignores trailing zero
    words, so (s,) and (s, 0) alias.
    """
    ss = np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(p) for p in path))
    w = ss.generate_state(2, dtype=np.uint32)
    return int(w[0]) << 32 | int(w[1])


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical (master_seed, stream_id) gives an identical draw sequence on
    every platform; distinct stream ids give statistically independent
    streams (SeedSequence spawn keys).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.master_seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))
