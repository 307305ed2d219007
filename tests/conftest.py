import os

# One BLAS thread, as CI and the bench run, unless the caller pins another
# count. Set before numpy loads OpenBLAS, which reads these once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)
