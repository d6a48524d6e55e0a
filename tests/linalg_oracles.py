"""Matrix generators and an independent singular-value oracle shared by the tests.

They live outside `conftest.py` so that importing them cannot pick up
`bench/conftest.py` when both test directories run in one pytest session.
"""

import numpy as np


def svdvals_oracle(a):
    """Independent singular values: eigendecomposition of the Gram matrix."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def random_matrix(rng, max_dim=16):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    return rng.standard_normal((m, n))


def conditioned_matrix(rng, m, n, cond):
    """Full-rank m x n matrix with condition number exactly `cond`."""
    r = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    s = np.linspace(1.0, 1.0 / cond, r) if r > 1 else np.ones(1)
    return (u * s) @ v.T

