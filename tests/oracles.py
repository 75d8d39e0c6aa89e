"""Reference implementations the tests compare the library against.

Not collected by pytest (no test_ prefix); test modules import it as
`oracles`, since pytest puts this directory on the import path.
"""
import numpy as np


def jacobi_eigen(matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition, the small-matrix cross-check for
    np.linalg.eigh. Independent of LAPACK; intended for p <= ~16."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta^2 would overflow
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    lam = np.diag(a).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]
