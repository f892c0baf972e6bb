"""Small dense complex linear algebra for whitening.

All vectors and matrices are complex128 numpy arrays.  Sizes stay at
receiver scale (a handful of antennas), so clarity beats asymptotics.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.linalg import LinAlgError


def cholesky_factor(Q) -> np.ndarray:
    """Lower-triangular G with G @ G.conj().T == Q.

    One scalar pass over ``Q.tolist()``: the finiteness and Hermitian
    checks, then the factor column by column.  At receiver scale (a few
    antennas) per-entry Python arithmetic is cheaper than one numpy call
    per row operation.

    Raises:
        ValueError: If Q is not square, has a non-finite entry, or is not
            Hermitian to within 1e-10 of its largest entry magnitude.
        LinAlgError: If Q is not positive definite; the message names the
            first non-positive pivot.
    """
    Q = np.asarray(Q, dtype=complex)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    n = Q.shape[0]
    rows = Q.tolist()
    scale = 0.0
    for row in rows:
        for z in row:
            if not cmath.isfinite(z):
                raise ValueError("matrix contains non-finite values")
            scale = max(scale, abs(z))
    # The tolerance is relative to the largest entry, so that a small
    # matrix (a high-SNR noise covariance is about 1e-12) is held to the
    # same standard as a unit one.  |Q[i][j] - conj(Q[j][i])| is symmetric
    # in (i, j): the lower triangle with the diagonal covers every entry.
    tol = 1e-10 * scale
    for i, row in enumerate(rows):
        for j in range(i + 1):
            if abs(row[j] - rows[j][i].conjugate()) > tol:
                raise ValueError("matrix is not Hermitian")

    G = [[0j] * n for _ in range(n)]
    for j, Gj in enumerate(G):
        energy = 0.0
        for g in Gj[:j]:
            # numpy's complex modulus, not abs(): the two differ in the
            # last bit, and the factor keeps numpy's rounding.
            a = float(np.absolute(g))
            energy += a * a
        pivot = rows[j][j].real - energy
        if not pivot > 0.0:
            raise LinAlgError(
                f"matrix is not positive definite: pivot {j} is {pivot:.3e}"
            )
        d = math.sqrt(pivot)
        Gj[j] = complex(d)
        inv_d = 1.0 / d
        for i in range(j + 1, n):
            Gi = G[i]
            dot = 0j
            for k in range(j):
                dot += Gi[k] * Gj[k].conjugate()
            Gi[j] = (rows[i][j] - dot) * inv_d
    return np.array(G, dtype=complex).reshape(n, n)
