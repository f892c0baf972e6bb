"""Tests for the complex Cholesky factor and the quadratic form."""

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from sisodet.channel import cholesky_factor
from sisodet.oracle import quadratic_norm
from helpers import random_hermitian_pd


class TestCholeskyFactor:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_factor(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        G = cholesky_factor(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(G, np.diag([2.0, 1.0]), atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_reconstruction(self, n):
        """G G^H reproduces the input matrix entrywise."""
        rng = np.random.default_rng(n)
        Q = random_hermitian_pd(rng, n)
        G = cholesky_factor(Q)
        np.testing.assert_allclose(G @ G.conj().T, Q, atol=1e-10)
        assert np.allclose(np.triu(G, 1), 0)

    def test_non_positive_definite_names_pivot(self):
        Q = np.diag([1.0, -1.0])
        with pytest.raises(LinAlgError, match="pivot 1"):
            cholesky_factor(Q)

    def test_zero_matrix_rejected(self):
        with pytest.raises(LinAlgError, match="pivot 0"):
            cholesky_factor(np.zeros((2, 2)))

    def test_non_hermitian_rejected(self):
        """The tolerance is relative to the largest entry, so a matrix far
        below unit scale (a 120 dB covariance is about 1e-12) is held to
        the same standard."""
        for scale in (1.0, 1e-12, 1e-30):
            with pytest.raises(ValueError, match="Hermitian"):
                cholesky_factor(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-12, 1e-30])
    def test_small_hermitian_factors(self, scale):
        Q = scale * np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        G = cholesky_factor(Q)
        assert np.abs(G @ G.conj().T - Q).max() <= 8 * np.finfo(float).eps * scale

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_differential_against_lapack(self, n):
        """Seeded HPD matrices up to condition 1e8 against np.linalg.cholesky.

        Both factors are the unique one with a positive real diagonal, so
        they agree to the forward error bound cond(Q) * n * eps in units of
        sqrt(max |Q|); G G^H reproduces Q to n * eps in units of max |Q|.
        """
        eps = np.finfo(float).eps
        rng = np.random.default_rng([61, n])
        for _ in range(200):
            U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            cond = 10.0 ** rng.uniform(0.0, 8.0)
            eigenvalues = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-6.0, 6.0)
            Q = (U * eigenvalues) @ U.conj().T
            Q = 0.5 * (Q + Q.conj().T)
            scale = np.abs(Q).max()
            G = cholesky_factor(Q)
            assert np.all(np.triu(G, 1) == 0)
            assert np.abs(G @ G.conj().T - Q).max() <= 4 * n * eps * scale
            gap = np.abs(G - np.linalg.cholesky(Q)).max()
            assert gap <= 4 * n * eps * cond * np.sqrt(scale)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_failing_pivot_named(self, n):
        """Lowering Q[j, j] past its pivot fails at exactly pivot j."""
        rng = np.random.default_rng([62, n])
        for j in range(n):
            Q = random_hermitian_pd(rng, n)
            G = np.linalg.cholesky(Q)
            Q[j, j] -= 2.0 * G[j, j].real ** 2
            with pytest.raises(LinAlgError, match=f"pivot {j} is -"):
                cholesky_factor(Q)

    @pytest.mark.parametrize(
        "i, j, value", [(0, 0, np.nan), (1, 1, np.inf), (0, 1, np.nan), (1, 0, complex(0, np.inf))]
    )
    def test_non_finite_entry_named(self, i, j, value):
        """A NaN or inf anywhere fails by name, not as a NaN factor."""
        Q = np.eye(2, dtype=complex)
        Q[i, j] = value
        with pytest.raises(ValueError, match="non-finite"):
            cholesky_factor(Q)


class TestQuadraticNorm:
    def test_zero_vector(self):
        assert quadratic_norm(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_weight(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(
            quadratic_norm(x, np.eye(4)), np.sum(np.abs(x) ** 2), rtol=1e-14
        )

    def test_matches_whitened_norm(self):
        """x^H Q x equals the plain norm of G^H x, also for forms scaled to
        1e-12 and 1e-30, as small as a high-SNR noise covariance."""
        rng = np.random.default_rng(2)
        for scale in (1.0, 1e-12, 1e-30):
            for _ in range(50):
                Q = scale * random_hermitian_pd(rng, 3)
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                G = cholesky_factor(Q)
                direct = quadratic_norm(x, Q)
                whitened = np.sum(np.abs(G.conj().T @ x) ** 2)
                np.testing.assert_allclose(direct, whitened, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quadratic_norm(np.ones(2), np.eye(3))

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-30])
    def test_non_hermitian_rejected(self, scale):
        """An imaginary part half the real part is rejected at every scale."""
        Q = scale * np.array([[1, 0.5j], [0.5j, 1]])
        with pytest.raises(ValueError, match="imaginary residue"):
            quadratic_norm([1, 1], Q)
