"""Dual-layer narrowband channel model, noise generation, and whitening.

One tone obeys ``y = H s + n`` with ``H`` the ``(N_r, 2)`` channel whose
columns are the layer signatures ``h1`` and ``h2``, ``s`` two unit-energy
QAM symbols, and ``n`` zero-mean complex Gaussian noise with covariance
``C``.  The detector consumes only whitened quantities, where the
noise-precision-weighted norm becomes a plain Euclidean norm.

A ``NoiseModel`` holds what one covariance costs to prepare, all built
when the model is: the covariance, its Cholesky factor (for drawing
noise) and the whitener of its precision.  It is the one noise form:
only ``make_channel`` also takes a covariance, which it models for that
tone alone.  ``cholesky_factor`` runs only when a model is built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

DEGENERATE_GAIN = 1e-14
# Largest norm bound ``|y| + 2 (|h1| + |h2|)`` a whitened observation may
# have.  Every unit-energy QAM symbol has modulus below 2, so every pair's
# residual energy is below this bound squared, a quarter of the largest
# float: the metrics, the priors added to them and their differences all
# stay finite.
MAX_NORM_BOUND = math.sqrt(np.finfo(float).max) / 2.0


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


@dataclass(frozen=True)
class NoiseModel:
    """A noise covariance with the factorizations the channel model needs.

    Construction copies and checks the covariance, factors it, and factors
    its precision into the whitener.  A model shared by many tones thus
    factors its covariance once and its precision once, and every array it
    holds is read-only.

    Attributes:
        covariance: ``(N_r, N_r)`` Hermitian positive definite covariance
            ``C``.
        factor: Lower-triangular ``G`` with ``G G^H = C``, which
            ``generate_noise`` colours its draws with.
        whitener: ``F^H`` for the Cholesky factor ``F`` of the precision
            ``C^-1``, made exactly Hermitian: it turns the
            precision-weighted norm into the Euclidean one.

    Raises:
        ValueError: If the covariance is not square, finite and Hermitian,
            or so close to singular that its precision is not finite.
        LinAlgError: If it is not positive definite; the message names the
            first non-positive pivot.
    """

    covariance: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)
    whitener: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        C = np.array(self.covariance, dtype=complex)
        G = cholesky_factor(C)
        Q = np.linalg.inv(C)
        Q = 0.5 * (Q + Q.conj().T)
        if not all(map(cmath.isfinite, Q.ravel().tolist())):
            raise ValueError(
                "noise precision is not finite: the noise covariance is too "
                "close to singular to invert"
            )
        FH = cholesky_factor(Q).conj().T
        for name, arr in (("covariance", C), ("factor", G), ("whitener", FH)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-tone channel state known to the receiver.

    Attributes:
        effective_channel: ``(N_r, 2)`` matrix whose columns are the
            layer signatures ``h1`` and ``h2``.
        noise: The noise model, shared with every tone built from it.
    """

    effective_channel: np.ndarray
    noise: NoiseModel


@dataclass(frozen=True)
class WhitenedObservation:
    """Received vector and layer signatures after noise whitening.

    ``gain1``/``gain2`` are derived on construction: the squared norms of
    the whitened layer signatures, which are the slicer gains.

    Raises:
        ValueError: If ``y``, ``h1`` and ``h2`` are not 1-D arrays, differ
            in length or hold a NaN or an infinity, or a layer signature is
            numerically zero, since the detector divides by its squared norm,
            or so large that its squared norm overflows, or the norm bound
            ``|y| + 2 (|h1| + |h2|)`` on every residual exceeds
            ``MAX_NORM_BOUND``, so that a pair metric could overflow.
    """

    y: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    gain1: float = field(init=False)
    gain2: float = field(init=False)

    def __post_init__(self):
        parts = (self.y, self.h1, self.h2)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in parts):
            got = ", ".join(f"{type(a).__name__} of shape {np.shape(a)}" for a in parts)
            raise ValueError(f"y, h1 and h2 must be 1-D arrays, got {got}")
        lengths = (len(self.y), len(self.h1), len(self.h2))
        if not lengths[0] == lengths[1] == lengths[2]:
            raise ValueError(
                f"y, h1 and h2 must have the same length, got {lengths[0]}, "
                f"{lengths[1]} and {lengths[2]}"
            )
        if not all(map(cmath.isfinite, self.y.tolist() + self.h1.tolist() + self.h2.tolist())):
            raise ValueError("whitened observation contains non-finite values")
        gain1 = float(np.vdot(self.h1, self.h1).real)
        gain2 = float(np.vdot(self.h2, self.h2).real)
        if gain1 < DEGENERATE_GAIN or gain2 < DEGENERATE_GAIN:
            raise ValueError(
                f"degenerate channel: whitened layer gains {gain1:.3e}, {gain2:.3e}"
            )
        if gain1 == math.inf or gain2 == math.inf:
            raise ValueError(
                f"whitened layer gain overflowed: gains {gain1:.3e}, {gain2:.3e}"
            )
        bound = math.sqrt(np.vdot(self.y, self.y).real) + 2.0 * (
            math.sqrt(gain1) + math.sqrt(gain2)
        )
        if not bound <= MAX_NORM_BOUND:
            raise ValueError(
                f"whitened observation too large: residual norm bound {bound:.3e} "
                f"exceeds {MAX_NORM_BOUND:.3e}, so its metrics could overflow"
            )
        object.__setattr__(self, "gain1", gain1)
        object.__setattr__(self, "gain2", gain2)


def make_channel(channel, noise) -> ChannelRealization:
    """Assemble a ChannelRealization from a channel and its noise.

    The channel is copied, so changing the caller's array afterwards
    leaves the realization alone.  ``noise`` is a ``NoiseModel``, reused as
    it is, or a covariance, from which a model is built for this tone
    alone: two factorizations, where a model costs none.

    Raises:
        ValueError: If the channel is not ``(N_r, 2)`` or has a non-finite
            entry, or the covariance is not ``(N_r, N_r)``, finite and
            Hermitian, or its precision is not finite.
        LinAlgError: If the covariance is not positive definite.
    """
    H = np.array(channel, dtype=complex, order="C")  # a mat-vec rounds per memory layout
    if H.ndim != 2 or H.shape[1] != 2:
        raise ValueError(f"expected an (N_r, 2) channel matrix, got shape {H.shape}")
    if not all(map(cmath.isfinite, H.ravel().tolist())):
        raise ValueError("channel matrix contains non-finite values")
    model = noise if isinstance(noise, NoiseModel) else NoiseModel(noise)
    n_rx = H.shape[0]
    if model.covariance.shape != (n_rx, n_rx):
        raise ValueError(
            f"noise covariance must be ({n_rx}, {n_rx}) for a channel of shape "
            f"{H.shape}, got shape {model.covariance.shape}"
        )
    return ChannelRealization(effective_channel=H, noise=model)


def transmit(s, ch: ChannelRealization, n) -> np.ndarray:
    """Received vector h1*s1 + h2*s2 + n for one tone.

    Raises:
        ValueError: If ``s`` is not two symbols or ``n`` does not have one
            entry per receive antenna.
    """
    s = np.asarray(s, dtype=complex).ravel()
    if s.size != 2:
        raise ValueError("expected exactly two layer symbols")
    n = np.asarray(n, dtype=complex).ravel()
    n_rx = ch.effective_channel.shape[0]
    if n.size != n_rx:
        raise ValueError(
            f"noise has {n.size} entries, the channel has {n_rx} receive antennas"
        )
    return ch.effective_channel @ s + n


def whiten(y, ch: ChannelRealization) -> WhitenedObservation:
    """Whiten the observation and its layer signatures.

    With ``G G^H`` equal to the noise precision, multiplying by ``G^H``
    turns the precision-weighted residual norm into a Euclidean one.
    ``G^H`` is the noise model's whitener, so whitening factors nothing.

    Raises:
        ValueError: If ``y`` does not have one entry per receive antenna,
            or a whitened layer signature is numerically zero, since the
            detector divides by its squared norm, or that norm overflows.
    """
    y = np.asarray(y, dtype=complex).ravel()
    n_rx = ch.effective_channel.shape[0]
    if y.size != n_rx:
        raise ValueError(
            f"observation has {y.size} entries, the channel has {n_rx} receive antennas"
        )
    GH = ch.noise.whitener
    y_t = GH @ y
    # One stacked mat-vec per layer signature: the rows are the whitened
    # signatures, rounded exactly as GH @ (one column) rounds them.
    h1, h2 = (GH @ ch.effective_channel.T[:, :, None])[:, :, 0]
    for arr in (y_t, h1, h2):
        arr.setflags(write=False)
    return WhitenedObservation(y=y_t, h1=h1, h2=h2)


def generate_channel(rng: np.random.Generator, n_rx: int) -> np.ndarray:
    """Draw an i.i.d. circularly-symmetric Gaussian ``(n_rx, 2)`` channel."""
    shape = (n_rx, 2)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_noise(rng: np.random.Generator, model: NoiseModel) -> np.ndarray:
    """Draw one zero-mean complex Gaussian vector with the model's
    covariance, coloured by its Cholesky factor.

    Raises:
        TypeError: If ``model`` is not a ``NoiseModel``.
    """
    if not isinstance(model, NoiseModel):
        raise TypeError(f"expected a NoiseModel(covariance), got {type(model).__name__}")
    n = model.factor.shape[0]
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    return model.factor @ w
