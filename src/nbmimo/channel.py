"""Modulation, MIMO channel sampling, and capacity estimation.

Transmit vectors obey the component-wise power constraint
E[|s_i|^2] = E_s / N_t, and the SNR per receive antenna is
gamma = E_s / N_0 with N_0 = 2 sigma_n^2 (noise variance sigma_n^2 per real
component).  Doubly correlated channels follow the Kronecker model
H = R_r^{1/2} H_iid R_t^{1/2} with exponential correlation matrices
R(rho)[i, j] = rho^|i - j| (Loyka, IEEE Comm. Letters 5(9), 2001), drawn
as L_r H_iid L_t^T with the Cholesky factors L L^T = R.  That is the same
law: L = R^{1/2} Q with Q orthogonal, and Q_r H_iid Q_t^T is i.i.d.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import dpttrf, zpotrf

from nbmimo.galois import FieldTable


@dataclass
class Constellation:
    """Gray-labelled complex constellation with per-point index = label."""

    points: np.ndarray
    bits_per_symbol: int

    @property
    def size(self) -> int:
        return len(self.points)

    def labels_to_bits(self, labels: np.ndarray) -> np.ndarray:
        shifts = np.arange(self.bits_per_symbol)
        return (np.asarray(labels)[..., None] >> shifts) & 1


# Per-axis Gray maps: position index along the axis for each bit pattern.
_GRAY_AXIS_4 = np.array([0, 1, 3, 2])      # 2 bits: 00,01,11,10 -> -3,-1,+1,+3


def gray_constellation(size: int, symbol_energy: float = 1.0) -> Constellation:
    """BPSK, QPSK, or 16-QAM scaled to mean energy `symbol_energy`.

    Labels are Gray: nearest neighbours differ in exactly one bit.  Bit 0
    of the label is the least significant, matching the bit order of the
    GF(2^m) symbol representation feeding the mapper.
    """
    if size == 2:
        amp = np.sqrt(symbol_energy)
        points = np.array([amp, -amp], dtype=np.complex128)
        return Constellation(points, 1)
    if size == 4:
        amp = np.sqrt(symbol_energy / 2)
        levels = np.array([1.0, -1.0])
        points = np.empty(4, dtype=np.complex128)
        for label in range(4):
            points[label] = amp * (levels[label & 1] + 1j * levels[label >> 1])
        return Constellation(points, 2)
    if size == 16:
        amp = np.sqrt(symbol_energy / 10)
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        points = np.empty(16, dtype=np.complex128)
        for label in range(16):
            i = levels[_GRAY_AXIS_4[label & 0b11]]
            q = levels[_GRAY_AXIS_4[label >> 2]]
            points[label] = amp * (i + 1j * q)
        return Constellation(points, 4)
    raise ValueError(f"unsupported constellation size {size}; use 2, 4, or 16")


def map_codeword(
    symbols: np.ndarray, constellation: Constellation, field: FieldTable, n_t: int
) -> np.ndarray:
    """Transmit vectors, shape (n_uses, n_t), of a GF(2^m) symbol stream.

    Each coded symbol is demultiplexed into q = m/p modulated symbols: its
    m bits fill q consecutive antennas in order, n_t / q coded symbols per
    use.  The stream is zero-padded (known zero symbols) up to a whole
    number of transmit vectors.
    """
    p = constellation.bits_per_symbol
    m = field.m
    if m % p != 0:
        raise ValueError(f"bits per modulated symbol {p} must divide m = {m}")
    q = m // p
    if n_t % q != 0:
        raise ValueError(f"n_t = {n_t} must be divisible by q = {q}")
    per_use = n_t // q

    symbols = np.asarray(symbols)
    n_pad = (-len(symbols)) % per_use
    padded = np.concatenate([symbols, np.zeros(n_pad, dtype=symbols.dtype)])
    # Label of sub-symbol i is bit slice [i*p, (i+1)*p) of the coded symbol.
    shifts = np.arange(q) * p
    labels = (padded[:, None] >> shifts) & ((1 << p) - 1)
    return constellation.points[labels.reshape(-1, n_t)]


def sample_iid(n_t: int, n_r: int, rng: np.random.Generator) -> np.ndarray:
    """Rayleigh-fading matrix with i.i.d. CN(0, 1) entries."""
    h = np.empty((n_r, n_t), dtype=np.complex128)
    h.real = rng.standard_normal((n_r, n_t))
    h.imag = rng.standard_normal((n_r, n_t))
    h /= np.sqrt(2)
    return h


def sample_bartlett(n_t: int, n_r: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular N_t x N_t factor L of an i.i.d. CN(0, 1) N_r x N_t H.

    For N_r >= N_t, QR-factoring H with its columns taken last to first
    writes H = Q L, Q with orthonormal columns and independent of L.  The
    entries of L are independent: |L_ii|^2 ~ Gamma(N_r - N_t + i) for
    i = 1..N_t, taken real and positive, and L_ij ~ CN(0, 1) below the
    diagonal (the complex Bartlett decomposition of the Wishart matrix
    H^H H = L^H L).  A detector that reads H only through H^H H and
    H^H y sees the same law from (L, Q^H y), and Q^H n of a CN(0, s I)
    noise n is CN(0, s I_{N_t}).  This costs N_t (N_t - 1) normals and
    N_t gamma draws instead of 2 N_r N_t normals.
    """
    if n_r < n_t:
        raise ValueError(f"the Bartlett factor needs n_r >= n_t, got {n_r} < {n_t}")
    below = _strictly_lower(n_t)
    lower = np.zeros((n_t, n_t), dtype=np.complex128)
    z = rng.standard_normal(2 * np.count_nonzero(below)).view(np.complex128)
    z *= np.sqrt(0.5)
    lower[below] = z
    shape = np.arange(n_r - n_t + 1, n_r + 1, dtype=np.float64)
    np.fill_diagonal(lower, np.sqrt(rng.standard_gamma(shape)))
    return lower


@lru_cache(maxsize=4)
def _strictly_lower(n: int) -> np.ndarray:
    return np.tri(n, k=-1, dtype=bool)


def _exponential(rho: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _exponential_factor(rho: float, n: int) -> np.ndarray:
    # Closed-form lower Cholesky factor: L[i, 0] = rho^i and
    # L[i, j] = sqrt(1 - rho^2) rho^(i - j) for 1 <= j <= i.
    factor = np.tril(_exponential(rho, n))
    factor[:, 1:] *= np.sqrt(1.0 - rho * rho)
    return factor


def _exponential_eigenvalues(rho: float, n: int) -> np.ndarray:
    # A full eigh, clipped at zero: eigvalsh differs from it in the last bits.
    return np.clip(np.linalg.eigh(_exponential(rho, n))[0], 0.0, None)


class CorrelationSpec:
    """Exponential correlation R(rho_t) at the transmitter, R(rho_r) at the
    receiver: lower Cholesky factors for channel draws and detection, and
    eigenvalues for capacity draws, each formed on first use."""

    def __init__(self, rho_t: float, rho_r: float, n_t: int, n_r: int):
        if not (0 <= rho_t < 1 and 0 <= rho_r < 1):
            raise ValueError("correlation parameters must lie in [0, 1)")
        self.rho_t = rho_t
        self.rho_r = rho_r
        self.n_t = n_t
        self.n_r = n_r

    @cached_property
    def factor_t(self) -> np.ndarray:
        return _exponential_factor(self.rho_t, self.n_t)

    @cached_property
    def factor_r(self) -> np.ndarray:
        return _exponential_factor(self.rho_r, self.n_r)

    @cached_property
    def eig_t(self) -> np.ndarray:
        return _exponential_eigenvalues(self.rho_t, self.n_t)

    @cached_property
    def eig_r(self) -> np.ndarray:
        if (self.rho_r, self.n_r) == (self.rho_t, self.n_t):
            return self.eig_t
        return _exponential_eigenvalues(self.rho_r, self.n_r)


def apply_correlation(h_iid: np.ndarray, corr: CorrelationSpec) -> np.ndarray:
    """L_r H L_t^T, the real factors applied to Re H and Im H as real products."""
    h = np.empty_like(h_iid)
    h.real = corr.factor_r @ h_iid.real @ corr.factor_t.T
    h.imag = corr.factor_r @ h_iid.imag @ corr.factor_t.T
    return h


def perturb_estimate(
    h: np.ndarray, sigma2_e: float, rng: np.random.Generator
) -> np.ndarray:
    """Receiver-side channel estimate: the true H plus CN(0, sigma2_e) errors."""
    if sigma2_e < 0:
        raise ValueError("estimation error variance must be nonnegative")
    if sigma2_e == 0:
        return h
    scale = np.sqrt(sigma2_e / 2)
    err = scale * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    return h + err


def transmit(
    h: np.ndarray, s: np.ndarray, sigma2_n: float, rng: np.random.Generator
) -> np.ndarray:
    """y = H s + n, noise variance sigma2_n per real component."""
    y = h @ s
    if sigma2_n > 0:
        n = np.sqrt(sigma2_n) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
        y = y + n
    return y


def draw_use(s, n_r, corr, sigma2_e, sigma2_n, rng):
    """(receiver's channel estimate, received vector) of one use of s.

    Correlated fading and N_r < N_t take the full route: draw H, correlate
    it, perturb its estimate and transmit.  I.i.d. fading with N_r >= N_t
    takes the Bartlett route, which serves every detector (MMSE and both
    matched filters), since each reads the estimate only through
    H_est^H H_est and H_est^H y.  H_est is CN(0, a), a = 1 + sigma_e^2, so
    it is sqrt(a) Q L with L the Bartlett factor (`sample_bartlett`).  And
    H = H_est / a + D with D ~ CN(0, sigma_e^2 / a) independent of H_est,
    so y = H_est s / a + v with v ~ CN(0, (sigma_e^2 / a) ||s||^2
    + 2 sigma_n^2).  The route returns sqrt(a) L and Q^H y in law:
    sqrt(a) L s / a plus v's law on N_t components.  L has N_t rows, so a
    detector that scales by 1/N_r (the simplified MF) takes N_r from the
    caller.
    """
    if corr is not None or n_r < len(s):
        h = sample_iid(len(s), n_r, rng)
        if corr is not None:
            h = apply_correlation(h, corr)
        h_est = perturb_estimate(h, sigma2_e, rng)
        return h_est, transmit(h, s, sigma2_n, rng)
    a = 1.0 + sigma2_e
    h_est = sample_bartlett(len(s), n_r, rng)
    if sigma2_e > 0:
        h_est *= np.sqrt(a)
    leak = sigma2_e / a * np.vdot(s, s).real / 2
    return h_est, transmit(h_est, s / a, sigma2_n + leak, rng)


def snr_to_noise(gamma_db: float) -> float:
    """Per-real-component noise variance for an SNR per receive antenna (E_s = 1)."""
    return 1.0 / (2.0 * 10.0 ** (gamma_db / 10.0))


def instantaneous_capacity(h: np.ndarray, gamma_db: float) -> float:
    """log2 det(I + (gamma/N_t) H H^H) of one channel matrix H (N_r x N_t).

    The log det comes from a Cholesky factor of the Gram matrix.
    """
    scale = 10.0 ** (gamma_db / 10.0) / h.shape[1]
    gram = zherk(scale, h)  # upper triangle of scale * H H^H
    gram[np.diag_indices_from(gram)] += 1.0
    factor, info = zpotrf(gram, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed ({info})")
    return 2.0 * np.log(factor.diagonal().real).sum() / np.log(2.0)


def _tridiagonal_log2_det(d2: np.ndarray, e2: np.ndarray) -> float:
    """log2 det(I + B^T B) for the upper bidiagonal B with squared diagonal
    `d2` and squared superdiagonal `e2`.

    I + B^T B is tridiagonal: 1 + d_i^2 + e_{i-1}^2 on the diagonal and
    d_i e_i beside it.  `dpttrf` factors it as L D L^T.
    """
    pivots = 1.0 + d2
    if e2.size:
        pivots[1:] += e2
        pivots, _, info = dpttrf(pivots, np.sqrt(d2[:-1] * e2), overwrite_d=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal factorization failed ({info})")
    return np.log(pivots).sum() / np.log(2.0)


def ergodic_capacity(
    n_t: int,
    n_r: int,
    gamma_db: float,
    trials: int,
    rng: np.random.Generator,
    corrs: Sequence[CorrelationSpec] | None = None,
):
    """Monte Carlo mean of log2 det(I + (gamma/N_t) H H^H), with std error.

    Without `corrs`, the channel is i.i.d. and the result one (mean, std
    error).  An i.i.d. trial draws no H.  The log det depends only on
    the singular values of H, and those of an i.i.d. CN(0, 1) H have the
    law of a real n x n upper bidiagonal B with independent entries,
    n = min(N_t, N_r) and m = max(N_t, N_r): d_i^2 ~ Gamma(m - i) on the
    diagonal and e_i^2 ~ Gamma(n - 1 - i) above it (Dumitriu & Edelman,
    "Matrix models for beta ensembles", J. Math. Phys. 43, 2002).  These
    are the squared norms that Golub-Kahan bidiagonalization of H
    produces, Gamma(k, 1) being that of k CN(0, 1) entries.  So a trial
    is the log det of the tridiagonal I + (gamma/N_t) B^T B, from its
    O(n) factorization L D L^T.

    `corrs` gives a list of (mean, std error), one per doubly correlated
    spec.  Each trial draws one W and scales it for every spec, in the
    eigenbasis of the correlation matrices.  With R = U Lambda U^T, the
    Kronecker channel is
    H = U_r Lambda_r^{1/2} U_r^T W U_t Lambda_t^{1/2} U_t^T.  The log det
    does not change under the unitary U_r on the left and U_t^T on the
    right, and U_r^T W U_t has the law of the i.i.d. W.  So
    Lambda_r^{1/2} W Lambda_t^{1/2}, a diagonal scaling of W, gives the
    capacity the same law as the full product (Tulino & Verdu, Random
    Matrix Theory and Wireless Communications, 2004).  That scaling does
    not preserve the singular values of W, so these trials draw W in full
    and take `instantaneous_capacity`.  This holds for capacity only;
    detection draws H itself (`apply_correlation`).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if corrs is None:
        vals = np.empty((1, trials))
        m, n = max(n_t, n_r), min(n_t, n_r)
        scale = 10.0 ** (gamma_db / 10.0) / n_t
        d_shape = np.arange(m, m - n, -1.0)
        e_shape = np.arange(n - 1, 0, -1.0)
        for t in range(trials):
            d2 = scale * rng.standard_gamma(d_shape)
            e2 = scale * rng.standard_gamma(e_shape)
            vals[0, t] = _tridiagonal_log2_det(d2, e2)
    else:
        roots = [(np.sqrt(c.eig_r)[:, None], np.sqrt(c.eig_t)) for c in corrs]
        vals = np.empty((len(roots), trials))
        for t in range(trials):
            w = sample_iid(n_t, n_r, rng)
            for i, (root_r, root_t) in enumerate(roots):
                # The last spec scales W in place: one spec holds no copy.
                h = np.multiply(root_r, w, out=w if i == len(roots) - 1 else None)
                h *= root_t
                vals[i, t] = instantaneous_capacity(h, gamma_db)
    results = [
        (float(v.mean()), float(v.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0)
        for v in vals
    ]
    return results[0] if corrs is None else results


def spectral_efficiency(bits_per_symbol: int, rate, n_t: int) -> float:
    """Transmitted information rate p R N_t in bps/Hz."""
    return float(bits_per_symbol * rate * n_t)
