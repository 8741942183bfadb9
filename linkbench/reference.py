"""Closed forms and field arithmetic the benchmark checks nbmimo against.

Nothing here imports nbmimo: every value is computed apart from the
program under test.

* GF(2^8) products by carry-less multiplication reduced modulo the
  primitive polynomial x^8 + x^4 + x^3 + x^2 + 1, and syndromes built on it.
* Large-system (N_t, N_r -> infinity, fixed ratio) references for i.i.d.
  Rayleigh fading with y = H s + n, E|H_ij|^2 = 1, E|s_i|^2 = E_s / N_t and
  SNR per receive antenna gamma = E_s / N_0:
  - the MMSE output SINR, the root of the Tse-Hanly equation
    (Tse & Hanly, IEEE Trans. IT 45(2), 1999);
  - the matched-filter output SINR gamma / (alpha (1 + gamma));
  - the ergodic capacity E log2 det(I + (gamma / N_t) H H^H) in the
    closed form of Verdu & Shamai (IEEE Trans. IT 45(2), 1999).
* The exact mean power of the exact-MF interference-plus-noise term.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

GF256_POLY = 0b1_0001_1101  # x^8 + x^4 + x^3 + x^2 + 1


def gf256_mul(a, b) -> np.ndarray:
    """Elementwise product in GF(2^8), shift-and-add with reduction."""
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    )
    out = np.zeros(a.shape, dtype=np.int64)
    for bit in range(8):
        out ^= np.where((b >> bit) & 1, a, 0)
        a = a << 1
        a = np.where(a & 0x100, a ^ GF256_POLY, a)
    return out


def gf256_syndrome(x, rows, cols, coefs, n_checks: int) -> np.ndarray:
    """Per-check XOR of coef * x[col] over the edges (row, col, coef)."""
    x = np.asarray(x, dtype=np.int64)
    terms = gf256_mul(coefs, x[np.asarray(cols)])
    out = np.zeros(n_checks, dtype=np.int64)
    np.bitwise_xor.at(out, np.asarray(rows), terms)
    return out


def popcount(x) -> int:
    """Number of set bits over an array of small nonnegative integers."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return int(np.unpackbits(x.view(np.uint8)).sum())


def q_function(x) -> np.ndarray:
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def bpsk_ber(sinr) -> np.ndarray:
    return q_function(np.sqrt(2.0 * np.asarray(sinr, dtype=float)))


def db_to_linear(gamma_db: float) -> float:
    return 10.0 ** (gamma_db / 10.0)


def mmse_sinr_large_system(gamma: float, n_t: int, n_r: int) -> float:
    """Root beta of beta = (gamma/alpha) / (1 + gamma / (1 + beta)), alpha = N_t/N_r."""
    alpha = n_t / n_r
    snr = gamma / alpha

    def residual(beta):
        return beta - snr / (1.0 + gamma / (1.0 + beta))

    return float(optimize.brentq(residual, 0.0, snr, xtol=1e-14))


def mf_sinr_large_system(gamma: float, n_t: int, n_r: int) -> float:
    return gamma / ((n_t / n_r) * (1.0 + gamma))


def mf_term_power(n_t: int, n_r: int, gamma_db: float, es: float = 1.0) -> float:
    """E|s_hat_k - s_k|^2 under exact MF: ((N_t-1) E_s/N_t + 2 sigma_n^2) / (N_r-1).

    Given h_k, the term is a sum of N_t - 1 interferers and the noise, each
    scaled by 1/|h_k|^2; |h_k|^2 is Gamma(N_r, 1), whose inverse has mean
    1 / (N_r - 1).
    """
    two_sigma2 = es / db_to_linear(gamma_db)
    return ((n_t - 1) * es / n_t + two_sigma2) / (n_r - 1)


def verdu_shamai_capacity(gamma_db: float, n_t: int, n_r: int) -> float:
    """Large-system E log2 det(I + (gamma/N_t) H H^H), in bits per channel use."""
    beta = n_t / n_r
    snr = db_to_linear(gamma_db) / beta
    f = (
        math.sqrt(snr * (1 + math.sqrt(beta)) ** 2 + 1)
        - math.sqrt(snr * (1 - math.sqrt(beta)) ** 2 + 1)
    ) ** 2
    per_dim = (
        beta * math.log2(1 + snr - f / 4)
        + math.log2(1 + snr * beta - f / 4)
        - math.log2(math.e) * f / (4 * snr)
    )
    return n_r * per_dim
