"""Soft-output linear detection for spatial-multiplexing MIMO.

Two detector families are provided:

* MMSE: per-stream estimates s_hat_k = W_k^H y with
  W = (c I + H H^H)^{-1} H and c = N_0 / (E_s/N_t), modelled at the
  output as an equivalent AWGN channel s_hat_k = mu_k s_k + z_k with
  mu_k = W_k^H H_k and var(z_k) = (E_s/N_t)(mu_k - mu_k^2).  W itself is
  never formed.  By the push-through identity
  (c I + H H^H)^{-1} H = H G^{-1} with the N_t x N_t matrix
  G = H^H H + c I, the estimates are s_hat = G^{-1} H^H y and, since
  W^H H = I - c G^{-1}, mu_k = 1 - c [G^{-1}]_kk.  With G = L L^H,
  [G^{-1}]_kk is the squared norm of column k of L^{-1}.  A use costs a
  herk, a Cholesky factorization and a triangular inverse, about
  N_r N_t^2 / 2 + N_t^3 / 3 complex multiply-adds, where the N_r-side
  solve for W costs about 2 N_r^2 N_t + N_r^3 / 6.  Given the triangular
  Bartlett factor of H^H H instead of H (`channel.sample_bartlett`, every
  i.i.d. use that `detect_each_use` draws), lauum forms the Gram in
  N_t^3 / 6, so a use costs about N_t^3 / 2.

* Matched filter: exact weights W_k = H_k^H / (H_k^H H_k), or the paper's
  large-array simplification W_k = H_k^H / N_r.  The post-detection
  interference plus noise power Delta_k feeds a Gaussian likelihood with
  variance sigma_k^2 = Delta_k / 2; for the simplified MF Delta_k reduces
  to the stream-independent constant 2 sigma_n^2 / N_r.  `mf_detect` and
  `mf_sinr` are the exact MF; `soft_detect` applies the simplified one
  inline.  Both read H only through H^H H and H^H y, so they take a
  Bartlett factor in place of H as MMSE does: the exact MF then forms the
  Gram with lauum, and the simplified MF divides by the N_r that
  `soft_detect` is given, since the factor has N_t rows.  The Gaussian
  model is an assumption about the interference-plus-noise term
  s_hat_k - s_k itself (`mf_interference_samples` draws it); Delta_k,
  being a power, is positive and skewed.  `mf_simplified_samples` draws
  the simplified estimates, each channel use with its own H, correlated or
  not, with or without estimation error, from a sufficient statistic
  instead of H.

`soft_detect` maps a detector kind (one of `DETECTORS`) to the per-stream
likelihood rows of one channel use, h of shape (N_r, N_t) and y of shape
(N_r,).  `detect_each_use` draws each use of a stack of transmit vectors
(`channel.draw_use`) and detects it: the coded and uncoded sweeps and
density evolution's MMSE and exact-MF priors all detect through it.

Per-stream likelihood tables are aggregated into GF(2^m) symbol priors:
the prior of a symbol is the product of the q per-stream likelihoods
selected by its bit representation.  `symbol_priors` forms all 2^m
products of a symbol as a chain of outer products, one stream at a time,
so each product costs one multiplication instead of q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zlauum, zpotrf, zpotrs, ztrtri

from nbmimo.channel import draw_use, gray_constellation, snr_to_noise
from nbmimo.galois import FieldTable

VAR_FLOOR = 1e-15
# Interfering labels drawn at once by `mf_interference_samples`.
_TERM_CHUNK = 1 << 18
DETECTORS = ("mmse", "mf-exact", "mf-simplified")


@dataclass
class StreamEstimates:
    """Per-stream detection output: estimates plus equivalent-noise model."""

    s_hat: np.ndarray
    mu: np.ndarray
    var_clamped: bool = False


def mmse_soft(
    h: np.ndarray,
    y: np.ndarray,
    es: float,
    n_t: int,
    n0: float,
    constellation,
) -> tuple[StreamEstimates, np.ndarray]:
    """MMSE estimates and the per-stream likelihood table Pr(s_hat_k | s).

    h is one channel use, (N_r, N_t), taken in double precision.  The use
    solves the N_t x N_t system G = H^H H + c I of the push-through
    identity (module docstring) with one herk, potrf, potrs and trtri:
    about 0.8 n^3 complex multiply-adds at N_r = N_t = n, against 2.2 n^3
    for W.  A square h that is zero above its diagonal and real on it, a
    Bartlett factor L with H^H H = L^H L, takes lauum in place of herk:
    about 0.5 n^3.

    The likelihood is exp(-|s_hat_k - mu_k s|^2 / eps_k^2) normalized over
    the constellation; it is computed in the log domain with max
    subtraction so the normalization is exact.
    """
    c = n0 / (es / n_t)
    s_hat, g_inv_diag = _mmse_nt_side(h, y, c)
    mu = 1 - c * g_inv_diag
    var = (es / n_t) * (mu - mu**2)
    clamped = bool(np.any(var <= VAR_FLOOR))
    var = np.maximum(var, VAR_FLOOR)
    diff = s_hat[:, None] - mu[:, None] * constellation.points
    log_lik = -(np.abs(diff) ** 2) / var[:, None]
    block = _normalize_rows(log_lik)
    return StreamEstimates(s_hat, mu, clamped), block


def _mmse_nt_side(h, y, c):
    """(G^{-1} H^H y, diag G^{-1}) of one use, G = H^H H + c I.

    The routines factor the conjugate conj(G) = H^T conj(H) + c I, one
    triangle of it from `_conj_gram`.  With conj(G) = M M^H:
    conj(G)^{-1} conj(H^H y) = conj(G^{-1} H^H y), and
    diag G^{-1} = diag conj(G)^{-1} is the squared column norms of M^{-1}
    (potrf zeroes its other triangle).  An upper triangle factors as
    U^H U, so M = U^H and the norms are those of the rows of U^{-1}.
    """
    n = h.shape[1]
    gram, lower = _conj_gram(h)
    gram[np.arange(n), np.arange(n)] += c
    chol, info = zpotrf(gram, lower=lower, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("regularized Gram matrix is not positive definite")
    x, _ = zpotrs(chol, y.conj() @ h, lower=lower)
    inv, _ = ztrtri(chol, lower=lower, overwrite_c=1)
    # The rows of inv.T are the columns of inv as (re, im) pairs, and its
    # pairs of columns are the rows of inv.
    pairs = inv.T.view(inv.real.dtype)
    if lower:
        norms = np.einsum("ij,ij->i", pairs, pairs)
    else:
        norms = np.einsum("ji,ji->i", pairs, pairs).reshape(n, 2).sum(axis=1)
    return x.conj().ravel(), norms


def _conj_gram(h):
    """(triangle, lower): one triangle of conj(H^H H) = h.T conj(h), the
    other triangle zero.

    Any h takes the lower triangle from herk, which reads h.T,
    Fortran-ordered for a C-ordered h, without a copy.  A lower-triangular
    h with a real diagonal (a Bartlett factor, `channel.sample_bartlett`)
    takes lauum instead: h.T is then upper triangular, and lauum forms the
    upper triangle of h.T conj(h.T)^T on a plain copy of h, at about 2/3
    of herk's cost.  (lauum reads only the real part of the diagonal, as
    of a Cholesky factor.)
    """
    if _is_bartlett_factor(h):
        upper, _ = zlauum(h.T)
        return upper, False
    return zherk(1.0, h.T, lower=1), True


def _is_bartlett_factor(h) -> bool:
    """Square, zero above the diagonal and real on it.  A full H fails on
    its first row, at the cost of one short scan."""
    n = h.shape[1]
    return (
        h.shape[0] == n
        and not h[0, 1:].any()
        and not h.diagonal().imag.any()
        and not np.any(h, where=_above_diagonal(n))
    )


@lru_cache(maxsize=4)
def _above_diagonal(n: int) -> np.ndarray:
    return ~np.tri(n, dtype=bool)


def _normalize_rows(log_lik: np.ndarray) -> np.ndarray:
    log_lik = log_lik - log_lik.max(axis=-1, keepdims=True)
    lik = np.exp(log_lik)
    return lik / lik.sum(axis=-1, keepdims=True)


def mf_detect(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact matched-filter estimates H_k^H y / (H_k^H H_k)."""
    norms = np.real(np.sum(h.conj() * h, axis=0))
    if np.any(norms == 0):
        raise ValueError("channel has a zero column")
    return (h.conj().T @ y) / norms


def mf_sinr(h: np.ndarray, sigma2_n: float):
    """(delta_k, Delta_k, sigma2_k) of the exact MF, each an array over the
    streams of h, with E_s = 1 and N_t the column count of h.

    Evaluates
    Delta_k = (E_s/N_t) sum_{i != k} |W_k H_i|^2 + 2 sigma_n^2 |W_k|^2
    with W_k = H_k^H / (H_k^H H_k), that is
    (E_s/N_t) (sum_i |G_ki|^2 - G_kk^2) / G_kk^2 + 2 sigma_n^2 / G_kk with
    G = H^H H.  With T the triangle of conj(G) from `_conj_gram` (lauum
    on a Bartlett factor, herk otherwise), sum_i |G_ki|^2 is the sum of
    |T|^2 over row k and column k, with the diagonal counted once.
    """
    es_per_stream = 1.0 / h.shape[1]
    gram, _ = _conj_gram(h)
    gk = gram.diagonal().real
    power = np.abs(gram) ** 2
    interference = power.sum(axis=0) + power.sum(axis=1) - 2 * gk**2
    big_delta = es_per_stream * interference / gk**2 + 2.0 * sigma2_n / gk
    return es_per_stream / big_delta, big_delta, big_delta / 2.0


def mf_soft(s_hat: np.ndarray, sigma2_k, constellation) -> np.ndarray:
    """Gaussian likelihood rows exp(-|s_hat - s|^2 / (2 sigma_k^2)), normalized."""
    sigma2_k = np.maximum(np.broadcast_to(sigma2_k, s_hat.shape).astype(float), VAR_FLOOR)
    diff = s_hat[..., None] - constellation.points
    log_lik = -(np.abs(diff) ** 2) / (2.0 * sigma2_k[..., None])
    return _normalize_rows(log_lik)


def mf_simplified_samples(
    s: np.ndarray,
    n_r: int,
    sigma2_n: float,
    rng: np.random.Generator,
    sigma2_e: float = 0.0,
    corr=None,
    constellation=None,
) -> np.ndarray:
    """Simplified-MF estimates (H + E)^H y / N_r of b uses, drawn without H.

    `s` holds one transmit vector per row, shape (b, N_t); every use has
    its own channel H = A W B^T with W i.i.d. CN(0, 1), A = L_r and
    B = L_t the Cholesky factors of `corr` (identity when None),
    y = H s + n, and a receiver estimate H + E with E i.i.d.
    CN(0, sigma2_e).  Given a `constellation`, the result is the `mf_soft`
    rows with the constant sigma_n^2 / N_r instead.

    The law.  With u = B^T s, a = W u is CN(0, ||u||^2 I) and y = A a + n.
    Then (H + E)^H y = B W^H v + E^H y with v = A^T y.  Given y, E^H y is
    CN(0, sigma2_e ||y||^2 I), independent of the rest.  W splits into
    a u^H / ||u||^2 and W P with P = I - u u^H / ||u||^2.  The rows of W
    are i.i.d. CN(0, I), so W P and a are jointly circular Gaussian and
    uncorrelated (P u = 0), hence independent; given (a, n),
    W^H v = u (a^H v) / ||u||^2 + P z with z ~ CN(0, ||v||^2 I).  A and B
    are real, so H^H = B W^H A^T.  Drawing (a, n, z, e) in that order
    costs four matrix-vector products and O(N_t + N_r) normals per use,
    instead of N_t N_r normals and two O(n^3) products, and the estimates
    have the joint law over the streams of the full-H pipeline.
    It needs the constant 1/N_r weights: exact MF and MMSE need H^H H.
    """
    b, n_t = s.shape
    half = np.sqrt(0.5)
    u = s if corr is None else s @ corr.factor_t  # rows of B^T s
    u_norm2 = np.sum(np.abs(u) ** 2, axis=1, keepdims=True)
    a = rng.standard_normal((b, n_r)) + 1j * rng.standard_normal((b, n_r))
    a *= half * np.sqrt(u_norm2)
    y = a if corr is None else a @ corr.factor_r.T
    if sigma2_n > 0:
        y = y + np.sqrt(sigma2_n) * (
            rng.standard_normal((b, n_r)) + 1j * rng.standard_normal((b, n_r))
        )
    v = y if corr is None else y @ corr.factor_r
    z = rng.standard_normal((b, n_t)) + 1j * rng.standard_normal((b, n_t))
    z *= half * np.linalg.norm(v, axis=1, keepdims=True)
    # W^H v = z + u (a^H v - u^H z) / ||u||^2, which applies P to z.
    along_u = np.sum(a.conj() * v, axis=1, keepdims=True)
    along_u -= np.sum(u.conj() * z, axis=1, keepdims=True)
    est = z + u * (along_u / u_norm2)
    if corr is not None:
        est = est @ corr.factor_t.T
    if sigma2_e > 0:
        e = rng.standard_normal((b, n_t)) + 1j * rng.standard_normal((b, n_t))
        est += e * (np.sqrt(sigma2_e / 2) * np.linalg.norm(y, axis=1, keepdims=True))
    s_hat = est / n_r
    if constellation is None:
        return s_hat
    # The simplified MF's constant Delta / 2, as in `soft_detect`.
    return mf_soft(s_hat, sigma2_n / n_r, constellation)


def soft_detect(
    kind: str,
    h: np.ndarray,
    y: np.ndarray,
    sigma2_n: float,
    constellation,
    n_r: int,
) -> np.ndarray:
    """Per-stream likelihood rows Pr(s_hat_k | s), shape (N_t, M), of one
    channel use under one detector kind.

    `sigma2_n` is the noise variance per real component, and E_s = 1.
    h may be a Bartlett factor of H^H H in place of H, so `n_r` names the
    system's N_r, by which the simplified MF divides its estimates and
    its constant variance sigma_n^2 / N_r.
    """
    if kind == "mmse":
        _, block = mmse_soft(h, y, 1.0, h.shape[1], 2 * sigma2_n, constellation)
        return block
    if kind == "mf-exact":
        s_hat = mf_detect(h, y)
        _, _, sigma2_k = mf_sinr(h, sigma2_n)
        return mf_soft(s_hat, sigma2_k, constellation)
    if kind == "mf-simplified":
        return mf_soft((h.conj().T @ y) / n_r, sigma2_n / n_r, constellation)
    raise ValueError(f"unknown detector {kind!r}")


def detect_each_use(kind, vectors, n_r, corr, sigma2_e, sigma2_n, constellation, rng):
    """Stacked likelihood rows, shape (uses N_t, M), of the transmit vectors
    (one per row), each use through its own channel draw
    (`channel.draw_use`) and `soft_detect`."""
    blocks = []
    for s in vectors:
        h_est, y = draw_use(s, n_r, corr, sigma2_e, sigma2_n, rng)
        blocks.append(soft_detect(kind, h_est, y, sigma2_n, constellation, n_r))
    return np.vstack(blocks)


def symbol_priors(likelihoods: np.ndarray, field: FieldTable) -> np.ndarray:
    """Fold q consecutive per-stream likelihood rows into 2^m symbol priors.

    Streams k .. k+q-1 carry one coded symbol; the prior of symbol value x
    is the product of the q likelihoods of the modulated symbols whose
    concatenated labels equal the bit representation of x, stream j
    holding bits j p .. (j + 1) p - 1 of x.  The products are built one
    stream at a time as symbol-major (2^{(j+1) p}, n) outer products, in
    the order ((l_0 l_1) l_2) ..., and normalized by a sum over symbol
    values in that same order.  Aggregation costs fewer than
    2^m M / (M - 1) real multiplications per coded symbol (M = 2^p).  The
    result is the transpose of that array: an (n, 2^m) array whose symbol
    axis has the longer stride.
    """
    n_streams, m_points = likelihoods.shape
    p = int(np.log2(m_points))
    if 2**p != m_points:
        raise ValueError("likelihood table width must be a power of two")
    if field.m % p != 0:
        raise ValueError(f"{p} bits per stream do not divide m = {field.m}")
    q = field.m // p
    if n_streams % q != 0:
        raise ValueError(
            f"{n_streams} stream rows do not form whole groups of q = {q}"
        )
    n_symbols = n_streams // q

    # by_stream[j] is stream j's (M, n_symbols) table, label-major; a
    # contiguous copy keeps each outer product's inner loop unit-stride.
    by_stream = np.ascontiguousarray(
        likelihoods.reshape(n_symbols, q, m_points).transpose(1, 2, 0)
    )
    priors = by_stream[0].copy()  # normalized in place below
    for j in range(1, q):
        # Row x_j 2^{jp} + x_low of the product is l_j[x_j] times row x_low.
        priors = (priors * by_stream[j][:, None, :]).reshape(-1, n_symbols)
    priors /= priors.sum(axis=0)
    return priors.T


def mf_interference_samples(
    n_t: int,
    n_r: int,
    gamma_db: float,
    n_samples: int,
    rng: np.random.Generator,
    modulation: int = 2,
) -> np.ndarray:
    """Draws of the exact-MF interference-plus-noise term s_hat_k - s_k.

    The law is that of one channel use of the detection path: an i.i.d.
    Rayleigh H, uniform Gray-constellation symbols with
    E[|s_i|^2] = 1/N_t (E_s = 1), y = H s + n, and exact matched
    filtering.  `mf_soft` models each real component of this complex term
    as Gaussian with variance Delta_k / 2.

    The term is drawn without H.  With r = sum_{i != k} h_i s_i + n,
    s_hat_k - s_k = h_k^H r / G with G = ||h_k||^2.  Given the symbols,
    r is CN(0, P I) with P = sum_{i != k} |s_i|^2 + 2 sigma_n^2, and
    independent of h_k; so h_k^H r / G is CN(0, P / G) given G, and G is
    Gamma(N_r, 1).  Each draw is z sqrt(P / G) with z ~ CN(0, 1): exact in
    law for every constellation and every stream (the streams are
    exchangeable), at O(N_t) per draw instead of O(N_r N_t).
    """
    sigma2_n = snr_to_noise(gamma_db)
    const = gray_constellation(modulation, symbol_energy=1.0 / n_t)
    energy = np.abs(const.points) ** 2
    chunk = max(1, _TERM_CHUNK // max(n_t - 1, 1))
    out = np.empty(n_samples, dtype=np.complex128)
    for start in range(0, n_samples, chunk):
        b = min(chunk, n_samples - start)
        labels = rng.integers(0, modulation, size=(b, n_t - 1))
        power = energy[labels].sum(axis=1) + 2.0 * sigma2_n
        gain = rng.gamma(n_r, size=b)
        z = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        out[start:start + b] = z * np.sqrt(power / (2.0 * gain))
    return out
