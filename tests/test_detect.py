import itertools

import numpy as np
import pytest
from scipy import stats

from nbmimo.channel import (
    CorrelationSpec,
    apply_correlation,
    draw_use,
    gray_constellation,
    perturb_estimate,
    sample_bartlett,
    sample_iid,
    snr_to_noise,
    transmit,
)
from nbmimo.detect import (
    DETECTORS,
    VAR_FLOOR,
    mf_detect,
    mf_interference_samples,
    mf_simplified_samples,
    mf_sinr,
    mf_soft,
    mmse_soft,
    soft_detect,
    symbol_priors,
)
from nbmimo.galois import build_field
from nbmimo.runner import ks_gaussian_test, substream


def _receive_side_weights(h, c):
    """W = (c I + H H^H)^{-1} H for each use, the N_r-side MMSE filter."""
    eye = np.eye(h.shape[-2])
    return np.linalg.solve(c * eye + h @ h.conj().swapaxes(-1, -2), h)


class TestMmseWeights:
    """The MMSE filter W as `mmse_soft` applies it.

    s_hat = W^H y and mu_k = W_k^H H_k, with es = 1 throughout.
    """

    def test_scalar_low_noise_limit(self):
        h = np.array([[1.0 + 0j]])
        y = np.array([0.3 - 0.2j])
        est, _ = mmse_soft(h, y, 1.0, 1, 1e-12, gray_constellation(2))
        assert abs(est.s_hat[0] - y[0]) < 1e-9
        assert abs(est.mu[0] - 1.0) < 1e-9

    def test_orthogonal_columns_give_scaled_columns(self):
        # Diagonal Gram: W_k = H_k / (reg + |H_k|^2) with reg = N_0/(E_s/N_t)
        # = 1, so W = (2/5) I and mu_k = 4/5.
        h = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.complex128)
        y = np.array([1.0 + 2.0j, -0.5j])
        est, _ = mmse_soft(h, y, 1.0, 2, 0.5, gray_constellation(2))
        assert np.allclose(est.s_hat, (2.0 / 5.0) * y, atol=1e-12)
        assert np.allclose(est.mu, 4.0 / 5.0, atol=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(0)
        h = sample_iid(4, 4, rng)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        es, n_t, n0 = 1.0, 4, 0.4
        est, _ = mmse_soft(h, y, es, n_t, n0, gray_constellation(2, 1 / n_t))
        w = np.linalg.inv((n0 / (es / n_t)) * np.eye(4) + h @ h.conj().T) @ h
        assert np.max(np.abs(est.s_hat - w.conj().T @ y)) < 1e-10
        assert np.max(np.abs(est.mu - np.real(np.sum(w.conj() * h, axis=0)))) < 1e-10


def _bartlett_use(seed, n_t, n_r, modulation):
    """One noisy use through a Bartlett factor L: (L, L s + w)."""
    rng = np.random.default_rng(seed)
    c = gray_constellation(modulation, symbol_energy=1 / n_t)
    sigma2 = snr_to_noise(0.0)
    h = sample_bartlett(n_t, n_r, rng)
    s = c.points[rng.integers(0, modulation, size=n_t)]
    return h, transmit(h, s, sigma2, rng), sigma2, c


def _one_entry_above_diagonal(seed):
    """A Bartlett use with one nonzero entry put above the diagonal."""
    h, y, sigma2, c = _bartlett_use(seed, 8, 8, 2)
    h[2, 5] = 0.4 - 0.3j
    return h, y, sigma2, c


def _complex_diagonal(seed):
    """A lower-triangular use whose diagonal is not real."""
    h, y, sigma2, c = _bartlett_use(seed, 8, 8, 2)
    h[np.arange(8), np.arange(8)] *= np.exp(0.7j)
    return h, y, sigma2, c


class TestMmseSoft:
    def test_noiseless_scalar_gives_delta(self):
        c = gray_constellation(2)
        h = np.array([[1.0 + 0j]])
        s = c.points[1]
        y = h @ np.array([s])
        _, block = mmse_soft(h, y, es=1.0, n_t=1, n0=1e-9, constellation=c)
        assert block[0, 1] > 1 - 1e-6

    def test_mu_between_zero_and_one(self):
        rng = np.random.default_rng(1)
        n = 200
        h = sample_iid(n, n, rng)
        n0 = 2 * snr_to_noise(-2.0)
        est, _ = mmse_soft(
            h,
            np.zeros(n, dtype=np.complex128),
            es=1.0,
            n_t=n,
            n0=n0,
            constellation=gray_constellation(2, 1 / n),
        )
        assert np.all(est.mu > 0)
        assert np.all(est.mu < 1)

    def test_rows_normalized(self):
        rng = np.random.default_rng(2)
        n = 8
        c = gray_constellation(4, 1 / n)
        h = sample_iid(n, n, rng)
        s = c.points[rng.integers(0, 4, n)]
        sigma2 = snr_to_noise(0.0)
        y = transmit(h, s, sigma2, rng)
        _, block = mmse_soft(h, y, 1.0, n, 2 * sigma2, c)
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_likelihoods_close_to_true_mixture_posterior(self):
        # Oracle: the exact conditional density of s_hat_k given s_k,
        # marginalizing the other stream over its discrete prior.  The
        # equivalent-AWGN model should be KL-close to it.
        rng = np.random.default_rng(3)
        n = 2
        c = gray_constellation(2, symbol_energy=1 / n)
        h = sample_iid(n, n, rng)
        es, gamma_db = 1.0, 5.0
        sigma2 = snr_to_noise(gamma_db)
        n0 = 2 * sigma2
        w = _receive_side_weights(h, n0 / (es / n))
        truth = rng.integers(0, 2, n)
        s = c.points[truth]
        y = transmit(h, s, sigma2, rng)
        est, block = mmse_soft(h, y, es, n, n0, c)

        k = 0
        # s_hat_k = w_k^H(H s + n): complex Gaussian with variance
        # 2 sigma^2 ||w_k||^2 around w_k^H H s for each s combination.
        wk = w[:, k]
        noise_var = 2 * sigma2 * np.real(wk.conj() @ wk)
        dens = np.zeros(2)
        for sk in range(2):
            for other in range(2):
                full = np.array(
                    [c.points[sk if j == k else other] for j in range(n)]
                )
                mean = wk.conj() @ (h @ full)
                dens[sk] += 0.5 * np.exp(
                    -np.abs(est.s_hat[k] - mean) ** 2 / noise_var
                ) / (np.pi * noise_var)
        oracle = dens / dens.sum()
        approx = block[k]
        kl = np.sum(oracle * np.log(oracle / approx))
        assert kl < 0.05

    @pytest.mark.parametrize(
        "draw",
        [
            pytest.param(lambda: _full_use(40, 16, 16, 2), id="nt16-nr16"),
            pytest.param(lambda: _full_use(41, 6, 8, 2), id="nt6-nr8"),
            pytest.param(lambda: _full_use(42, 8, 6, 2), id="nt8-nr6"),
            pytest.param(lambda: _full_use(43, 200, 200, 2), id="nt200-nr200"),
            pytest.param(lambda: _bartlett_use(47, 16, 16, 2), id="bartlett-bpsk"),
            pytest.param(lambda: _bartlett_use(48, 12, 20, 16), id="bartlett-16qam"),
            pytest.param(lambda: _one_entry_above_diagonal(49), id="one-entry-above"),
            pytest.param(lambda: _complex_diagonal(50), id="complex-diagonal"),
        ],
    )
    def test_matches_receive_side_solve(self, draw):
        # Against the use's N_r-side solve W = (c I + H H^H)^{-1} H.  A
        # Bartlett factor takes lauum in place of herk; a square h with one
        # entry above the diagonal, or with a complex diagonal, must not.
        # Neither route writes into h.
        h, y, sigma2, c = draw()
        h_in = h.copy()
        n_t = h.shape[1]
        es, n0 = 1.0, 2 * sigma2
        est, block = mmse_soft(h, y, es, n_t, n0, c)
        assert np.array_equal(h, h_in)
        assert est.s_hat.shape == est.mu.shape == (n_t,)
        assert block.shape == (n_t, c.size)
        w = _receive_side_weights(h, n0 / (es / n_t))
        s_hat = w.conj().T @ y
        mu = np.real(np.sum(w.conj() * h, axis=0))
        var = (es / n_t) * (mu - mu**2)
        log_lik = -np.abs(s_hat[:, None] - mu[:, None] * c.points) ** 2
        log_lik /= np.maximum(var, VAR_FLOOR)[:, None]
        lik = np.exp(log_lik - log_lik.max(axis=1, keepdims=True))
        rows = lik / lik.sum(axis=1, keepdims=True)
        assert np.max(np.abs(est.s_hat - s_hat)) <= 1e-12 * np.max(np.abs(s_hat))
        assert np.max(np.abs(est.mu - mu)) <= 1e-12 * np.max(np.abs(mu))
        assert np.max(np.abs(block - rows)) <= 1e-12
        assert est.var_clamped == bool(np.any(var <= VAR_FLOOR))

    def test_singular_gram_raises(self):
        # Without noise a zero column of H makes G = H^H H singular.
        h, y, _, c = _full_use(46, 4, 6, 2)
        h[:, 2] = 0
        with pytest.raises(
            np.linalg.LinAlgError,
            match="^regularized Gram matrix is not positive definite$",
        ):
            mmse_soft(h, y, 1.0, 4, 0.0, c)


class TestMfDetect:
    def test_orthogonal_noiseless_exact_recovery(self):
        c = gray_constellation(4, symbol_energy=0.5)
        h = np.array([[3.0, 0.0], [0.0, 2.0]], dtype=np.complex128)
        s = c.points[[1, 2]]
        y = h @ s
        got = mf_detect(h, y)
        assert np.allclose(got, s, atol=1e-12)

    def test_simplified_is_exact_times_positive_scale(self):
        # The simplified rows are those of the exact estimates scaled by
        # |H_k|^2 / N_r, under the constant variance sigma_n^2 / N_r.
        rng = np.random.default_rng(4)
        h = sample_iid(16, 16, rng)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = gray_constellation(4, symbol_energy=1 / 16)
        exact = mf_detect(h, y)
        norms = np.real(np.sum(h.conj() * h, axis=0))
        simple = soft_detect("mf-simplified", h, y, 1.0, c, 16)
        want = mf_soft(exact * norms / 16, 1.0 / 16, c)
        assert np.allclose(simple, want, rtol=1e-12, atol=0)

    def test_single_stream_matches_mmse_direction(self):
        rng = np.random.default_rng(5)
        h = sample_iid(1, 8, rng)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        mf = mf_detect(h, y)
        w = _receive_side_weights(h, 0.1)
        mmse = w.conj().T @ y
        ratio = mf[0] / mmse[0]
        assert abs(ratio.imag) < 1e-10
        assert ratio.real > 0


class TestMfSinr:
    def test_orthogonal_equal_norm_columns_force_simplification(self):
        # |H_i|^2 = N_r for all i and zero cross terms: the exact Delta
        # equals the simplified constant 2 sigma_n^2 / N_r, and the exact
        # rows equal the simplified ones.
        n = 4
        h = np.sqrt(n / 2) * (np.eye(n) + 1j * np.eye(n))
        sigma2 = 0.3
        _, exact, _ = mf_sinr(h, sigma2)
        assert np.allclose(exact, 2 * sigma2 / n, atol=1e-12)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = gray_constellation(4, symbol_energy=1 / n)
        assert np.allclose(
            soft_detect("mf-exact", h, y, sigma2, c, n),
            soft_detect("mf-simplified", h, y, sigma2, c, n),
            rtol=1e-12,
            atol=0,
        )

    def test_exact_matches_bruteforce_sum(self):
        rng = np.random.default_rng(6)
        n = 8
        h = sample_iid(n, n, rng)
        es, sigma2 = 1.0, 0.2
        _, got, sk = mf_sinr(h, sigma2)
        assert got.shape == sk.shape == (n,)
        for k in [0, 3, 7]:
            wk = h[:, k].conj() / np.real(h[:, k].conj() @ h[:, k])
            inter = sum(
                np.abs(wk @ h[:, i]) ** 2 for i in range(n) if i != k
            )
            want = (es / n) * inter + 2 * sigma2 * np.real(wk @ wk.conj())
            assert abs(got[k] - want) < 1e-12
            assert sk[k] == pytest.approx(got[k] / 2)

    def test_vectorized_matches_scalar(self):
        # Stream by stream from one column's cross products with H.
        rng = np.random.default_rng(7)
        h = sample_iid(6, 6, rng)
        es, n_t, sigma2 = 1.0, 6, 0.1
        delta, all_delta, sk = mf_sinr(h, sigma2)
        for k in range(6):
            col = h[:, k]
            gk = float(np.real(col.conj() @ col))
            interference = float((np.abs(col.conj() @ h) ** 2).sum() - gk**2)
            dk = (es / n_t) * interference / gk**2 + 2.0 * sigma2 / gk
            assert all_delta[k] == pytest.approx(dk, rel=1e-12)
            assert delta[k] == pytest.approx((es / n_t) / dk, rel=1e-12)
            assert sk[k] == all_delta[k] / 2

    def test_simplified_is_constant_over_streams(self):
        # Columns of unequal norms with the same projection H_k^H y = 1:
        # every stream gets the same row, the BPSK likelihood of
        # s_hat = 1 / N_r under sigma_k^2 = sigma_n^2 / N_r, whose log
        # ratio is 2 s_hat p / sigma_k^2.
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        h[0] = 1.0
        y = np.array([1.0, 0, 0, 0, 0], dtype=np.complex128)
        c = gray_constellation(2, symbol_energy=1 / 7)
        rows = soft_detect("mf-simplified", h, y, 0.2, c, 5)
        assert rows.shape == (7, 2)
        assert np.all(rows == rows[0])
        p = c.points[0].real
        assert np.log(rows[0, 0] / rows[0, 1]) == pytest.approx(
            2 * (1 / 5) * p / (0.2 / 5), rel=1e-9
        )

    @pytest.mark.parametrize(
        "draw,factor",
        [
            pytest.param(lambda: _bartlett_use(47, 16, 16, 2), True, id="bartlett-bpsk"),
            pytest.param(lambda: _bartlett_use(48, 12, 20, 16), True, id="bartlett-16qam"),
            pytest.param(lambda: _one_entry_above_diagonal(49), False, id="one-entry-above"),
            pytest.param(lambda: _complex_diagonal(50), False, id="complex-diagonal"),
        ],
    )
    def test_exact_on_a_factor_matches_full_gram(self, monkeypatch, draw, factor):
        # TestMmseSoft's factor draws: a Bartlett factor takes lauum, a
        # square h with one entry above the diagonal or a complex diagonal
        # the full product, and either gives the full-Gram Delta_k.
        import nbmimo.detect as detect

        calls = []
        lauum = detect.zlauum
        monkeypatch.setattr(
            detect, "zlauum", lambda *a, **k: calls.append(a) or lauum(*a, **k)
        )
        h, _, sigma2, _ = draw()
        n_t = h.shape[-1]
        _, got, _ = mf_sinr(h, sigma2)
        g = h.conj().T @ h
        gk = np.real(np.diag(g))
        want = (1.0 / n_t) * ((np.abs(g) ** 2).sum(axis=1) - gk**2) / gk**2 + 2 * sigma2 / gk
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert bool(calls) == factor

    @pytest.mark.parametrize(
        "n_t,n_r,modulation,stream,gamma_db",
        [(4, 4, 4, 2, -2.0), (3, 8, 16, 1, 10.0)],
        ids=["qpsk-4x4", "16qam-3x8"],
    )
    def test_interference_sampler_matches_pipeline_in_law(
        self, n_t, n_r, modulation, stream, gamma_db
    ):
        # The sampler draws the term without H, so it can equal the full
        # detection path only in law: a two-sample KS test on Re, Im and
        # |.| against the pipeline written out here, and E|x|^2 against
        # its closed form ((N_t - 1) E_s / N_t + 2 sigma_n^2) / (N_r - 1).
        # The 16-QAM case has few interferers and little noise, so the
        # spread of sum |s_i|^2 over the symbols shows in the law.  The
        # pipeline reads stream `stream`; the sampler's law is every stream's.
        n = 20_000
        got = mf_interference_samples(
            n_t, n_r, gamma_db, n, np.random.default_rng(81), modulation=modulation
        )
        rng = np.random.default_rng(82)
        c = gray_constellation(modulation, symbol_energy=1 / n_t)
        sigma2 = snr_to_noise(gamma_db)
        want = np.empty(n, dtype=np.complex128)
        for i in range(n):
            h = sample_iid(n_t, n_r, rng)
            s = c.points[rng.integers(0, modulation, size=n_t)]
            y = transmit(h, s, sigma2, rng)
            want[i] = mf_detect(h, y)[stream] - s[stream]
        for part in (np.real, np.imag, np.abs):
            p = stats.ks_2samp(part(got), part(want)).pvalue
            assert p > 0.001, f"{part.__name__}: KS p = {p:.3g}"
        power = ((n_t - 1) / n_t + 2 * sigma2) / (n_r - 1)
        mag2 = np.abs(got) ** 2
        se = mag2.std(ddof=1) / np.sqrt(n)
        assert abs(mag2.mean() - power) < 4 * se

    def test_ks_rejects_interference_term_at_2x2(self):
        # Criterion 9's check (seed, 1e5 draws, -2 dB, alpha = 0.001) has
        # the power to fail: with a single interferer the term is far from
        # Gaussian.
        samples = mf_interference_samples(2, 2, -2.0, 100_000, substream(9901, 0))
        res = ks_gaussian_test(samples.real, significance=0.001)
        assert not res.passed, f"KS p = {res.p_value:.3g} at 2x2"


# (n_t, n_r, rho_t, rho_r, sigma2_e) of the simplified-MF sampler checks.
SAMPLER_SYSTEMS = [
    (8, 6, 0.5, 0.3, 0.2),
    (6, 10, 0.7, 0.0, 0.0),
    (12, 12, 0.3, 0.3, 0.1),
]


def exponential_matrix(rho, n):
    """R(rho)[i, j] = rho^|i - j|, written out entry by entry."""
    return np.array([[rho ** abs(i - j) for j in range(n)] for i in range(n)])


def qpsk_vector(n_t):
    """A fixed QPSK transmit vector with every label, E_s = 1."""
    return gray_constellation(4, symbol_energy=1 / n_t).points[np.arange(n_t) % 4]


def pipeline_mf_simplified(s, n_r, sigma2_n, sigma2_e, corr, uses, rng):
    """Simplified-MF estimates of s through a drawn H per use, in the coded
    sweep's order: sample_iid, apply_correlation, perturb_estimate,
    transmit, H_est^H y / N_r."""
    out = np.empty((uses, len(s)), dtype=complex)
    for i in range(uses):
        h = apply_correlation(sample_iid(len(s), n_r, rng), corr)
        h_est = perturb_estimate(h, sigma2_e, rng)
        out[i] = (h_est.conj().T @ transmit(h, s, sigma2_n, rng)) / n_r
    return out


class TestMfSimplifiedSamples:
    @pytest.mark.parametrize("n_t,n_r,rho_t,rho_r,sigma2_e", SAMPLER_SYSTEMS)
    def test_matches_full_channel_pipeline_in_law(self, n_t, n_r, rho_t, rho_r, sigma2_e):
        # Two-sample KS tests, alpha = 0.001 each, one value per use so the
        # samples are independent.  The stream difference, the cross-stream
        # product and |s_hat_1| probe the joint law over the streams.
        uses = 40_000
        corr = CorrelationSpec(rho_t, rho_r, n_t, n_r)
        s = qpsk_vector(n_t)
        sigma2 = snr_to_noise(0.0)
        got = mf_simplified_samples(
            np.tile(s, (uses, 1)), n_r, sigma2, np.random.default_rng(91),
            sigma2_e, corr,
        )
        want = pipeline_mf_simplified(
            s, n_r, sigma2, sigma2_e, corr, uses, np.random.default_rng(92)
        )
        for name, stat in (
            ("Re s_0", lambda e: e[:, 0].real),
            ("Im s_0", lambda e: e[:, 0].imag),
            ("Re(s_0 - s_1)", lambda e: (e[:, 0] - e[:, 1]).real),
            ("Re(s_0 conj s_1)", lambda e: (e[:, 0] * e[:, 1].conj()).real),
            ("|s_1|", lambda e: np.abs(e[:, 1])),
        ):
            p = stats.ks_2samp(stat(got), stat(want)).pvalue
            assert p > 1e-3, f"{name}: KS p = {p:.3g}"

    @pytest.mark.parametrize("n_t,n_r,rho_t,rho_r,sigma2_e", SAMPLER_SYSTEMS)
    def test_moments_match_closed_form(self, n_t, n_r, rho_t, rho_r, sigma2_e):
        # With u = B^T s, N_r s_hat has mean N_r R_t s and covariance
        # c1 R_t + c2 I, where c1 = tr(R_r^2) ||u||^2 + 2 sigma_n^2 N_r comes
        # from B W^H A^T y and c2 = sigma_e^2 N_r (||u||^2 + 2 sigma_n^2) from
        # E^H y (fourth moments of Gaussian W).  Each real and imaginary mean
        # and each E|w^H (s_hat - R_t s)|^2 lies within 4 standard errors.
        # The directions are stream 0, R_t s (where P acts) and R_t's
        # weakest eigenvector (where the scale of E^H y shows most).
        uses = 200_000
        corr = CorrelationSpec(rho_t, rho_r, n_t, n_r)
        s = qpsk_vector(n_t)
        sigma2 = snr_to_noise(0.0)
        got = mf_simplified_samples(
            np.tile(s, (uses, 1)), n_r, sigma2, np.random.default_rng(93),
            sigma2_e, corr,
        )
        r_t, r_r = exponential_matrix(rho_t, n_t), exponential_matrix(rho_r, n_r)
        mean = r_t @ s
        dev = got - mean
        for part in (dev.real, dev.imag):
            se = part.std(axis=0, ddof=1) / np.sqrt(uses)
            assert np.all(np.abs(part.mean(axis=0)) < 4 * se), part.mean(axis=0) / se
        u2 = np.real(s.conj() @ r_t @ s)
        c1 = np.trace(r_r @ r_r) * u2 + 2 * sigma2 * n_r
        c2 = sigma2_e * n_r * (u2 + 2 * sigma2)
        cov = (c1 * r_t + c2 * np.eye(n_t)) / n_r**2
        directions = {
            "stream 0": np.eye(n_t)[0],
            "R_t s": mean / np.linalg.norm(mean),
            "weakest": np.linalg.eigh(r_t)[1][:, 0],
        }
        for name, w in directions.items():
            power = np.abs(dev @ w.conj()) ** 2
            se = power.std(ddof=1) / np.sqrt(uses)
            want = np.real(w.conj() @ cov @ w)
            assert abs(power.mean() - want) < 4 * se, (name, power.mean(), want, se)

    def test_rows_are_mf_soft_of_the_estimates(self):
        # The likelihood rows use the simplified MF's constant
        # sigma_n^2 / N_r, on the same draws.
        corr = CorrelationSpec(0.3, 0.3, 8, 6)
        s = np.tile(qpsk_vector(8), (5, 1))
        const = gray_constellation(4, symbol_energy=1 / 8)
        sigma2 = snr_to_noise(-2.0)
        rows = mf_simplified_samples(
            s, 6, sigma2, np.random.default_rng(94), 0.1, corr, constellation=const
        )
        est = mf_simplified_samples(s, 6, sigma2, np.random.default_rng(94), 0.1, corr)
        assert rows.shape == (5, 8, 4)
        assert np.array_equal(rows, mf_soft(est, sigma2 / 6, const))


# (kind, n_t, n_r, modulation, sigma2_e) of the Bartlett-route law checks;
# the MMSE ids name the system alone.
BARTLETT_CASES = [
    pytest.param(
        kind, n_t, n_r, modulation, sigma2_e,
        id=(f"{kind}-" if kind != "mmse" else "") + f"{n_t}-{n_r}-{modulation}-{sigma2_e}",
    )
    for kind in DETECTORS
    for n_t, n_r in ((8, 8), (8, 12))
    for modulation in (2, 16)
    for sigma2_e in (0.0, 0.1)
]


def pipeline_uses(s, n_r, sigma2_n, sigma2_e, uses, rng):
    """(estimates, received vectors) of s through a drawn H per use, in the
    sweeps' full-H order: sample_iid, perturb_estimate, transmit."""
    h_est = np.empty((uses, n_r, len(s)), dtype=complex)
    y = np.empty((uses, n_r), dtype=complex)
    for i in range(uses):
        h = sample_iid(len(s), n_r, rng)
        h_est[i] = perturb_estimate(h, sigma2_e, rng)
        y[i] = transmit(h, s, sigma2_n, rng)
    return h_est, y


class TestBartlettRoute:
    """The route through the Bartlett factor (`channel.draw_use`), which
    every linear detector takes on i.i.d. fading."""

    @pytest.mark.parametrize("kind,n_t,n_r,modulation,sigma2_e", BARTLETT_CASES)
    def test_matches_full_channel_pipeline_in_law(
        self, kind, n_t, n_r, modulation, sigma2_e
    ):
        # Two-sample KS tests, alpha = 0.001 each, one value per use.  The
        # projection of s_hat_0 on s_0 and |s_hat_0| probe one stream; for
        # MMSE, mu_0 and the cross-stream terms the joint law over streams;
        # for exact MF, sigma2_0 from the Gram (lauum on the factor).  The
        # simplified MF scales by the system's 1/N_r, not the factor's rows.
        uses = 6000
        c = gray_constellation(modulation, symbol_energy=1 / n_t)
        s = c.points[np.arange(n_t) % modulation]
        sigma2 = snr_to_noise(0.0)
        rng = np.random.default_rng(95)
        draws = [draw_use(s, n_r, None, sigma2_e, sigma2, rng) for _ in range(uses)]
        h, y = (np.array(part) for part in zip(*draws))
        got = self._detect(kind, h, y, n_t, n_r, sigma2, c)
        rng = np.random.default_rng(96)
        h, y = pipeline_uses(s, n_r, sigma2, sigma2_e, uses, rng)
        want = self._detect(kind, h, y, n_t, n_r, sigma2, c)
        checks = {
            "Re(s_hat_0 conj s_0)": lambda e: (e["s_hat"][:, 0] * np.conj(s[0])).real,
            "|s_hat_0|": lambda e: np.abs(e["s_hat"][:, 0]),
        }
        if kind == "mmse":
            checks["mu_0"] = lambda e: e["mu"][:, 0]
            checks["Re(s_hat_0 conj s_hat_1)"] = lambda e: (
                e["s_hat"][:, 0] * e["s_hat"][:, 1].conj()
            ).real
            checks["|s_hat_1|"] = lambda e: np.abs(e["s_hat"][:, 1])
        if kind == "mf-exact":
            checks["sigma2_0"] = lambda e: e["sigma2"][:, 0]
        for name, stat in checks.items():
            p = stats.ks_2samp(stat(got), stat(want)).pvalue
            assert p > 1e-3, f"{kind} {name}: KS p = {p:.3g}"

    @staticmethod
    def _detect(kind, h, y, n_t, n_r, sigma2, c):
        """Per-use detector outputs, each use on its own as the sweeps call it."""
        if kind == "mmse":
            ests = [mmse_soft(hu, yu, 1.0, n_t, 2 * sigma2, c)[0] for hu, yu in zip(h, y)]
            return {
                "s_hat": np.array([e.s_hat for e in ests]),
                "mu": np.array([e.mu for e in ests]),
            }
        if kind == "mf-simplified":
            return {"s_hat": np.array([(hu.conj().T @ yu) / n_r for hu, yu in zip(h, y)])}
        s_hat = np.array([mf_detect(hu, yu) for hu, yu in zip(h, y)])
        sigma2_k = np.array([mf_sinr(hu, sigma2)[2] for hu in h])
        return {"s_hat": s_hat, "sigma2": sigma2_k}

    @pytest.mark.parametrize("sigma2_e", [0.0, 0.1])
    def test_gram_mean(self, sigma2_e):
        # E[L^H L] = E[H_est^H H_est] = (1 + sigma_e^2) N_r I: every real
        # and imaginary part within 4 standard errors.
        n_t, n_r, uses = 4, 6, 20_000
        s = gray_constellation(2, symbol_energy=1 / n_t).points[np.zeros(n_t, int)]
        rng = np.random.default_rng(97)
        grams = np.empty((uses, n_t, n_t), dtype=complex)
        for i in range(uses):
            h, _ = draw_use(s, n_r, None, sigma2_e, snr_to_noise(0.0), rng)
            grams[i] = h.conj().T @ h
        dev = grams - (1 + sigma2_e) * n_r * np.eye(n_t)
        for part in (dev.real, dev.imag):
            se = part.std(axis=0, ddof=1) / np.sqrt(uses)
            se[se == 0] = np.inf  # the imaginary diagonal is exactly zero
            assert np.all(np.abs(part.mean(axis=0)) < 4 * se), part.mean(axis=0) / se


class TestMfSoft:
    def test_tiny_variance_gives_delta_row(self):
        c = gray_constellation(2)
        block = mf_soft(np.array([c.points[1]]), 1e-18, c)
        assert block[0, 1] > 1 - 1e-9

    def test_bpsk_midpoint_is_uniform(self):
        c = gray_constellation(2)
        block = mf_soft(np.array([0.0 + 0j]), 0.25, c)
        assert np.allclose(block[0], [0.5, 0.5], atol=1e-12)

    def test_hand_computed_ratio(self):
        # BPSK +-1, s_hat = 0.3, sigma_k^2 = 0.25:
        # ratio = exp((1.69 - 0.49) / 0.5) = exp(2.4) favoring +1.
        c = gray_constellation(2)
        block = mf_soft(np.array([0.3 + 0j]), 0.25, c)
        assert block[0, 0] / block[0, 1] == pytest.approx(np.exp(2.4), rel=1e-9)


def _full_use(seed, n_t, n_r, modulation):
    """One noisy use of an i.i.d. (n_r, n_t) system: (H, H s + n, sigma2, c)."""
    rng = np.random.default_rng(seed)
    c = gray_constellation(modulation, symbol_energy=1 / n_t)
    sigma2 = snr_to_noise(0.0)
    h = rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
    h /= np.sqrt(2)
    s = c.points[rng.integers(0, modulation, size=n_t)]
    y = h @ s + np.sqrt(sigma2) * (rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r))
    return h, y, sigma2, c


class TestBatchAxis:
    """Detectors take one use: a 2-D h is that use.  Only `mf_soft` keeps
    leading axes, for the stacked (uses, N_t) estimates that
    `mf_simplified_samples` passes it."""

    def test_mf_detect_2d_matches_transpose_product(self):
        h, y, _, _ = _full_use(21, 8, 12, 2)
        want = [h[:, k].conj() @ y / np.real(h[:, k].conj() @ h[:, k]) for k in range(8)]
        assert np.allclose(mf_detect(h, y), want, rtol=1e-12, atol=0)

    def test_mf_soft(self):
        uses = [_full_use(22 + i, 8, 8, 4) for i in range(5)]
        c = uses[0][3]
        s_hat = np.array([mf_detect(h, y) for h, y, _, _ in uses])
        sk = np.array([mf_sinr(h, s2)[2] for h, _, s2, _ in uses])
        rows = mf_soft(s_hat, sk, c)
        assert rows.shape == (5, 8, 4)
        for i in range(5):
            assert np.array_equal(rows[i], mf_soft(s_hat[i], sk[i], c))


class TestSoftDetect:
    @pytest.mark.parametrize("kind", DETECTORS)
    def test_equals_direct_composition(self, kind):
        # On a full H and on a Bartlett factor, whose 8 rows are not the
        # system's N_r = 10.
        for h, y, sigma2, c in (_full_use(24, 8, 10, 4), _bartlett_use(26, 8, 10, 4)):
            if kind == "mmse":
                _, want = mmse_soft(h, y, 1.0, 8, 2 * sigma2, c)
            elif kind == "mf-exact":
                want = mf_soft(mf_detect(h, y), mf_sinr(h, sigma2)[2], c)
            else:
                want = mf_soft((h.conj().T @ y) / 10, sigma2 / 10, c)
            assert np.array_equal(soft_detect(kind, h, y, sigma2, c, 10), want)

    @pytest.mark.parametrize("kind", ["mf_exact", "exact"])
    def test_unknown_kind_rejected(self, kind):
        h, y, sigma2, c = _full_use(25, 4, 4, 2)
        with pytest.raises(ValueError, match=f"unknown detector '{kind}'"):
            soft_detect(kind, h, y, sigma2, c, 4)


def gathered_symbol_priors(likelihoods, field):
    """Reference aggregation: gather each symbol's q factors by its labels,
    multiply them with np.multiply.reduce, normalize over symbol values."""
    n_streams, m_points = likelihoods.shape
    p = int(np.log2(m_points))
    q = field.m // p
    x = np.arange(field.size)
    label_map = (x[None, :] >> (np.arange(q) * p)[:, None]) & (m_points - 1)
    grouped = likelihoods.reshape(n_streams // q, q, m_points)
    factors = grouped[:, np.arange(q)[:, None], label_map]  # (n_symbols, q, 2^m)
    priors = np.multiply.reduce(factors, axis=1)
    return priors / priors.sum(axis=1, keepdims=True)


class TestSymbolPriors:
    @pytest.mark.parametrize(
        "m,p", [(8, 1), (8, 2), (8, 4), (8, 8), (4, 1), (4, 2), (4, 4)]
    )
    def test_outer_products_equal_gathered_reference(self, m, p):
        # Same bits and same strides as the reference: its product is
        # stored symbol-major and its normalizing sum runs over symbol
        # values in order, which a C-ordered, pairwise-summed result would
        # miss in the last bit of most entries.
        f = build_field(m)
        rng = np.random.default_rng(40 + m + p)
        rows = rng.dirichlet(np.full(2**p, 0.7), size=37 * (m // p))
        got = symbol_priors(rows, f)
        want = gathered_symbol_priors(rows, f)
        assert np.array_equal(got, want)
        assert got.strides == want.strides

    def test_qpsk_worked_example(self):
        # L(x) = [00 01 11 10] with QPSK: the prior of that symbol is the
        # product of the four per-stream likelihoods at labels (0, 2, 3, 1).
        f = build_field(8)
        rng = np.random.default_rng(9)
        rows = rng.dirichlet(np.ones(4), size=4)
        priors = symbol_priors(rows, f)
        x = f.from_bits([0, 0, 0, 1, 1, 1, 1, 0])
        want = rows[0, 0] * rows[1, 2] * rows[2, 3] * rows[3, 1]
        norm = priors[0, x] / want
        # Same normalization for every entry of the row.
        x2 = f.from_bits([1, 0, 1, 1, 0, 0, 0, 1])
        want2 = rows[0, 1] * rows[1, 3] * rows[2, 0] * rows[3, 2]
        assert priors[0, x2] / want2 == pytest.approx(norm, rel=1e-12)

    def test_exhaustive_enumeration_gf4_bpsk(self):
        f = build_field(2)
        rng = np.random.default_rng(10)
        rows = rng.dirichlet(np.ones(2), size=2)
        priors = symbol_priors(rows, f)
        want = np.zeros(4)
        for bits in itertools.product([0, 1], repeat=2):
            x = f.from_bits(list(bits))
            want[x] = rows[0, bits[0]] * rows[1, bits[1]]
        want /= want.sum()
        assert np.allclose(priors[0], want, atol=1e-14)

    def test_q_equal_one_reindexes_by_labels(self):
        f = build_field(4)
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.ones(16), size=3)
        priors = symbol_priors(rows, f)
        assert np.allclose(priors, rows, atol=1e-14)

    def test_rows_normalized(self):
        f = build_field(8)
        rng = np.random.default_rng(12)
        rows = rng.dirichlet(np.ones(2), size=64)
        priors = symbol_priors(rows, f)
        assert priors.shape == (8, 256)
        assert np.allclose(priors.sum(axis=1), 1.0, atol=1e-9)

    def test_scale_invariance(self):
        f = build_field(4)
        rng = np.random.default_rng(13)
        rows = rng.dirichlet(np.ones(4), size=4)
        base = symbol_priors(rows, f)
        scaled = rows.copy()
        scaled[1] *= 37.5
        again = symbol_priors(scaled, f)
        assert np.allclose(base, again, atol=1e-12)
        assert np.array_equal(base.argmax(axis=1), again.argmax(axis=1))

    def test_group_mismatch_rejected(self):
        f = build_field(8)
        with pytest.raises(ValueError):
            symbol_priors(np.ones((7, 2)) / 2, f)


class TestLowSnrAgreement:
    def test_mmse_and_mf_error_rates_agree_at_low_snr(self):
        # Individual hard decisions may differ on near-zero estimates, but
        # the two detectors deliver the same error rate well below 0 dB.
        rng = np.random.default_rng(15)
        n = 64
        c = gray_constellation(2, symbol_energy=1 / n)
        gamma_db = -8.0
        sigma2 = snr_to_noise(gamma_db)
        counts_mmse = []
        counts_mf = []
        for _ in range(150):
            h = sample_iid(n, n, rng)
            truth = rng.integers(0, 2, n)
            s = c.points[truth]
            y = transmit(h, s, sigma2, rng)
            _, mmse_block = mmse_soft(h, y, 1.0, n, 2 * sigma2, c)
            mf_block = mf_soft((h.conj().T @ y) / n, sigma2 / n, c)
            counts_mmse.append(np.sum(mmse_block.argmax(1) != truth))
            counts_mf.append(np.sum(mf_block.argmax(1) != truth))
        frames = len(counts_mmse)
        ber1 = np.sum(counts_mmse) / (n * frames)
        ber2 = np.sum(counts_mf) / (n * frames)
        se1 = np.std(counts_mmse, ddof=1) / (n * np.sqrt(frames))
        se2 = np.std(counts_mf, ddof=1) / (n * np.sqrt(frames))
        assert abs(ber1 - ber2) < 3 * np.hypot(se1, se2)
