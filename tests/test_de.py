import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import entr

from nbmimo import de
from nbmimo.channel import gray_constellation, sample_iid, snr_to_noise, transmit
from nbmimo.de import (
    DeConfig,
    ThresholdSearchError,
    UnsupportedConfiguration,
    de_initial_ensemble,
    de_iterate,
    ensemble_entropy,
    find_threshold,
    run_point,
)
from nbmimo.decoder import MSG_FLOOR, fwht
from nbmimo.detect import (
    detect_each_use,
    mf_simplified_samples,
    mf_soft,
    soft_detect,
    symbol_priors,
)
from nbmimo.galois import build_field


@pytest.fixture(autouse=True)
def small_chunk(monkeypatch):
    """Renew 512 samples at a time, so small ensembles span several chunks."""
    monkeypatch.setattr(de, "CHUNK", 512)


def small_config(**over):
    base = dict(
        n_t=16,
        n_r=16,
        d_c=3,
        m=8,
        ensemble_size=1500,
        max_iterations=60,
        gamma0_db=0.0,
        step_db=0.5,
        h_stop=1e-6,
    )
    base.update(over)
    return DeConfig(**base)


def mf_soft_symbol_priors(cfg, n, rng):
    """Raw simplified-MF priors as `symbol_priors` of the `mf_soft` rows,
    drawn in the batches and RNG order of `de._channel_prior_samples`."""
    per_use = cfg.n_t // cfg.m
    const = gray_constellation(2, symbol_energy=1 / cfg.n_t)
    sigma2 = snr_to_noise(cfg.gamma0_db)
    max_batch = max(1, (1 << 21) // (cfg.n_t * cfg.field.size))
    uses = -(-n // per_use)
    blocks = []
    while uses > 0:
        b = min(max_batch, uses)
        uses -= b
        s = np.full((b, cfg.n_t), const.points[0])
        rows = mf_simplified_samples(s, cfg.n_r, sigma2, rng, constellation=const)
        blocks.append(symbol_priors(rows.reshape(-1, const.size), cfg.field))
    return np.concatenate(blocks)[:n]


def per_use_priors(cfg, uses, rng):
    """Raw channel priors of the zero codeword, one float64 H per use."""
    const = gray_constellation(2, symbol_energy=1 / cfg.n_t)
    sigma2 = snr_to_noise(cfg.gamma0_db)
    s = np.full(cfg.n_t, const.points[0])
    blocks = []
    for _ in range(uses):
        h = sample_iid(cfg.n_t, cfg.n_r, rng)
        y = transmit(h, s, sigma2, rng)
        blocks.append(soft_detect(cfg.detector, h, y, sigma2, const, cfg.n_r))
    return symbol_priors(np.concatenate(blocks), cfg.field)


def take_along_axis_renewal(ens, fresh, cfg, rng):
    """Renewed rows for the given fresh priors, with np.take_along_axis
    rotations: draws check inputs, input and output edge coefficients."""
    f = cfg.field
    L, qsize = ens.shape
    b = len(fresh)
    idx = rng.integers(0, L, size=(b, cfg.d_c - 1))
    coefs_in = rng.integers(1, qsize, size=idx.shape)
    coef_out = rng.integers(1, qsize, size=b)
    rotated = np.take_along_axis(ens[idx], f.mul_table[f.inv_table[coefs_in]], axis=2)
    conv = fwht(fwht(rotated).prod(axis=1)) / qsize
    c2v = np.take_along_axis(conv, f.mul_table[coef_out], axis=1)
    c2v = np.maximum(c2v, MSG_FLOOR)
    combined = np.maximum(fresh * c2v, MSG_FLOOR)
    return combined / combined.sum(axis=1, keepdims=True)


def spectral_renewal(spectra, fresh, cfg, rng):
    """Renewed rows for the given fresh priors from the ensemble's spectra,
    with np.take_along_axis permutations: draws check inputs, input and
    output edge coefficients."""
    f = cfg.field
    L, qsize = spectra.shape
    b = len(fresh)
    idx = rng.integers(0, L, size=(b, cfg.d_c - 1))
    coefs_in = rng.integers(1, qsize, size=idx.shape)
    coef_out = rng.integers(1, qsize, size=b)
    k = f.mul_table[coefs_in, f.inv_table[coef_out][:, None]]
    perm = de._spectrum_permutations(f)
    gathered = np.take_along_axis(spectra[idx], perm[k], axis=2)
    c2v = np.maximum(fwht(gathered.prod(axis=1)) / qsize, MSG_FLOOR)
    combined = np.maximum(fresh * c2v, MSG_FLOOR)
    return combined / combined.sum(axis=1, keepdims=True)


def renew_by_chunks(renewal, ens, cfg, rng):
    """`renewal` applied chunk by chunk in de_iterate's per-chunk RNG order:
    fresh priors, then the renewal's own draws."""
    L = len(ens)
    out = np.empty((L, ens.shape[1]))
    for lo in range(0, L, de.CHUNK):
        hi = min(lo + de.CHUNK, L)
        fresh = de._fresh_samples(cfg, hi - lo, rng)
        out[lo:hi] = renewal(ens, fresh, cfg, rng)
    return out


def renewal_peak_chunks(cfg):
    """Peak traced allocation of one de_iterate call on a drawn ensemble,
    less the result, in chunk-sized float64 arrays."""
    ens = de_initial_ensemble(cfg, np.random.default_rng(33))
    rng = np.random.default_rng(34)
    de_iterate(ens[:2048].copy(), cfg, rng)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        de_iterate(ens, cfg, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - ens.nbytes) / (de.CHUNK * cfg.field.size * 8)


def full_channel_mf_estimates(n_t, n_r, sigma2, uses, rng):
    """Simplified-MF estimates of the zero codeword through a drawn H."""
    point0 = gray_constellation(2, symbol_energy=1 / n_t).points[0]
    s = np.full(n_t, point0)
    out = np.empty((uses, n_t), dtype=complex)
    for i in range(uses):
        h = sample_iid(n_t, n_r, rng)
        out[i] = (h.conj().T @ transmit(h, s, sigma2, rng)) / n_r
    return out


class TestEntropy:
    def test_uniform_is_one(self):
        f = build_field(8)
        ens = np.full((10, 256), 1 / 256)
        assert ensemble_entropy(ens, f) == pytest.approx(1.0, abs=1e-12)

    def test_delta_is_zero(self):
        f = build_field(8)
        ens = np.zeros((10, 256))
        ens[:, 3] = 1.0
        assert ensemble_entropy(ens, f) == 0.0

    def test_half_half_over_gf256_is_exactly_one_eighth(self):
        f = build_field(8)
        v = np.zeros((1, 256))
        v[0, 0] = v[0, 1] = 0.5
        assert ensemble_entropy(v, f) == 0.125

    def test_gf4_uniform(self):
        f = build_field(2)
        assert ensemble_entropy(np.full((4, 4), 0.25), f) == pytest.approx(1.0)

    @pytest.mark.parametrize("rows", [64 * de._BLOCK_ROWS + 5, 100])
    def test_chunked_sum_equals_whole_array_sum(self, rows):
        # Row entropies summed chunk by chunk give the bits of the same
        # formula, sum_x p log max(p, tiny) per row, over the whole
        # ensemble, and scipy's entr to rounding.  The Dirichlet rows hold
        # exact zeros, which add nothing.
        f = build_field(8)
        p = np.random.default_rng(35).dirichlet(np.full(256, 0.05), size=rows)
        assert (p == 0).any()
        plogp = p * np.log(np.maximum(p, np.finfo(np.float64).tiny))
        want = float((0.0 - plogp.sum(axis=1).mean()) / (np.log(2) * f.m))
        got = ensemble_entropy(p, f)
        assert got == want
        reference = float(entr(p).sum(axis=1).mean() / (np.log(2) * f.m))
        assert got == pytest.approx(reference, rel=1e-13, abs=0)


class TestConfig:
    def test_qam_rejected(self):
        with pytest.raises(UnsupportedConfiguration):
            small_config(modulation=4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            small_config(step_db=0.0)

    def test_bad_hstop_rejected(self):
        with pytest.raises(ValueError):
            small_config(h_stop=1.5)


class TestInitialEnsemble:
    def test_near_noiseless_gives_deltas_at_zero(self):
        # MMSE inverts the (full-rank) channel as noise vanishes, so every
        # prior collapses onto the transmitted zero symbol.
        cfg = small_config(gamma0_db=50.0, ensemble_size=200, detector="mmse")
        ens = de_initial_ensemble(cfg, np.random.default_rng(0))
        assert ens.shape == (200, 256)
        assert np.allclose(ens.sum(axis=1), 1.0, atol=1e-9)
        assert not ens.argmax(axis=1).any()
        assert ensemble_entropy(ens, cfg.field) < 0.01

    def test_low_snr_near_uniform(self):
        cfg = small_config(gamma0_db=-35.0, ensemble_size=200)
        ens = de_initial_ensemble(cfg, np.random.default_rng(1))
        assert ensemble_entropy(ens, cfg.field) > 0.98

    def test_matches_manual_detector_pipeline(self):
        # The ensemble statistic p_v(0) must agree with independently
        # composed channel + detection + aggregation at the same SNR.
        cfg = small_config(gamma0_db=-2.0, ensemble_size=600)
        ens = de_initial_ensemble(cfg, np.random.default_rng(2))

        rng = np.random.default_rng(99)
        const = gray_constellation(2, symbol_energy=1 / cfg.n_t)
        sigma2 = snr_to_noise(-2.0)
        s = np.full(cfg.n_t, const.points[0])
        vals = []
        for _ in range(300):
            h = sample_iid(cfg.n_t, cfg.n_r, rng)
            y = transmit(h, s, sigma2, rng)
            block = mf_soft((h.conj().T @ y) / cfg.n_r, sigma2 / cfg.n_r, const)
            vals.append(symbol_priors(block, cfg.field)[:, 0])
        manual = np.concatenate(vals)
        se = np.hypot(
            ens[:, 0].std() / np.sqrt(len(ens)),
            manual.std() / np.sqrt(len(manual)),
        )
        assert abs(ens[:, 0].mean() - manual.mean()) < 4 * se


class TestMfSimplifiedSampler:
    @pytest.mark.parametrize("n_t,n_r,gamma_db", [(16, 16, -2.0), (8, 24, 3.0), (24, 8, 60.0)])
    def test_uncorrelated_perfect_csi_is_sum_of_columns_formula(self, n_t, n_r, gamma_db):
        # With A = B = I, sigma_e = 0 and every stream sending the BPSK
        # point a, the shared sampler is DE's sum-of-columns formula: with
        # g = sum_j h_j ~ CN(0, N_t I), y = a g + n and z ~ CN(0, ||y||^2 I),
        # s_hat = ((g/N_t)^H y + z - mean(z)) / N_r, drawn in the order
        # (g, n, z).  Equal to rounding.
        uses = 300
        s2 = snr_to_noise(gamma_db)
        a = np.sqrt(1 / n_t)
        got = mf_simplified_samples(
            np.full((uses, n_t), a), n_r, s2, np.random.default_rng(29)
        )
        rng = np.random.default_rng(29)
        half = np.sqrt(0.5)
        g = rng.standard_normal((uses, n_r)) + 1j * rng.standard_normal((uses, n_r))
        g *= np.sqrt(n_t) * half
        y = a * g + np.sqrt(s2) * (
            rng.standard_normal((uses, n_r)) + 1j * rng.standard_normal((uses, n_r))
        )
        z = rng.standard_normal((uses, n_t)) + 1j * rng.standard_normal((uses, n_t))
        z *= half * np.linalg.norm(y, axis=1, keepdims=True)
        common = np.sum(g.conj() * y, axis=1, keepdims=True) / n_t
        want = (common + z - z.mean(axis=1, keepdims=True)) / n_r
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n_t,n_r", [(16, 16), (8, 24), (24, 8)])
    def test_stream_statistic_moments(self, n_t, n_r):
        # x_k = Re(h_k^H y) for the zero codeword a = 1/sqrt(N_t) per
        # antenna: E x_k = a N_r, Cov(x_k, x_l) = N_r / (2 N_t) for k != l,
        # Var x_k = N_r (1 + s2) / N_t + N_r (1 + 2 s2)(1 - 1/N_t) / 2.
        # Only streams 0 and 1 of each use enter, and every use is
        # independent, so each standard error is that of an i.i.d. mean.
        uses = 40_000
        s2 = snr_to_noise(-2.0)
        a = np.sqrt(1 / n_t)
        s_hat = mf_simplified_samples(
            np.full((uses, n_t), a), n_r, s2, np.random.default_rng(21)
        )
        x = np.real(s_hat[:, :2]) * n_r
        x0, x1 = x[:, 0] - a * n_r, x[:, 1] - a * n_r

        def within(samples, want):
            se = samples.std() / np.sqrt(len(samples))
            assert abs(samples.mean() - want) < 4 * se

        within(x[:, 0], a * n_r)
        within(x0 * x1, n_r / (2 * n_t))
        within(x0**2, n_r * (1 + s2) / n_t + n_r * (1 + 2 * s2) * (1 - 1 / n_t) / 2)

    @pytest.mark.parametrize("n_t,n_r", [(16, 16), (8, 2)])
    def test_matches_full_channel_pipeline(self, n_t, n_r):
        # Two-sample KS tests, alpha = 0.001 each, against estimates drawn
        # through a full H (sample_iid, transmit, H^H y / N_r).  One value per
        # channel use keeps the samples independent: the streams of a use
        # are correlated, and pooling them would make the test
        # anti-conservative.  The stream difference probes the joint law;
        # two receive antennas leave the estimates far from Gaussian.
        uses = 5000
        s2 = snr_to_noise(-2.0)
        a = np.sqrt(1 / n_t)
        fast = mf_simplified_samples(
            np.full((uses, n_t), a), n_r, s2, np.random.default_rng(22)
        )
        full = full_channel_mf_estimates(n_t, n_r, s2, uses, np.random.default_rng(23))
        for stat in (
            lambda e: e[:, 0].real,
            lambda e: e[:, 0].imag,
            lambda e: (e[:, 0] - e[:, 1]).real,
        ):
            assert stats.ks_2samp(stat(fast), stat(full)).pvalue > 1e-3

    @pytest.mark.parametrize("detector", ["mmse", "mf-exact"])
    def test_other_detectors_keep_full_channel_draws(self, detector):
        # Only simplified MF samples from the sufficient statistic; the
        # other kinds draw and detect each use as the sweeps do
        # (`detect_each_use`), in this RNG order: the Bartlett factor at
        # 16x16, and H at 16x12, where N_r < N_t.
        for n_r in (16, 12):
            cfg = small_config(
                gamma0_db=-2.0, ensemble_size=300, detector=detector, n_r=n_r
            )
            ens = de_initial_ensemble(cfg, np.random.default_rng(24))
            const = gray_constellation(2, symbol_energy=1 / cfg.n_t)
            uses = -(-cfg.ensemble_size // (cfg.n_t // cfg.m))
            rows = detect_each_use(
                detector, np.full((uses, cfg.n_t), const.points[0]), n_r, None, 0.0,
                snr_to_noise(cfg.gamma0_db), const, np.random.default_rng(24),
            )
            want = symbol_priors(rows, cfg.field)[: cfg.ensemble_size]
            assert np.array_equal(ens, want)

    @pytest.mark.parametrize("detector", ["mmse", "mf-exact"])
    def test_full_channel_batch_matches_per_use_pipeline(self, detector):
        # Two-sample KS tests, alpha = 0.001 each, of the priors against one
        # full H per use (sample_iid, transmit, soft_detect).  Each use
        # gives n_t / m = 2 priors; taking one of them per use keeps the
        # samples independent.
        uses = 3000
        cfg = small_config(gamma0_db=-2.0, detector=detector)
        per_use = cfg.n_t // cfg.m
        fast = de._channel_prior_samples(cfg, uses * per_use, np.random.default_rng(27))
        full = per_use_priors(cfg, uses, np.random.default_rng(28))
        for k in range(per_use):
            got, want = fast[k::per_use, 0], full[k::per_use, 0]
            assert stats.ks_2samp(got, want).pvalue > 1e-3


class TestLlrPriors:
    """Simplified-MF priors from per-stream LLRs against `symbol_priors` of
    the `mf_soft` rows of the same draws."""

    SYSTEMS = [(200, 200, 8), (12, 20, 4)]

    @pytest.mark.parametrize("n_t,n_r,m", SYSTEMS)
    @pytest.mark.parametrize("gamma_db", [-3.0, 4.0])
    def test_equal_to_rounding(self, n_t, n_r, m, gamma_db):
        cfg = small_config(n_t=n_t, n_r=n_r, m=m, gamma0_db=gamma_db)
        n = 3001
        got = de._channel_prior_samples(cfg, n, np.random.default_rng(61))
        want = mf_soft_symbol_priors(cfg, n, np.random.default_rng(61))
        assert got.shape == want.shape == (n, 2**m) and got.flags.c_contiguous
        big = want > 1e-250
        assert np.max(np.abs(got[big] - want[big]) / want[big]) <= 1e-12
        assert np.max(np.abs(got.sum(axis=1) - 1)) <= 1e-12

    @pytest.mark.parametrize("n_t,n_r,m", SYSTEMS)
    def test_near_noiseless_keeps_argmax(self, n_t, n_r, m):
        # At 60 dB the LLRs reach about 1e6, so the log priors carry
        # absolute rounding of about 1e-10 before the exp.
        cfg = small_config(n_t=n_t, n_r=n_r, m=m, gamma0_db=60.0)
        n = 3001
        got = de._channel_prior_samples(cfg, n, np.random.default_rng(62))
        want = mf_soft_symbol_priors(cfg, n, np.random.default_rng(62))
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.max(np.abs(got.sum(axis=1) - 1)) <= 1e-12

    @pytest.mark.parametrize("gamma_db", [-3.0, 4.0])
    def test_repetition_folds_equal_priors(self, gamma_db):
        # _fresh_samples draws 2n raw priors, then the n coefficients of
        # the second copies, and folds each pair.
        cfg = small_config(n_t=200, n_r=200, gamma0_db=gamma_db, repeat_factor=2)
        f, n = cfg.field, 1500
        got = de._fresh_samples(cfg, n, np.random.default_rng(63))
        rng = np.random.default_rng(63)
        raw = mf_soft_symbol_priors(cfg, 2 * n, rng).reshape(n, 2, f.size)
        coefs = np.ones((n, 2), dtype=np.int64)
        coefs[:, 1:] = rng.integers(1, f.size, size=(n, 1))
        folded = np.take_along_axis(raw, f.mul_table[coefs], axis=2).prod(axis=1)
        folded = np.maximum(folded, MSG_FLOOR)
        want = folded / folded.sum(axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert np.max(np.abs(got.sum(axis=1) - 1)) <= 1e-12

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_copy_by_copy_fold_equals_gathered_product(self, t):
        # Multiplying the t copies into the result one at a time gives the
        # bits of gathering all of them and reducing with np.prod, on the
        # same raw priors and coefficients; `out` receives the result.
        cfg = small_config(gamma0_db=-1.0, repeat_factor=t)
        f, n = cfg.field, 1500
        out = np.empty((n, f.size))
        got = de._fresh_samples(cfg, n, np.random.default_rng(64), out=out)
        rng = np.random.default_rng(64)
        raw = de._channel_prior_samples(cfg, n * t, rng).reshape(n, t, f.size)
        coefs = np.ones((n, t), dtype=np.int64)
        coefs[:, 1:] = rng.integers(1, f.size, size=(n, t - 1))
        folded = np.take_along_axis(raw, f.mul_table[coefs], axis=2).prod(axis=1)
        folded = np.maximum(folded, MSG_FLOOR)
        want = folded / folded.sum(axis=1, keepdims=True)
        assert got is out
        assert np.array_equal(got, want)


class TestSpectrumPermutations:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_a_field_representation_of_multiplication(self, m):
        # P[1] is the identity and P[a][P[b]] == P[a b], as integers.
        f = build_field(m)
        perm = de._spectrum_permutations(f)
        nz = np.arange(1, f.size)
        assert np.array_equal(perm[1], np.arange(f.size))
        for a in nz:
            assert np.array_equal(perm[a][perm[nz]], perm[f.mul_table[a, nz]])

    @pytest.mark.parametrize("m", range(2, 9))
    def test_rotation_permutes_the_spectrum(self, m):
        # Row x -> p[c^{-1} x] has spectrum fwht(p)[P[c]], for every nonzero
        # c, on single rows and on 2-D batches.  Odd m has unequal factors
        # in the transform (r != c).
        f = build_field(m)
        perm = de._spectrum_permutations(f)
        rng = np.random.default_rng(40 + m)
        rows = rng.random((5, f.size))
        spectra = fwht(rows)
        tol = 1e-12 * np.max(np.abs(spectra))
        for c in range(1, f.size):
            rot = f.mul_table[f.inv_table[c]]
            assert np.max(np.abs(fwht(rows[:, rot]) - spectra[:, perm[c]])) <= tol
            assert np.max(np.abs(fwht(rows[0, rot]) - spectra[0, perm[c]])) <= tol


class TestIterate:
    def test_delta_ensemble_is_fixed_point(self):
        # Check nodes map deltas to deltas; with a near-noiseless channel
        # factor the renewed ensemble stays all-delta at the zero symbol.
        cfg = small_config(gamma0_db=50.0, ensemble_size=256, detector="mmse")
        ens = np.zeros((256, 256))
        ens[:, 0] = 1.0
        out = de_iterate(ens, cfg, np.random.default_rng(3))
        assert not out.argmax(axis=1).any()
        assert ensemble_entropy(out, cfg.field) < 1e-3

    def test_uniform_through_checks_stays_uniform_without_channel(self):
        # A check fed uniform messages emits uniform messages; entropy can
        # only decrease through the fresh channel factor.
        cfg = small_config(gamma0_db=-35.0, ensemble_size=256)
        ens = np.full((256, 256), 1 / 256)
        out = de_iterate(ens, cfg, np.random.default_rng(4))
        assert ensemble_entropy(out, cfg.field) > 0.97

    def test_flat_gathers_match_take_along_axis(self):
        # de_iterate written with np.take_along_axis permutations of the
        # whole ensemble's spectra, in the same per-chunk RNG order (fresh
        # priors, check inputs, edge coefficients), gives the same bits.
        cfg = small_config(gamma0_db=1.0, ensemble_size=1500)
        ens = de_initial_ensemble(cfg, np.random.default_rng(25))
        got = de_iterate(ens.copy(), cfg, np.random.default_rng(26))
        want = renew_by_chunks(spectral_renewal, fwht(ens), cfg, np.random.default_rng(26))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d_c", [3, 4])
    def test_row_blocks_give_the_same_bits(self, d_c, monkeypatch):
        # Blocks of 100 rows, which do not divide the 512-row chunk, renew
        # to the bits of one block per chunk and of the whole-chunk
        # gathers, since every product is taken in the same order.
        cfg = small_config(gamma0_db=1.0, ensemble_size=1500, d_c=d_c)
        ens = de_initial_ensemble(cfg, np.random.default_rng(25))
        want = renew_by_chunks(spectral_renewal, fwht(ens), cfg, np.random.default_rng(26))
        monkeypatch.setattr(de, "_BLOCK_ROWS", de.CHUNK)
        whole = de_iterate(ens.copy(), cfg, np.random.default_rng(26))
        monkeypatch.setattr(de, "_BLOCK_ROWS", 100)
        got = de_iterate(ens.copy(), cfg, np.random.default_rng(26))
        assert np.array_equal(got, whole)
        assert np.array_equal(got, want)

    def test_spectral_renewal_matches_probability_domain_renewal(self):
        # The same draws renewed by rotating rows in the probability domain
        # (three transforms per sample) agree to rounding: the largest
        # difference measured here is 1.4e-11, in rows where a confident
        # fresh prior meets check outputs near the rounding level.
        cfg = small_config(gamma0_db=1.0, ensemble_size=1500)
        ens = de_initial_ensemble(cfg, np.random.default_rng(25))
        got = de_iterate(ens.copy(), cfg, np.random.default_rng(26))
        want = renew_by_chunks(take_along_axis_renewal, ens, cfg, np.random.default_rng(26))
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda e: np.repeat(e, 2, axis=0)[::2], lambda e: e.astype(np.float32)],
        ids=["fortran", "strided", "float32"],
    )
    def test_other_layouts_renew_as_their_contiguous_float64_copy(self, layout):
        # Such inputs are copied before the in-place transform, so the
        # caller's array is left as it was.
        cfg = small_config(gamma0_db=1.0, ensemble_size=1500)
        ens = layout(de_initial_ensemble(cfg, np.random.default_rng(25)))
        before = ens.copy()
        got = de_iterate(ens, cfg, np.random.default_rng(26))
        want = de_iterate(np.array(ens, dtype=np.float64), cfg, np.random.default_rng(26))
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(ens, before)

    def test_contiguous_float64_input_is_overwritten_with_its_spectra(self):
        cfg = small_config(gamma0_db=1.0, ensemble_size=1500)
        ens = de_initial_ensemble(cfg, np.random.default_rng(25))
        want = fwht(ens)
        de_iterate(ens, cfg, np.random.default_rng(26))
        assert np.array_equal(ens, want)

    @pytest.mark.parametrize("detector", ["mf-simplified", "mmse"])
    def test_per_chunk_fresh_draws_match_full_draw_in_law(self, detector):
        # The renewal drew all L fresh priors before any check-node work;
        # it now draws them chunk by chunk.  Given the input ensemble, rows
        # whose fresh priors come from different channel uses are i.i.d.
        # under both orders; every other row keeps one per use (n_t / m = 2
        # per use), so two-sample KS tests (alpha = 0.001 each) of per-row
        # statistics are exact.
        cfg = small_config(gamma0_db=-1.0, ensemble_size=3000, detector=detector)
        ens = de_initial_ensemble(cfg, np.random.default_rng(30))
        got = de_iterate(ens.copy(), cfg, np.random.default_rng(31))

        rng = np.random.default_rng(32)
        L = len(ens)
        fresh = de._fresh_samples(cfg, L, rng)
        want = np.empty_like(ens)
        for lo in range(0, L, de.CHUNK):
            hi = min(lo + de.CHUNK, L)
            want[lo:hi] = take_along_axis_renewal(ens, fresh[lo:hi], cfg, rng)
        for stat in (
            lambda e: e[:, 0],
            lambda e: e.max(axis=1),
            lambda e: entr(e).sum(axis=1),
        ):
            assert stats.ks_2samp(stat(got[::2]), stat(want[::2])).pvalue > 1e-3

    def test_holds_no_full_size_fresh_array(self):
        # Allocations traced while renewing an L = 2e4 ensemble stay below
        # the result plus a few chunks of work.  The fresh priors go
        # straight into the result, and the gathers, products and
        # transforms run through block-sized buffers, so what is left per
        # chunk is the prior sampler's own work and the draws: about 2.5
        # chunk-sized float64 arrays at d_c = 3; the bound allows 4.  A
        # full-L fresh array, or a copy of the input's spectra, would add
        # L q float64 entries, 41 MB against the 2 MB allowance.
        cfg = small_config(gamma0_db=0.0, ensemble_size=20_000)
        assert renewal_peak_chunks(cfg) < 4

    def test_holds_no_repetition_sized_gather(self):
        # With t = 3 copies a chunk draws its 3 CHUNK raw priors, and the
        # copies are folded into the result one at a time: about 7 chunk
        # sizes above the result, bounded at 10.  A gather of all t copies
        # at once, with its int64 index, would add 6 more.
        cfg = small_config(gamma0_db=-5.0, ensemble_size=20_000, repeat_factor=3)
        assert renewal_peak_chunks(cfg) < 10

    def test_entropy_drops_well_above_threshold(self):
        cfg = small_config(gamma0_db=4.0, ensemble_size=1024)
        rng = np.random.default_rng(5)
        ens = de_initial_ensemble(cfg, rng)
        h0 = ensemble_entropy(ens, cfg.field)
        for _ in range(3):
            ens = de_iterate(ens, cfg, rng)
        h3 = ensemble_entropy(ens, cfg.field)
        assert h3 < h0


class TestThreshold:
    def test_point_decodes_at_high_snr(self):
        cfg = small_config(gamma0_db=6.0)
        ok, iters, entropy = run_point(cfg, np.random.default_rng(6))
        assert ok
        assert entropy <= cfg.h_stop
        assert iters <= cfg.max_iterations

    def test_point_fails_at_very_low_snr(self):
        cfg = small_config(gamma0_db=-20.0, max_iterations=15)
        ok, iters, entropy = run_point(cfg, np.random.default_rng(7))
        assert not ok
        assert iters == 15
        assert entropy > cfg.h_stop

    def test_failing_start_raises(self):
        cfg = small_config(gamma0_db=-20.0, max_iterations=10)
        with pytest.raises(ThresholdSearchError, match="start higher"):
            find_threshold(cfg, seed=1)

    def test_search_returns_last_decodable_point(self):
        cfg = small_config(
            gamma0_db=5.0, step_db=1.0, max_iterations=40, ensemble_size=800
        )
        res = find_threshold(cfg, seed=2)
        decoded = [row["gamma_db"] for row in res.trajectory if row["decoded"]]
        assert res.trajectory[-1]["decoded"] is False
        assert decoded
        assert res.threshold_db == pytest.approx(decoded[-1])
        assert res.threshold_db == pytest.approx(
            res.trajectory[-1]["gamma_db"] + cfg.step_db
        )

    def test_deterministic_given_seed(self):
        cfg = small_config(
            gamma0_db=5.0, step_db=1.0, max_iterations=30, ensemble_size=600
        )
        a = find_threshold(cfg, seed=3)
        b = find_threshold(cfg, seed=3)
        assert a.threshold_db == b.threshold_db
        assert a.trajectory == b.trajectory

    def test_repetition_lowers_threshold(self):
        base = small_config(
            gamma0_db=5.0, step_db=1.0, max_iterations=40, ensemble_size=800
        )
        res1 = find_threshold(base, seed=4)
        rep = small_config(
            gamma0_db=5.0,
            step_db=1.0,
            max_iterations=40,
            ensemble_size=800,
            repeat_factor=2,
        )
        res2 = find_threshold(rep, seed=4)
        assert res2.threshold_db < res1.threshold_db
