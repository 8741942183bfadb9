import numpy as np
import pytest
from scipy import integrate, stats

from nbmimo.channel import (
    CorrelationSpec,
    apply_correlation,
    ergodic_capacity,
    gray_constellation,
    instantaneous_capacity,
    map_codeword,
    perturb_estimate,
    sample_bartlett,
    sample_iid,
    snr_to_noise,
    spectral_efficiency,
    transmit,
)
from nbmimo.galois import build_field


def gray_neighbours_differ_one_bit(constellation):
    pts = constellation.points
    for a in range(len(pts)):
        dists = np.abs(pts - pts[a])
        dists[a] = np.inf
        dmin = dists.min()
        for b in np.flatnonzero(np.isclose(dists, dmin)):
            assert bin(a ^ b).count("1") == 1, (a, b)


class TestConstellation:
    def test_bpsk_points(self):
        c = gray_constellation(2, symbol_energy=0.25)
        assert np.allclose(sorted(c.points.real), [-0.5, 0.5])
        assert np.allclose(c.points.imag, 0)

    @pytest.mark.parametrize("size", [2, 4, 16])
    def test_mean_energy(self, size):
        c = gray_constellation(size, symbol_energy=1 / 200)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1 / 200) < 1e-12

    @pytest.mark.parametrize("size", [2, 4, 16])
    def test_gray_property(self, size):
        gray_neighbours_differ_one_bit(gray_constellation(size))

    def test_16qam_is_scaled_lattice(self):
        c = gray_constellation(16, symbol_energy=1.0)
        levels = np.unique(np.round(c.points.real * np.sqrt(10)))
        assert np.allclose(levels, [-3, -1, 1, 3])

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            gray_constellation(8)


class TestMapping:
    def test_qpsk_200_antennas_packs_50_symbols(self):
        f = build_field(8)
        c = gray_constellation(4)
        vectors = map_codeword(np.zeros(300, dtype=np.int64), c, f, n_t=200)
        # q = 4 QPSK symbols per coded symbol, 50 coded symbols per use.
        assert vectors.shape == (6, 200)

    def test_bpsk_uses_eight_streams_per_symbol(self):
        f = build_field(8)
        c = gray_constellation(2)
        vectors = map_codeword(np.array([0b10110001]), c, f, n_t=8)
        amp = np.sqrt(1.0)
        want_bits = [1, 0, 0, 0, 1, 1, 0, 1]  # LSB first
        want = np.array([amp * (1 - 2 * b) for b in want_bits])
        assert np.allclose(vectors[0], want)

    def test_partial_final_vector_zero_padded(self):
        f = build_field(8)
        c = gray_constellation(2)
        vectors = map_codeword(np.arange(5, dtype=np.int64), c, f, n_t=16)
        # Two coded symbols per use: 5 symbols plus one padding symbol.
        assert vectors.shape == (3, 16)
        # Padding transmits the zero symbol: all label-0 points.
        assert np.allclose(vectors[-1, 8:], c.points[0])

    def test_noiseless_round_trip(self):
        f = build_field(8)
        c = gray_constellation(4)
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 256, size=75)
        flat = map_codeword(symbols, c, f, n_t=20).reshape(-1)
        labels = np.array([np.argmin(np.abs(c.points - s)) for s in flat])
        bits = c.labels_to_bits(labels).reshape(-1, 8)
        back = f.from_bits(bits)[: len(symbols)]
        assert np.array_equal(back, symbols)

    def test_indivisible_q_rejected(self):
        f = build_field(8)
        c = gray_constellation(4)
        with pytest.raises(ValueError):
            map_codeword(np.zeros(10, dtype=np.int64), c, f, n_t=10)


class TestChannelSampling:
    def test_unit_entry_power(self):
        rng = np.random.default_rng(1)
        h = sample_iid(1000, 1000, rng)
        power = np.mean(np.abs(h) ** 2)
        assert abs(power - 1.0) < 0.01

    def test_columns_uncorrelated(self):
        rng = np.random.default_rng(2)
        acc = 0
        n = 200
        for _ in range(50):
            h = sample_iid(2, n, rng)
            acc += np.vdot(h[:, 0], h[:, 1]) / n
        assert abs(acc / 50) < 0.02

    def test_column_gram_near_receive_count(self):
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(100):
            h = sample_iid(8, 200, rng)
            vals.extend(np.real(np.sum(h.conj() * h, axis=0)))
        assert abs(np.mean(vals) / 200 - 1.0) < 0.01

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (5, 5), (6, 9)])
    def test_bartlett_factor_shape(self, n_t, n_r):
        # Lower triangular with a real positive diagonal; the same seed
        # gives the same factor.
        got = sample_bartlett(n_t, n_r, np.random.default_rng(6))
        assert got.shape == (n_t, n_t) and got.dtype == np.complex128
        assert not np.triu(got, 1).any()
        assert np.all(got.diagonal().real > 0) and not got.diagonal().imag.any()
        assert np.array_equal(got, sample_bartlett(n_t, n_r, np.random.default_rng(6)))

    def test_bartlett_factor_moments(self):
        # |L_ii|^2 ~ Gamma(N_r - N_t + i) and E|L_ij|^2 = 1 below the
        # diagonal, each mean within 4 standard errors; the entries below
        # the diagonal have zero mean and E[L_ij^2] = 0 (circular).
        n_t, n_r, draws = 4, 7, 40_000
        rng = np.random.default_rng(7)
        ls = np.array([sample_bartlett(n_t, n_r, rng) for _ in range(draws)])
        lower = np.tri(n_t, dtype=bool)
        power = (np.abs(ls) ** 2)[:, lower]
        want = (np.tri(n_t, k=-1) + np.diag(np.arange(n_r - n_t + 1, n_r + 1)))[lower]
        se = power.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(power.mean(axis=0) - want) < 4 * se)
        z = ls[:, np.tri(n_t, k=-1, dtype=bool)]
        for part in (z.real, z.imag, (z * z).real, (z * z).imag):
            se = part.std(axis=0, ddof=1) / np.sqrt(draws)
            assert np.all(np.abs(part.mean(axis=0)) < 4 * se)

    def test_bartlett_factor_needs_enough_receivers(self):
        with pytest.raises(ValueError, match="n_r >= n_t"):
            sample_bartlett(4, 3, np.random.default_rng(8))

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (3, 7), (64, 600)])
    def test_equals_complex_division_of_two_draws(self, n_t, n_r):
        # The former expression, with its temporaries, bit for bit.
        for seed in range(5):
            got = sample_iid(n_t, n_r, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            re = rng.standard_normal((n_r, n_t))
            im = rng.standard_normal((n_r, n_t))
            want = (re + 1j * im) / np.sqrt(2)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))


def exponential_matrix(rho, n):
    """R(rho)[i, j] = rho^|i - j|, written out entry by entry."""
    return np.array([[rho ** abs(i - j) for j in range(n)] for i in range(n)])


class TestCorrelation:
    def test_exponential_entries_closed_form(self):
        spec = CorrelationSpec(0.5, 0.5, 3, 3)
        c = np.sqrt(0.75)
        want = np.array([[1, 0, 0], [0.5, c, 0], [0.25, 0.5 * c, c]])
        assert np.allclose(spec.factor_t, want, rtol=0, atol=1e-15)
        assert np.allclose(spec.factor_r, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 8, 600])
    def test_factor_recomposes_exponential_matrix(self, n, rho):
        spec = CorrelationSpec(rho, rho, n, n)
        want = exponential_matrix(rho, n)
        for factor in (spec.factor_t, spec.factor_r):
            assert np.array_equal(factor, np.tril(factor))
            assert np.max(np.abs(factor @ factor.T - want)) <= 1e-12
            if rho == 0:
                assert np.array_equal(factor, np.eye(n))

    def test_eigenvalues_are_clipped_eigh_of_the_matrix(self):
        # Capacity draws read these; they must stay bit for bit what a full
        # eigh of R gives, or every correlated capacity output moves.
        spec = CorrelationSpec(0.6, 0.3, 12, 20)
        for eig, rho, n in ((spec.eig_t, 0.6, 12), (spec.eig_r, 0.3, 20)):
            idx = np.arange(n)
            r = rho ** np.abs(idx[:, None] - idx[None, :])
            assert np.array_equal(eig, np.clip(np.linalg.eigh(r)[0], 0.0, None))
            assert eig.sum() == pytest.approx(n, abs=1e-12)

    def test_symmetric_spec_decomposes_once(self, monkeypatch):
        # Equal rho and size at both ends share one eigh; unequal ones
        # still decompose each matrix.
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        spec = CorrelationSpec(0.5, 0.5, 16, 16)
        assert spec.eig_r is spec.eig_t
        assert calls == [(16, 16)]
        calls.clear()
        for rho_r, n_r in ((0.3, 16), (0.5, 12)):
            spec = CorrelationSpec(0.5, rho_r, 16, n_r)
            spec.eig_t, spec.eig_r
        assert calls == [(16, 16), (16, 16), (16, 16), (12, 12)]

    @pytest.mark.parametrize("n_t,n_r", [(4, 4), (5, 9)])
    def test_equals_complex_product(self, n_t, n_r):
        # Two real products on Re H and Im H: the complex product L_r H L_t^T
        # of the real factors, to rounding.
        spec = CorrelationSpec(0.5, 0.3, n_t, n_r)
        h = sample_iid(n_t, n_r, np.random.default_rng(20))
        want = spec.factor_r.astype(complex) @ h @ spec.factor_t.T.astype(complex)
        got = apply_correlation(h, spec)
        assert got.dtype == h.dtype
        assert np.max(np.abs(got - want)) < 1e-14

    def test_zero_rho_is_identity(self):
        spec = CorrelationSpec(0.0, 0.0, 4, 4)
        rng = np.random.default_rng(4)
        h = sample_iid(4, 4, rng)
        assert np.array_equal(apply_correlation(h, spec), h)

    def test_empirical_column_covariance(self):
        spec = CorrelationSpec(0.6, 0.0, 4, 4)
        rng = np.random.default_rng(5)
        acc = np.zeros((4, 4), dtype=np.complex128)
        trials = 20000
        for _ in range(trials):
            h = apply_correlation(sample_iid(4, 4, rng), spec)
            acc += h.conj().T @ h
        cov = acc / (trials * 4)
        assert np.max(np.abs(cov - exponential_matrix(0.6, 4))) < 0.02

    def test_empirical_row_covariance(self):
        spec = CorrelationSpec(0.0, 0.6, 4, 4)
        rng = np.random.default_rng(19)
        acc = np.zeros((4, 4), dtype=np.complex128)
        trials = 20000
        for _ in range(trials):
            h = apply_correlation(sample_iid(4, 4, rng), spec)
            acc += h @ h.conj().T
        cov = acc / (trials * 4)
        assert np.max(np.abs(cov - exponential_matrix(0.6, 4))) < 0.02

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            CorrelationSpec(1.0, 0.0, 4, 4)


class TestEstimationError:
    def test_zero_variance_is_identity(self):
        rng = np.random.default_rng(6)
        h = sample_iid(4, 4, rng)
        assert perturb_estimate(h, 0.0, rng) is h

    def test_error_variance(self):
        rng = np.random.default_rng(7)
        h = np.zeros((500, 500), dtype=np.complex128)
        err = perturb_estimate(h, 0.2, rng)
        assert abs(np.mean(np.abs(err) ** 2) - 0.2) < 0.002

    def test_negative_variance_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            perturb_estimate(np.zeros((2, 2)), -0.1, rng)


class TestTransmit:
    def test_noiseless(self):
        rng = np.random.default_rng(9)
        h = sample_iid(4, 4, rng)
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(transmit(h, s, 0.0, rng), h @ s)

    def test_received_power_identity(self):
        # E||y||^2 = E_s N_r + 2 sigma^2 N_r for unit-variance fading.
        rng = np.random.default_rng(10)
        n = 16
        es = 1.0
        sigma2 = 0.3
        c = gray_constellation(4, symbol_energy=es / n)
        acc = 0.0
        trials = 4000
        for _ in range(trials):
            h = sample_iid(n, n, rng)
            s = c.points[rng.integers(0, 4, size=n)]
            y = transmit(h, s, sigma2, rng)
            acc += np.sum(np.abs(y) ** 2)
        want = es * n + 2 * sigma2 * n
        assert abs(acc / trials - want) / want < 0.05


class TestSnr:
    def test_zero_db(self):
        assert snr_to_noise(0.0) == pytest.approx(0.5)

    def test_ten_db(self):
        assert snr_to_noise(10.0) == pytest.approx(0.05)

    def test_minus_two_db(self):
        assert snr_to_noise(-2.0) == pytest.approx(0.79245, abs=1e-4)


class TestCapacity:
    def test_identity_channel_closed_form(self):
        rng = np.random.default_rng(11)
        cap = instantaneous_capacity(np.eye(2), 10 * np.log10(2.0))
        _, se = ergodic_capacity(2, 2, 10 * np.log10(2.0), trials=1, rng=rng)
        assert cap == pytest.approx(2.0, abs=1e-12)
        assert se == 0.0

    def test_identity_channel_general_n(self):
        n, gamma = 5, 3.0
        cap = instantaneous_capacity(np.eye(n), 10 * np.log10(gamma))
        assert cap == pytest.approx(n * np.log2(1 + gamma / n), abs=1e-12)

    def test_1x1_matches_quadrature(self):
        # |h|^2 is Exp(1); integrate log2(1 + gamma u) e^-u du as the oracle.
        gamma_db = 5.0
        gamma = 10 ** (gamma_db / 10)
        want, _ = integrate.quad(
            lambda u: np.log2(1 + gamma * u) * np.exp(-u), 0, np.inf
        )
        rng = np.random.default_rng(13)
        got, se = ergodic_capacity(1, 1, gamma_db, trials=20000, rng=rng)
        assert abs(got - want) < 3 * se

    def test_monotone_in_snr_on_fixed_sample(self):
        rng = np.random.default_rng(14)
        h = sample_iid(4, 4, rng)
        caps = [instantaneous_capacity(h, g) for g in [-10, -5, 0, 5, 10]]
        assert np.all(np.diff(caps) > 0)

    @pytest.mark.parametrize("n_t,n_r", [(5, 5), (3, 7), (7, 3)])
    def test_cholesky_log_det_matches_slogdet(self, n_t, n_r):
        rng = np.random.default_rng(16)
        h = sample_iid(n_t, n_r, rng)
        gamma_db = 3.0
        gram = np.eye(n_r) + (10 ** (gamma_db / 10) / n_t) * (h @ h.conj().T)
        want = np.linalg.slogdet(gram)[1] / np.log(2)
        got = instantaneous_capacity(h, gamma_db)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_t,n_r", [(5, 5), (3, 7), (7, 3), (1, 1)])
    def test_bidiagonal_trial_equals_embedded_matrix(self, n_t, n_r):
        # An i.i.d. trial draws d_i^2 ~ Gamma(m - i), then
        # e_i^2 ~ Gamma(n - 1 - i).  Replay those draws, write B out as an
        # N_r x N_t matrix, and take the full log det of it.
        m, n = max(n_t, n_r), min(n_t, n_r)
        gamma_db = 3.0
        for seed in range(3):
            got, _ = ergodic_capacity(
                n_t, n_r, gamma_db, trials=1, rng=np.random.default_rng(seed)
            )
            rng = np.random.default_rng(seed)
            d = np.sqrt(rng.standard_gamma(np.arange(m, m - n, -1.0)))
            e = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1.0)))
            h = np.zeros((n_r, n_t), dtype=np.complex128)
            h[:n, :n] = np.diag(d) + np.diag(e, 1)
            assert got == pytest.approx(
                instantaneous_capacity(h, gamma_db), abs=1e-10
            )

    @pytest.mark.parametrize(
        "n_t,n_r,gamma_db,trials",
        [(6, 6, 3.0, 20_000), (3, 7, 0.0, 20_000), (7, 3, 5.0, 20_000),
         (32, 32, -5.0, 4_000)],
    )
    def test_bidiagonal_trials_match_full_matrix_in_law(
        self, n_t, n_r, gamma_db, trials
    ):
        # Consecutive one-trial calls on one generator are the trials of
        # one call.  The reference draws H in full (seeds 171 and 172).
        rng = np.random.default_rng(171)
        fast = np.array([
            ergodic_capacity(n_t, n_r, gamma_db, 1, rng)[0] for _ in range(trials)
        ])
        rng = np.random.default_rng(172)
        full = np.array([
            instantaneous_capacity(sample_iid(n_t, n_r, rng), gamma_db)
            for _ in range(trials)
        ])
        p = stats.ks_2samp(fast, full).pvalue
        assert p > 1e-3, f"KS p = {p:.3g}"
        se = np.hypot(fast.std(ddof=1), full.std(ddof=1)) / np.sqrt(trials)
        assert abs(fast.mean() - full.mean()) < 4 * se

    def test_eigenbasis_draws_match_explicit_correlation(self):
        # Capacity is drawn as Lambda_r^{1/2} W Lambda_t^{1/2}; the explicit
        # Kronecker product R_r^{1/2} W R_t^{1/2} must give the same law.
        n_t, n_r, gamma_db, trials = 12, 20, 0.0, 4000
        spec = CorrelationSpec(0.6, 0.3, n_t, n_r)
        c0, se0 = ergodic_capacity(
            n_t, n_r, gamma_db, trials, np.random.default_rng(17), corrs=[spec]
        )[0]
        rng = np.random.default_rng(18)
        explicit = [
            instantaneous_capacity(
                apply_correlation(sample_iid(n_t, n_r, rng), spec), gamma_db
            )
            for _ in range(trials)
        ]
        c1 = np.mean(explicit)
        se1 = np.std(explicit, ddof=1) / np.sqrt(trials)
        assert abs(c0 - c1) < 4 * np.hypot(se0, se1)

    def test_several_specs_share_each_w(self):
        # Each spec's (mean, std error) is bit for bit that of its own
        # trials (Lambda_r^{1/2} W) Lambda_t^{1/2}, on one W per trial.
        n_t, n_r, gamma_db, trials = 6, 9, 2.0, 30
        specs = [CorrelationSpec(r, r / 2, n_t, n_r) for r in (0.3, 0.6, 0.3)]
        got = ergodic_capacity(
            n_t, n_r, gamma_db, trials, np.random.default_rng(41), corrs=specs
        )
        rng = np.random.default_rng(41)
        ws = [sample_iid(n_t, n_r, rng) for _ in range(trials)]
        for spec, (mean, se) in zip(specs, got):
            root_r, root_t = np.sqrt(spec.eig_r)[:, None], np.sqrt(spec.eig_t)
            vals = np.array(
                [instantaneous_capacity(root_r * w * root_t, gamma_db) for w in ws]
            )
            assert mean == vals.mean()
            assert se == vals.std(ddof=1) / np.sqrt(trials)
        assert got[0] == got[2] and got[0] != got[1]
        [(_, se)] = ergodic_capacity(
            n_t, n_r, gamma_db, 1, np.random.default_rng(41), corrs=specs[:1]
        )
        assert se == 0.0

    def test_correlation_reduces_capacity(self):
        corr = CorrelationSpec(0.6, 0.6, 16, 16)
        c0, se0 = ergodic_capacity(
            16, 16, 0.0, trials=400, rng=np.random.default_rng(15)
        )
        c1, se1 = ergodic_capacity(
            16, 16, 0.0, trials=400, rng=np.random.default_rng(15), corrs=[corr]
        )[0]
        assert c1 < c0 - 3 * np.hypot(se0, se1)


class TestSpectralEfficiency:
    def test_half_rate_bpsk_200(self):
        from fractions import Fraction

        assert spectral_efficiency(1, Fraction(1, 2), 200) == 100.0

    def test_third_rate_bpsk_200(self):
        from fractions import Fraction

        assert spectral_efficiency(1, Fraction(1, 3), 200) == pytest.approx(66.6667, abs=1e-3)
