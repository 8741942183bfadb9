"""Unit tests of the benchmark's reference helpers and span recorder."""

import math
import types

import numpy as np
import pytest
from scipy import integrate

import reference as ref
from tracer import CHECK_SPAN, Tracer


def test_gf256_mul_is_a_field_product():
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    table = ref.gf256_mul(a, b)
    assert ref.gf256_mul(2, 0x80) == 0x1D  # x * x^7 = x^8 = x^4 + x^3 + x^2 + 1
    assert np.array_equal(table, table.T)
    assert np.array_equal(table[1], np.arange(256))
    assert not table[0].any()
    for row in table[1:]:  # every nonzero element is invertible
        assert sorted(row) == list(range(256))
    powers = [1]
    for _ in range(254):
        powers.append(int(ref.gf256_mul(powers[-1], 2)))
    assert sorted(powers) == list(range(1, 256))  # x is primitive
    c = np.arange(256)[::-1]
    assert np.array_equal(ref.gf256_mul(ref.gf256_mul(a, b), c), ref.gf256_mul(a, ref.gf256_mul(b, c)))


def test_gf256_mul_matches_nbmimo_table():
    galois = pytest.importorskip("nbmimo.galois")
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    assert np.array_equal(ref.gf256_mul(a, b), galois.build_field(8).mul_table)


def test_gf256_syndrome_by_hand():
    # Check 0: 3*x0 + 1*x1, check 1: 1*x1 + 7*x2.
    rows, cols, coefs = [0, 0, 1, 1], [0, 1, 1, 2], [3, 1, 1, 7]
    x0 = 5
    x1 = int(ref.gf256_mul(3, x0))  # char 2: 3*x0 + x1 = 0
    inv7 = int(np.flatnonzero(ref.gf256_mul(7, np.arange(256)) == 1)[0])
    x2 = int(ref.gf256_mul(x1, inv7))  # x1 + 7*x2 = 0
    assert not ref.gf256_syndrome([x0, x1, x2], rows, cols, coefs, 2).any()
    assert list(ref.gf256_syndrome([x0, x1, x2 ^ 1], rows, cols, coefs, 2)) == [0, 7]


def test_popcount():
    assert ref.popcount(np.array([0, 1, 3, 255, 128])) == 12


def test_tse_hanly_square_closed_form_and_references():
    for gamma in (0.01, 0.5, 1.0, 30.0):
        beta = ref.mmse_sinr_large_system(gamma, 200, 200)
        assert beta * (1 + beta) == pytest.approx(gamma, rel=1e-12)
    ber = lambda db: float(ref.bpsk_ber(  # noqa: E731
        ref.mmse_sinr_large_system(ref.db_to_linear(db), 200, 200)))
    assert ber(-0.25) == pytest.approx(0.138, abs=5e-4)
    assert ber(-2.0) == pytest.approx(0.174, abs=1e-3)


def test_tse_hanly_fixed_point_when_not_square():
    gamma, n_t, n_r = 2.0, 100, 200
    beta = ref.mmse_sinr_large_system(gamma, n_t, n_r)
    alpha = n_t / n_r
    assert beta == pytest.approx((gamma / alpha) / (1 + gamma / (1 + beta)), rel=1e-12)
    assert ref.mf_sinr_large_system(gamma, n_t, n_r) < beta < gamma / alpha


def test_mf_reference_floor():
    assert ref.mf_sinr_large_system(1.0, 200, 200) == 0.5
    floor = float(ref.bpsk_ber(ref.mf_sinr_large_system(1e9, 200, 200)))
    assert floor == pytest.approx(ref.q_function(math.sqrt(2)), rel=1e-6)
    assert floor == pytest.approx(0.0786, abs=1e-4)


def test_mf_term_power_by_simulation():
    n_t = n_r = 16
    gamma_db, draws = -2.0, 20_000
    rng = np.random.default_rng(7)
    sigma2 = 1 / (2 * ref.db_to_linear(gamma_db))
    h = (rng.standard_normal((draws, n_r, n_t)) + 1j * rng.standard_normal((draws, n_r, n_t))) / np.sqrt(2)
    s = rng.choice([-1.0, 1.0], size=(draws, n_t)) / np.sqrt(n_t)
    noise = np.sqrt(sigma2) * (rng.standard_normal((draws, n_r)) + 1j * rng.standard_normal((draws, n_r)))
    y = np.einsum("brt,bt->br", h, s) + noise
    col = h[:, :, 0]
    s_hat = np.einsum("br,br->b", col.conj(), y) / np.einsum("br,br->b", col.conj(), col).real
    power = np.abs(s_hat - s[:, 0]) ** 2
    se = power.std(ddof=1) / np.sqrt(draws)
    assert abs(power.mean() - ref.mf_term_power(n_t, n_r, gamma_db)) < 4 * se


def _mp_capacity(gamma_db, n_t, n_r):
    """N_t E log2(1 + (gamma N_r / N_t) x), x ~ Marchenko-Pastur, ratio N_t/N_r <= 1.

    x is an eigenvalue of H^H H / N_r, which has N_t of them.
    """
    c = n_t / n_r
    lo, hi = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2
    snr = ref.db_to_linear(gamma_db) / c

    def density(x):
        return math.sqrt(max((hi - x) * (x - lo), 0.0)) / (2 * math.pi * c * x)

    val, _ = integrate.quad(lambda x: math.log2(1 + snr * x) * density(x), lo, hi, limit=200)
    return n_t * val


def test_verdu_shamai_capacity():
    assert ref.verdu_shamai_capacity(-11.0, 600, 600) == pytest.approx(63.92, abs=5e-3)
    for gamma_db, n_t, n_r in ((-11.0, 600, 600), (3.0, 100, 100), (0.0, 100, 200)):
        assert ref.verdu_shamai_capacity(gamma_db, n_t, n_r) == pytest.approx(
            _mp_capacity(gamma_db, n_t, n_r), rel=1e-6
        )
    gamma = ref.db_to_linear(-40.0)
    assert ref.verdu_shamai_capacity(-40.0, 64, 64) == pytest.approx(64 * gamma * math.log2(math.e), rel=1e-3)


def test_tracer_self_and_busy_times():
    t = Tracer()
    outer = t.open("a")
    inner = t.open("b")
    nested_same = t.open("a")
    t.close(nested_same)
    t.close(inner)
    t.close(outer)
    t.starts[:] = [0.0, 1.0, 2.0]
    t.ends[:] = [10.0, 5.0, 3.0]
    s = t.summary()
    assert s["a"] == {"calls": 2, "busy_s": 10.0, "self_s": 6.0 + 1.0}
    assert s["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert t.parents == [-1, 0, 1]


def test_tracer_wraps_call_sites_and_restores():
    def helper(x):
        return x + 1

    helper.__module__ = "pkg.low"
    low = types.ModuleType("pkg.low")
    low.helper = helper
    high = types.ModuleType("pkg.high")
    high.helper = helper
    seen = []
    t = Tracer()
    t.wrap_functions([low, high], "pkg", {"low.helper": lambda a, k, r: seen.append(r)})
    assert high.helper(1) == 2 and low.helper(2) == 3
    t.restore()
    assert high.helper is helper and low.helper is helper
    assert seen == [2, 3]
    assert t.names == ["low.helper", CHECK_SPAN] * 2
    assert t.summary()["low.helper"]["calls"] == 2
