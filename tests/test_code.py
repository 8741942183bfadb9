from fractions import Fraction

import numpy as np
import pytest

from nbmimo.code import (
    CodeConstructionError,
    SparseParityMatrix,
    build_code_spec,
    construct_regular,
    lower_rate,
    syndrome,
)
from nbmimo.galois import build_field


def dense_syndrome(a: np.ndarray, x: np.ndarray, field) -> np.ndarray:
    """Dense GF matrix-vector product, the independent reference."""
    out = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(a.shape[0]):
        acc = 0
        for j in range(a.shape[1]):
            acc ^= int(field.mul_table[a[i, j], x[j]])
        out[i] = acc
    return out


def solve_codeword_by_elimination(a: np.ndarray, info: np.ndarray, field):
    """Encode by brute Gaussian elimination on the dense matrix.

    Picks pivot columns left to right, reduces, and back-substitutes the
    free (information) columns.  Completely independent of CodeSpec.
    """
    a = a.copy()
    p, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == p:
            break
        rows = [i for i in range(r, p) if a[i, c]]
        if not rows:
            continue
        if rows[0] != r:
            a[[r, rows[0]]] = a[[rows[0], r]]
        scale = field.inv_table[a[r, c]]
        a[r] = field.mul_table[scale, a[r]]
        for i in range(p):
            if i != r and a[i, c]:
                a[i] ^= field.mul_table[a[i, c], a[r]]
        pivots.append(c)
        r += 1
    assert r == p, "matrix not full rank"
    free = [c for c in range(n) if c not in pivots]
    x = np.zeros(n, dtype=np.int64)
    x[free] = info
    for row, pc in enumerate(pivots):
        acc = 0
        for c in free:
            acc ^= int(field.mul_table[a[row, c], x[c]])
        x[pc] = acc
    return x


class TestConstruction:
    def test_rate_one_third_dimensions(self):
        f = build_field(8)
        m = construct_regular(120, 3, f, seed=1)
        assert m.n_checks == 80
        assert np.all(m.col_weights == 2)
        assert np.all(m.row_weights == 3)

    def test_rate_one_half_dimensions(self):
        f = build_field(8)
        m = construct_regular(300, 4, f, seed=1)
        assert m.n_checks == 150
        assert np.all(m.col_weights == 2)
        assert np.all(m.row_weights == 4)

    def test_no_column_pair_shares_two_rows(self):
        # Exhaustive scan over all column pairs.
        f = build_field(8)
        m = construct_regular(120, 3, f, seed=3)
        col_rows = {}
        for r, c in zip(m.edge_row, m.edge_col):
            col_rows.setdefault(int(c), set()).add(int(r))
        cols = sorted(col_rows)
        for i in cols:
            for j in cols[i + 1 :]:
                assert len(col_rows[i] & col_rows[j]) < 2

    def test_all_coefficients_nonzero(self):
        f = build_field(4)
        m = construct_regular(60, 3, f, seed=9)
        assert np.all(m.edge_coef > 0)
        assert np.all(m.edge_coef < 16)

    def test_deterministic_given_seed(self):
        f = build_field(8)
        a = construct_regular(120, 3, f, seed=42)
        b = construct_regular(120, 3, f, seed=42)
        assert np.array_equal(a.edge_row, b.edge_row)
        assert np.array_equal(a.edge_col, b.edge_col)
        assert np.array_equal(a.edge_coef, b.edge_coef)
        c = construct_regular(120, 3, f, seed=43)
        assert not (
            np.array_equal(a.edge_row, c.edge_row)
            and np.array_equal(a.edge_coef, c.edge_coef)
        )

    def test_indivisible_degree_rejected(self):
        f = build_field(8)
        with pytest.raises(CodeConstructionError, match="divisible"):
            construct_regular(100, 3, f, seed=1)

    def test_infeasible_small_matrix_rejected(self):
        # N=4, d_c=4 gives P=2 checks: only one distinct row pair for 4 columns.
        f = build_field(4)
        with pytest.raises(CodeConstructionError):
            construct_regular(4, 4, f, seed=1)


class TestSyndrome:
    def test_matches_dense_oracle_on_random_vectors(self):
        f = build_field(4)
        m = construct_regular(30, 3, f, seed=5)
        dense = m.to_dense()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 16, size=30)
            assert np.array_equal(syndrome(x, m, f), dense_syndrome(dense, x, f))

    def test_single_corruption_hits_exactly_two_checks(self):
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=2)
        x = spec.encode(np.zeros(spec.k_symbols, dtype=np.int64))
        x[17] ^= 5
        s = syndrome(x, spec.matrix, f)
        assert np.count_nonzero(s) == 2

    def test_length_mismatch_rejected(self):
        f = build_field(4)
        m = construct_regular(30, 3, f, seed=5)
        with pytest.raises(ValueError):
            syndrome(np.zeros(29, dtype=np.int64), m, f)


class TestEncoding:
    def test_zero_info_gives_zero_codeword(self):
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=11)
        x = spec.encode(np.zeros(spec.k_symbols, dtype=np.int64))
        assert not x.any()

    def test_random_frames_have_zero_syndrome(self):
        f = build_field(8)
        spec = build_code_spec(120, 3, f, seed=11)
        rng = np.random.default_rng(1)
        for _ in range(50):
            info = rng.integers(0, 256, size=spec.k_symbols)
            x = spec.encode(info)
            assert not syndrome(x, spec.matrix, f).any()

    def test_systematic_positions_carry_info(self):
        f = build_field(8)
        spec = build_code_spec(60, 4, f, seed=3)
        rng = np.random.default_rng(2)
        info = rng.integers(0, 256, size=spec.k_symbols)
        x = spec.encode(info)
        assert np.array_equal(x[spec.info_cols], info)

    def test_toy_code_matches_elimination_oracle(self):
        # Hand-built 2x4 matrix over GF(4), K=2.
        f = build_field(2)
        edges = [(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 1, 1), (1, 2, 2), (1, 3, 3)]
        m = SparseParityMatrix(2, 2, 4, edges)
        dense = m.to_dense()
        rng = np.random.default_rng(7)
        from nbmimo.code import CodeSpec, _reduced_row_echelon

        work = dense.copy()
        rank, pivots = _reduced_row_echelon(work, f)
        assert rank == 2
        parity_cols = np.array(pivots)
        info_cols = np.array([c for c in range(4) if c not in pivots])
        spec = CodeSpec(
            field=f,
            matrix=m,
            info_cols=info_cols,
            parity_cols=parity_cols,
            parity_map=work[:, info_cols],
        )
        for _ in range(10):
            info = rng.integers(0, 4, size=2)
            got = spec.encode(info)
            want = solve_codeword_by_elimination(dense, info, f)
            assert np.array_equal(got, want)
            assert not syndrome(got, m, f).any()

    def test_encoding_is_linear(self):
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=13)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = int(rng.integers(1, 256))
            u = rng.integers(0, 256, size=spec.k_symbols)
            v = rng.integers(0, 256, size=spec.k_symbols)
            lhs = spec.encode(f.mul_table[a, u] ^ v)
            rhs = f.mul_table[a, spec.encode(u)] ^ spec.encode(v)
            assert np.array_equal(lhs, rhs)

    def test_full_rank_for_shipped_presets(self):
        f = build_field(8)
        for n, d_c, seed in [(300, 4, 101), (300, 3, 102), (300, 3, 105), (48, 3, 11)]:
            spec = build_code_spec(n, d_c, f, seed=seed)
            dense = spec.matrix.to_dense()
            from nbmimo.code import _reduced_row_echelon

            rank, _ = _reduced_row_echelon(dense.copy(), f)
            assert rank == spec.matrix.n_checks


class TestRateLowering:
    def test_half_rate_by_factor_two(self):
        f = build_field(8)
        spec = build_code_spec(300, 3, f, seed=21)
        assert spec.rate == Fraction(1, 3)
        assert spec.n_transmit_symbols == 300
        low = lower_rate(spec, Fraction(1, 6))
        assert low.repeat_factor == 2
        assert low.rate == Fraction(1, 6)
        assert low.n_transmit_symbols == 600
        assert low.k_bits == spec.k_bits == 800

    def test_identity_when_target_equals_base(self):
        f = build_field(8)
        spec = build_code_spec(120, 3, f, seed=21)
        assert lower_rate(spec, Fraction(1, 3)) is spec

    def test_non_integer_factor_rejected(self):
        f = build_field(8)
        spec = build_code_spec(120, 3, f, seed=21)
        with pytest.raises(ValueError):
            lower_rate(spec, Fraction(1, 5))

    def test_expand_applies_coefficients(self):
        f = build_field(8)
        spec = build_code_spec(120, 3, f, seed=23)
        low = lower_rate(spec, Fraction(1, 9))
        rng = np.random.default_rng(4)
        info = rng.integers(0, 256, size=low.k_symbols)
        x = low.encode(info)
        stream = low.expand(x)
        assert stream.shape == (3 * 120,)
        assert np.array_equal(stream[:120], x)
        for c in range(3):
            block = stream[c * 120 : (c + 1) * 120]
            assert np.array_equal(block, f.mul_table[low.repeat_coefs[c], x])

    def test_unit_coefficient_folding_squares_priors(self):
        # Two copies with coefficient 1: the folded prior is the single-copy
        # prior squared, then renormalized.
        f = build_field(2)
        spec = build_code_spec(6, 3, f, seed=2)
        low = lower_rate(spec, Fraction(1, 6))
        low.repeat_coefs = np.ones_like(low.repeat_coefs)
        rng = np.random.default_rng(5)
        single = rng.dirichlet(np.ones(4), size=6)
        stacked = np.vstack([single, single])
        folded = low.fold_priors(stacked)
        want = single**2
        want /= want.sum(axis=1, keepdims=True)
        assert np.allclose(folded, want, atol=1e-12)

    def test_folding_derotates_by_coefficients(self):
        # A delta prior on g*x for each copy folds to a delta on x.
        f = build_field(3)
        spec = build_code_spec(12, 4, f, seed=6)
        low = lower_rate(spec, Fraction(1, 4))
        x = spec.encode(np.random.default_rng(8).integers(0, 8, size=spec.k_symbols))
        stream = low.expand(x)
        n, q = spec.n_symbols, f.size
        priors = np.full((2 * n, q), 1e-9)
        priors[np.arange(2 * n), stream] = 1.0
        folded = low.fold_priors(priors)
        assert np.array_equal(folded.argmax(axis=1), x)
