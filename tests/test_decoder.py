import gc
import itertools
import weakref

import numpy as np
import pytest

from nbmimo.code import SparseParityMatrix, build_code_spec, syndrome
from nbmimo.decoder import (
    DecoderError,
    _BpGraph,
    _hadamard,
    _leave_one_out_product,
    decode,
    fwht,
)
from nbmimo.galois import build_field


def butterfly_fwht(a):
    """Reference transform: log2(q) in-place butterfly stages."""
    out = np.array(a, dtype=np.float64, copy=True)
    n = out.shape[-1]
    lead = out.shape[:-1]
    h = 1
    while h < n:
        out = out.reshape(lead + (n // (2 * h), 2, h))
        x = out[..., 0, :].copy()
        y = out[..., 1, :]
        out[..., 0, :] = x + y
        out[..., 1, :] = x - y
        out = out.reshape(lead + (n,))
        h *= 2
    return out


def cumprod_leave_one_out(values):
    """Reference leave-one-out product over axis 0 from two cumprods."""
    prefix = np.ones_like(values)
    suffix = np.ones_like(values)
    np.cumprod(values[:-1], axis=0, out=prefix[1:])
    np.cumprod(values[::-1][:-1], axis=0, out=suffix[1:])
    return prefix * suffix[::-1]


def enumerate_codewords(matrix, field):
    """All vectors with zero syndrome, by brute force."""
    words = []
    for x in itertools.product(range(field.size), repeat=matrix.n_symbols):
        if not syndrome(np.array(x), matrix, field).any():
            words.append(np.array(x))
    return words


def map_marginals(matrix, field, priors):
    """Exact per-symbol posteriors by summing over all codewords."""
    post = np.zeros((matrix.n_symbols, field.size))
    for w in enumerate_codewords(matrix, field):
        weight = np.prod(priors[np.arange(matrix.n_symbols), w])
        for v, x in enumerate(w):
            post[v, x] += weight
    return post / post.sum(axis=1, keepdims=True)


def tree_matrix_gf4():
    # x0 - c0 - x1 - c1 - x2: cycle-free, 4 codewords.
    edges = [(0, 0, 2), (0, 1, 1), (1, 1, 3), (1, 2, 1)]
    return SparseParityMatrix(2, 2, 3, edges)


class TestFwht:
    def test_matches_direct_character_sum(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=16)
        direct = np.array(
            [
                sum(
                    a[x] * (-1) ** bin(u & x).count("1")
                    for x in range(16)
                )
                for u in range(16)
            ]
        )
        assert np.allclose(fwht(a), direct, atol=1e-12)

    def test_self_inverse_up_to_size(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 64))
        assert np.allclose(fwht(fwht(a)) / 64, a, atol=1e-12)

    def test_diagonalizes_xor_convolution(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        conv = np.zeros(8)
        for x in range(8):
            for y in range(8):
                conv[x ^ y] += p[x] * q[y]
        via_transform = fwht(fwht(p) * fwht(q)) / 8
        assert np.allclose(conv, via_transform, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_butterfly_reference(self, m):
        # 1-D, the decoder's (edges, q) and the DE's (b, d_c - 1, q) shapes,
        # a non-contiguous view on the leading axes and an integer array.
        q = 1 << m
        rng = np.random.default_rng(100 + m)
        inputs = [
            rng.dirichlet(np.ones(q), size=shape[:-1]).reshape(shape)
            for shape in ((q,), (37, q), (11, 3, q))
        ]
        inputs.append(inputs[-1][::3, ::-1])
        inputs.append(rng.integers(-9, 10, size=(5, q)))
        assert not inputs[3].flags.c_contiguous
        for a in inputs:
            before = a.copy()
            got = fwht(a)
            want = butterfly_fwht(a)
            assert got.shape == a.shape
            assert got.dtype == np.float64
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale
            assert np.array_equal(a, before)

    def test_in_place_with_work_array_gives_same_bits(self):
        # The decoder transforms its buffers in place through a work array.
        a = np.random.default_rng(110).dirichlet(np.ones(256), size=(40,))
        want = fwht(a)
        work = np.empty_like(a)
        assert fwht(a, out=a, work=work) is a
        assert np.array_equal(a, want)

    def test_rejects_length_not_power_of_two(self):
        for n in (0, 12, 96):
            with pytest.raises(ValueError, match=f"got {n}$"):
                fwht(np.ones(n))
        with pytest.raises(ValueError, match="got 12$"):
            _hadamard(12)


class TestFastPathsEqualReference:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_leave_one_out_bit_equal_to_cumprod(self, d):
        rng = np.random.default_rng(200 + d)
        values = rng.normal(size=(d, 13, 16))
        got = _leave_one_out_product(values.copy(), np.empty_like(values))
        assert np.array_equal(got, cumprod_leave_one_out(values))
        for j in range(d):
            want = np.prod(np.delete(values, j, axis=0), axis=0)
            assert np.allclose(got[j], want, rtol=1e-12, atol=0)

    def test_flat_gathers_bit_equal_to_take_along_axis(self):
        # gather_in takes variable-slot rows to rotated check-slot rows;
        # gather_out takes check-slot rows to rotated variable-slot rows.
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=19)
        m = spec.matrix
        graph = _BpGraph(m, f)
        _, check_edges, _ = graph._slot_order(m.edge_row, m.n_checks)
        _, var_edges, _ = graph._slot_order(m.edge_col, m.n_symbols)
        rng = np.random.default_rng(20)
        msgs = rng.dirichlet(np.ones(f.size), size=m.n_edges)
        rot_fwd = f.mul_table[m.edge_coef]
        rot_inv = f.mul_table[f.inv_table[m.edge_coef]]
        got = msgs[var_edges].take(graph.gather_in).reshape(msgs.shape)
        want = np.take_along_axis(msgs, rot_inv, axis=1)[check_edges]
        assert np.array_equal(got, want)
        got = msgs[check_edges].take(graph.gather_out).reshape(msgs.shape)
        want = np.take_along_axis(msgs, rot_fwd, axis=1)[var_edges]
        assert np.array_equal(got, want)


class TestDecodeBasics:
    def test_noiseless_priors_converge_immediately(self):
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=1)
        rng = np.random.default_rng(3)
        x = spec.encode(rng.integers(0, 16, size=spec.k_symbols))
        priors = np.full((30, 16), 1e-12)
        priors[np.arange(30), x] = 1.0
        res = decode(priors, spec.matrix, f, max_iterations=10)
        assert res.converged
        assert res.iterations_used <= 1
        assert np.array_equal(res.hard, x)

    def test_uniform_priors_return_zero_codeword(self):
        # With no information the posterior stays uniform; the lowest-value
        # tie break lands on the all-zero word, which is a valid codeword,
        # so the zero-syndrome stop reports convergence.
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=1)
        priors = np.full((30, 16), 1.0 / 16)
        res = decode(priors, spec.matrix, f, max_iterations=5)
        assert res.converged
        assert not res.hard.any()

    def test_recovers_from_symbol_noise(self):
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=5)
        rng = np.random.default_rng(6)
        x = spec.encode(rng.integers(0, 256, size=spec.k_symbols))
        # Confident priors with a handful of corrupted symbols.
        priors = np.full((60, 256), 0.2 / 255)
        priors[np.arange(60), x] = 0.8
        for v in rng.choice(60, size=4, replace=False):
            priors[v] = 1.0 / 256
        res = decode(priors, spec.matrix, f, max_iterations=50)
        assert res.converged
        assert np.array_equal(res.hard, x)

    def test_bad_shape_rejected(self):
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=1)
        with pytest.raises(ValueError):
            decode(np.ones((30, 8)), spec.matrix, f, max_iterations=5)

    def test_decoding_leaves_no_reference_cycle(self):
        # The matrix caches its BP graph; with no back reference the two are
        # freed by reference counting alone, without a garbage collection.
        f = build_field(4)
        rng = np.random.default_rng(21)
        priors = rng.dirichlet(np.ones(16), size=30)
        gc.disable()
        try:
            spec = build_code_spec(30, 3, f, seed=1)
            decode(priors, spec.matrix, f, max_iterations=3)
            matrix_ref = weakref.ref(spec.matrix)
            del spec
            assert matrix_ref() is None
        finally:
            gc.enable()

    def test_unchecked_variable_keeps_its_prior(self):
        # Symbol 0 touches no check, so BP stores it after the checked ones;
        # its posterior is its normalized prior on every decode.
        f = build_field(2)
        m = SparseParityMatrix(2, 1, 3, [(0, 1, 1), (0, 2, 3)])
        rng = np.random.default_rng(22)
        for _ in range(2):
            priors = rng.dirichlet(np.ones(4), size=3)
            res = decode(priors, m, f, max_iterations=3, early_stop=False,
                         keep_posteriors=True)
            assert np.allclose(res.posteriors[0], priors[0] / priors[0].sum(), atol=1e-15)
            assert np.allclose(res.posteriors.sum(axis=1), 1.0, atol=1e-12)

    def test_posteriors_returned_when_requested(self):
        f = build_field(2)
        m = tree_matrix_gf4()
        rng = np.random.default_rng(7)
        priors = rng.dirichlet(np.ones(4), size=3)
        res = decode(priors, m, f, max_iterations=5, keep_posteriors=True)
        assert res.posteriors is not None
        assert np.allclose(res.posteriors.sum(axis=1), 1.0, atol=1e-9)


def noisy_priors(spec, rng, corrupted):
    """Confident priors on a random codeword, with some symbols erased."""
    f = spec.field
    x = spec.encode(rng.integers(0, f.size, size=spec.k_symbols))
    priors = rng.dirichlet(np.full(f.size, 0.3), size=spec.n_symbols)
    priors[np.arange(spec.n_symbols), x] += 1.0
    priors[rng.choice(spec.n_symbols, size=corrupted, replace=False)] = 1.0
    return priors


def run_bp(spec, priors, **kw):
    return decode(priors, spec.matrix, spec.field, max_iterations=30, **kw)


class TestWorkspace:
    """Decodes share the graph cached on their matrix; no decode may see another's."""

    def assert_equals_fresh_graph_decode(self, got, priors):
        want = run_bp(build_code_spec(60, 3, build_field(8), seed=5), priors,
                      keep_posteriors=True)
        assert np.array_equal(got.hard, want.hard)
        assert got.iterations_used == want.iterations_used
        assert got.converged == want.converged
        assert np.array_equal(got.posteriors, want.posteriors)

    def test_decodes_on_one_graph_equal_fresh_graph_decodes(self):
        spec = build_code_spec(60, 3, build_field(8), seed=5)
        # The first input runs out all 30 iterations; the second converges
        # after 4, on the graph the first built.
        rng = np.random.default_rng(51)
        for priors in [noisy_priors(spec, rng, k) for k in (30, 25)]:
            got = run_bp(spec, priors, keep_posteriors=True)
            assert got.iterations_used > 1
            self.assert_equals_fresh_graph_decode(got, priors)

    def test_posteriors_are_not_a_view_of_a_buffer(self):
        spec = build_code_spec(60, 3, build_field(8), seed=5)
        rng = np.random.default_rng(51)
        res = run_bp(spec, noisy_priors(spec, rng, 12), keep_posteriors=True)
        kept = res.posteriors.copy()
        run_bp(spec, noisy_priors(spec, rng, 6))
        assert np.array_equal(res.posteriors, kept)

    def test_decoder_error_leaves_next_decode_correct(self):
        spec = build_code_spec(60, 3, build_field(8), seed=5)
        rng = np.random.default_rng(52)
        bad = noisy_priors(spec, rng, 12)
        bad[7] = np.nan
        with pytest.raises(DecoderError, match="iteration 1"):
            run_bp(spec, bad, early_stop=False)
        priors = noisy_priors(spec, rng, 12)
        got = run_bp(spec, priors, keep_posteriors=True)
        assert got.iterations_used > 1
        self.assert_equals_fresh_graph_decode(got, priors)


class TestOracleEquivalence:
    def test_tree_posteriors_equal_enumeration_marginals(self):
        f = build_field(2)
        m = tree_matrix_gf4()
        assert len(enumerate_codewords(m, f)) == 4
        rng = np.random.default_rng(8)
        for _ in range(10):
            priors = rng.dirichlet(np.ones(4), size=3)
            res = decode(
                priors, m, f, max_iterations=8, early_stop=False, keep_posteriors=True
            )
            want = map_marginals(m, f, priors)
            assert np.allclose(res.posteriors, want, atol=1e-10)

    def test_two_check_toy_with_degree_one_variables(self):
        # Star around x1: two checks, leaves x0 and x2, plus a leaf x3.
        f = build_field(2)
        edges = [(0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 3), (1, 3, 2)]
        m = SparseParityMatrix(2, 2, 4, edges)
        rng = np.random.default_rng(9)
        priors = rng.dirichlet(np.ones(4), size=4)
        res = decode(
            priors, m, f, max_iterations=8, early_stop=False, keep_posteriors=True
        )
        want = map_marginals(m, f, priors)
        assert np.allclose(res.posteriors, want, atol=1e-10)

    def test_hard_decision_matches_map_argmax(self):
        f = build_field(2)
        m = tree_matrix_gf4()
        rng = np.random.default_rng(10)
        priors = rng.dirichlet(np.ones(4), size=3)
        res = decode(priors, m, f, max_iterations=8, early_stop=False)
        want = map_marginals(m, f, priors).argmax(axis=1)
        assert np.array_equal(res.hard, want)


class TestSymmetries:
    def test_prior_relabeling_permutes_posteriors(self):
        # Scaling every symbol by a nonzero constant maps codewords to
        # codewords, so permuted priors give identically permuted posteriors.
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=11)
        rng = np.random.default_rng(12)
        priors = rng.dirichlet(np.ones(16), size=30)
        base = decode(
            priors, spec.matrix, f, max_iterations=6, early_stop=False,
            keep_posteriors=True,
        )
        c = 7
        perm = f.mul_table[f.inv_table[c]]  # p'(x) = p(c^{-1} x)
        permuted = priors[:, perm]
        res = decode(
            permuted, spec.matrix, f, max_iterations=6, early_stop=False,
            keep_posteriors=True,
        )
        assert np.allclose(res.posteriors, base.posteriors[:, perm], atol=1e-12)
        assert np.array_equal(res.hard, f.mul_table[c, base.hard])

    def test_scaling_all_edge_coefficients_is_invariant(self):
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=13)
        m = spec.matrix
        c = 9
        scaled = SparseParityMatrix(
            m.m,
            m.n_checks,
            m.n_symbols,
            [
                (int(r), int(col), int(f.mul_table[c, h]))
                for r, col, h in zip(m.edge_row, m.edge_col, m.edge_coef)
            ],
        )
        rng = np.random.default_rng(14)
        priors = rng.dirichlet(np.ones(16), size=30)
        a = decode(priors, m, f, max_iterations=6, early_stop=False, keep_posteriors=True)
        b = decode(priors, scaled, f, max_iterations=6, early_stop=False, keep_posteriors=True)
        assert np.allclose(a.posteriors, b.posteriors, atol=1e-12)


class TestEarlyStop:
    def test_early_stop_matches_full_run_decisions(self):
        # Early stopping changes runtime, not the decoded word, on frames
        # that reach a codeword.
        f = build_field(8)
        spec = build_code_spec(60, 3, f, seed=15)
        rng = np.random.default_rng(16)
        x = spec.encode(rng.integers(0, 256, size=spec.k_symbols))
        priors = np.full((60, 256), 0.25 / 255)
        priors[np.arange(60), x] = 0.75
        fast = decode(priors, spec.matrix, f, max_iterations=40)
        full = decode(priors, spec.matrix, f, max_iterations=40, early_stop=False)
        assert fast.converged
        assert fast.iterations_used <= full.iterations_used
        assert np.array_equal(fast.hard, full.hard)

    def test_converged_implies_zero_syndrome(self):
        f = build_field(4)
        spec = build_code_spec(30, 3, f, seed=17)
        rng = np.random.default_rng(18)
        priors = rng.dirichlet(np.ones(16) * 0.3, size=30)
        res = decode(priors, spec.matrix, f, max_iterations=30)
        if res.converged:
            assert not syndrome(res.hard, spec.matrix, f).any()
