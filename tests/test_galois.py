import numpy as np
import pytest

from nbmimo.galois import FieldConstructionError, build_field


def polymul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less polynomial multiplication reduced mod poly (bit-level oracle)."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    for i in range(2 * m - 2, m - 1, -1):
        if (res >> i) & 1:
            res ^= poly << (i - m)
    return res & ((1 << m) - 1)


class TestConstruction:
    def test_gf8_symbol_table(self):
        # Powers of the generator of GF(8) with poly x^3 + x + 1, as
        # least-significant-coefficient-first bit triples.
        f = build_field(3)
        expected = {
            0: (1, 0, 0),
            1: (0, 1, 0),
            2: (0, 0, 1),
            3: (1, 1, 0),
            4: (0, 1, 1),
            5: (1, 1, 1),
            6: (1, 0, 1),
        }
        for i, bits in expected.items():
            assert tuple(f.to_bits(f.exp_table[i])) == bits
        # alpha^7 = alpha^6 alpha = alpha^0 = 1
        assert f.mul_table[f.exp_table[6], f.exp_table[1]] == f.exp_table[0] == 1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_built_in_poly_is_primitive(self, m):
        # alpha = x has 2^m - 1 distinct nonzero powers and alpha^(2^m - 1)
        # = 1 by the bit-level oracle: every nonzero residue is a power of
        # one unit, so the quotient ring is a field and alpha generates it.
        f = build_field(m)
        powers = set(f.exp_table.tolist())
        assert len(powers) == f.size - 1
        assert 0 not in powers
        assert polymul_mod(int(f.exp_table[-1]), 0b10, f.poly, m) == 1

    def test_m_out_of_range(self):
        with pytest.raises(FieldConstructionError):
            build_field(1)
        with pytest.raises(FieldConstructionError):
            build_field(9)


class TestArithmetic:
    """Field arithmetic read from the tables: addition is XOR, products
    index `mul_table`, inverses `inv_table` and powers of alpha
    `exp_table`."""

    def test_add_is_xor(self):
        f = build_field(3)
        for a in range(8):
            assert a ^ a == 0
            assert a ^ 0 == a
        # alpha + alpha^2 = alpha^4 in GF(8)
        assert f.exp_table[1] ^ f.exp_table[2] == f.exp_table[4]

    def test_gf8_alpha_cubed(self):
        f = build_field(3)
        assert f.mul_table[f.exp_table[1], f.exp_table[2]] == f.exp_table[3]
        assert tuple(f.to_bits(f.exp_table[3])) == (1, 1, 0)

    def test_mul_identity_and_zero(self):
        f = build_field(4)
        for x in range(16):
            assert f.mul_table[x, 1] == x
            assert f.mul_table[x, 0] == 0

    def test_gf256_mul_matches_polynomial_oracle_exhaustively(self):
        f = build_field(8)
        a = np.arange(256)
        table = f.mul_table[a[:, None], a[None, :]]
        oracle = np.array(
            [[polymul_mod(x, y, f.poly, 8) for y in range(256)] for x in range(256)]
        )
        assert np.array_equal(table, oracle)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_fields_match_polynomial_oracle(self, m):
        f = build_field(m)
        for a in range(f.size):
            for b in range(f.size):
                assert f.mul_table[a, b] == polymul_mod(a, b, f.poly, m)

    def test_inverse_and_division(self):
        f = build_field(8)
        nz = np.arange(1, 256)
        assert np.all(f.mul_table[nz, f.inv_table[nz]] == 1)
        a = np.array([7, 130, 255])
        b = np.array([3, 99, 201])
        quotient = f.mul_table[a, f.inv_table[b]]
        assert np.all(f.mul_table[quotient, b] == a)

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_field_axioms_on_random_triples(self, m):
        f = build_field(m)
        mul = f.mul_table
        rng = np.random.default_rng(m)
        a, b, c = rng.integers(0, f.size, size=(3, 500))
        assert np.all(mul[a, b] == mul[b, a])
        assert np.all(mul[mul[a, b], c] == mul[a, mul[b, c]])
        assert np.all((a ^ b) ^ c == a ^ (b ^ c))
        assert np.all(mul[a, b ^ c] == mul[a, b] ^ mul[a, c])


class TestBits:
    def test_gf8_alpha5_bits(self):
        f = build_field(3)
        assert tuple(f.to_bits(f.exp_table[5])) == (1, 1, 1)

    def test_zero_maps_to_all_zero_bits(self):
        f = build_field(8)
        assert not f.to_bits(0).any()

    def test_all_gf256_symbols_round_trip(self):
        f = build_field(8)
        x = np.arange(256)
        assert np.array_equal(f.from_bits(f.to_bits(x)), x)

    def test_wrong_bit_length_rejected(self):
        f = build_field(4)
        with pytest.raises(ValueError):
            f.from_bits([1, 0, 1])

    def test_out_of_range_symbol_rejected(self):
        f = build_field(3)
        with pytest.raises(ValueError):
            f.to_bits(8)
