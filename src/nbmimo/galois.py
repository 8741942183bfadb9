"""GF(2^m) arithmetic backed by log/antilog tables.

Field elements are integers in [0, 2^m).  Bit i of the integer is the
coefficient of alpha^i in the polynomial basis, so the bit sequence of an
element reads least-significant coefficient first: the multiplicative
identity 1 is (1, 0, ..., 0).

Tables are built once per field and are immutable afterwards, so a single
FieldTable can be shared freely across concurrent workers.
"""

from __future__ import annotations

import numpy as np

# Primitive polynomials per extension degree, as bit masks including the
# leading x^m term.  The m=8 entry is x^8 + x^4 + x^3 + x^2 + 1.
DEFAULT_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}


class FieldConstructionError(ValueError):
    """Raised for an extension degree outside [2, 8]."""


class FieldTable:
    """Arithmetic over GF(2^m), 2 <= m <= 8, reduced modulo the built-in
    primitive polynomial `DEFAULT_PRIMITIVE_POLY[m]` (kept as `poly`)."""

    def __init__(self, m: int):
        if not 2 <= m <= 8:
            raise FieldConstructionError(f"extension degree must be in [2, 8], got {m}")
        self.m = m
        self.poly = poly = DEFAULT_PRIMITIVE_POLY[m]
        self.size = q = 1 << m

        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= poly

        self.exp_table = exp
        self.log_table = log

        # Dense multiplication table: mul_table[a, b] = a*b.  Row a of the
        # table doubles as the permutation x -> a*x used by the decoder.
        lo = log[1:]
        prod = exp[(lo[:, None] + lo[None, :]) % (q - 1)]
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = prod
        self.mul_table = mul
        self.mul_table.setflags(write=False)

        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(-lo) % (q - 1)]
        self.inv_table = inv
        self.inv_table.setflags(write=False)
        self.exp_table.setflags(write=False)
        self.log_table.setflags(write=False)

    # -- bit representation ----------------------------------------------

    def to_bits(self, x) -> np.ndarray:
        """m-bit representation, least-significant coefficient first."""
        x = np.asarray(x)
        if np.any(x >= self.size) or np.any(x < 0):
            raise ValueError("symbol out of field range")
        shifts = np.arange(self.m)
        return (x[..., None] >> shifts) & 1

    def from_bits(self, bits) -> np.ndarray | int:
        bits = np.asarray(bits)
        if bits.shape[-1] != self.m:
            raise ValueError(f"expected {self.m} bits, got {bits.shape[-1]}")
        weights = 1 << np.arange(self.m)
        val = (bits * weights).sum(axis=-1)
        return int(val) if val.ndim == 0 else val

    def __repr__(self) -> str:
        return f"FieldTable(m={self.m}, poly=0x{self.poly:x})"


def build_field(m: int) -> FieldTable:
    """Build GF(2^m) tables; raises FieldConstructionError unless 2 <= m <= 8."""
    return FieldTable(m)
