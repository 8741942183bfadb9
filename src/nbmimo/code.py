"""(2, d_c)-regular non-binary LDPC codes over GF(2^m).

Covers sparse parity-check matrix construction, full-rank verification,
systematic encoding via a precomputed parity map, syndrome evaluation, and
rate lowering below the base rate by multiplicative repetition (each coded
symbol retransmitted with independent nonzero field coefficients; the
receiver folds the copies back into a single prior so the base-rate Tanner
graph decodes unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from nbmimo.galois import FieldTable


# Full restarts `construct_regular` makes, and whole-matrix redraws
# `build_code_spec` makes, before giving up.
MAX_RESTARTS = 200
MAX_REDRAWS = 20


class CodeConstructionError(ValueError):
    """Raised when a parity-check matrix cannot be built as requested."""


class SparseParityMatrix:
    """Sparse parity-check matrix over GF(2^m) in edge-list form.

    Edges are stored sorted by (check, column).  Arbitrary degree profiles
    are accepted so hand-built test matrices work; `construct_regular`
    produces the (2, d_c)-regular matrices used by the shipped codes.
    """

    def __init__(self, m: int, n_checks: int, n_symbols: int, edges):
        edges = sorted(edges)
        if not edges:
            raise CodeConstructionError("matrix must have at least one edge")
        rows = np.array([e[0] for e in edges], dtype=np.int64)
        cols = np.array([e[1] for e in edges], dtype=np.int64)
        coefs = np.array([e[2] for e in edges], dtype=np.int64)
        if rows.min() < 0 or rows.max() >= n_checks:
            raise CodeConstructionError("edge row index out of range")
        if cols.min() < 0 or cols.max() >= n_symbols:
            raise CodeConstructionError("edge column index out of range")
        if np.any(coefs <= 0) or np.any(coefs >= (1 << m)):
            raise CodeConstructionError("edge coefficients must be nonzero field elements")
        if len({(r, c) for r, c, _ in edges}) != len(edges):
            raise CodeConstructionError("duplicate (row, col) edge")

        self.m = m
        self.n_checks = n_checks
        self.n_symbols = n_symbols
        self.edge_row = rows
        self.edge_col = cols
        self.edge_coef = coefs

        counts = np.bincount(rows, minlength=n_checks)
        if np.any(counts == 0):
            raise CodeConstructionError("every check must touch at least one symbol")
        self.row_ptr = np.concatenate(([0], np.cumsum(counts)))
        self.row_weights = counts
        self.col_weights = np.bincount(cols, minlength=n_symbols)
        self._bp_graph = None  # decoder attaches its cached structure here

    @property
    def n_edges(self) -> int:
        return len(self.edge_row)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n_checks, self.n_symbols), dtype=np.int64)
        a[self.edge_row, self.edge_col] = self.edge_coef
        return a


def syndrome(x, matrix: SparseParityMatrix, field: FieldTable) -> np.ndarray:
    """A x^T over GF(2^m); zero vector iff x is a codeword."""
    x = np.asarray(x)
    if x.shape[-1] != matrix.n_symbols:
        raise ValueError(
            f"expected {matrix.n_symbols} symbols, got {x.shape[-1]}"
        )
    prod = field.mul_table[matrix.edge_coef, x[..., matrix.edge_col]]
    return np.bitwise_xor.reduceat(prod, matrix.row_ptr[:-1], axis=-1)


def construct_regular(
    n_symbols: int, d_c: int, field: FieldTable, seed: int
) -> SparseParityMatrix:
    """Random (d_v=2, d_c)-regular matrix, 4-cycle free, deterministic per seed.

    Columns are assigned row pairs drawn from the remaining row capacity,
    rejecting duplicate pairs so no two columns ever share two rows.  A
    stuck endgame triggers a full restart with fresh randomness from the
    same seeded stream.
    """
    if (2 * n_symbols) % d_c != 0:
        raise CodeConstructionError(
            f"2N = {2 * n_symbols} not divisible by d_c = {d_c}"
        )
    n_checks = 2 * n_symbols // d_c
    if n_checks < 2:
        raise CodeConstructionError("need at least two checks for weight-2 columns")
    max_pairs = n_checks * (n_checks - 1) // 2
    if n_symbols > max_pairs:
        raise CodeConstructionError(
            f"no 4-cycle-free assignment exists: {n_symbols} columns but only "
            f"{max_pairs} distinct row pairs; increase N or d_c"
        )

    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESTARTS):
        budget = np.full(n_checks, d_c, dtype=np.int64)
        used_pairs: set[tuple[int, int]] = set()
        col_rows = np.empty((n_symbols, 2), dtype=np.int64)
        ok = True
        for v in range(n_symbols):
            placed = False
            for _try in range(64):
                avail = np.flatnonzero(budget > 0)
                if avail.size < 2:
                    break
                w = budget[avail].astype(np.float64)
                r1 = int(rng.choice(avail, p=w / w.sum()))
                others = avail[avail != r1]
                w2 = budget[others].astype(np.float64)
                r2 = int(rng.choice(others, p=w2 / w2.sum()))
                pair = (min(r1, r2), max(r1, r2))
                if pair in used_pairs:
                    continue
                used_pairs.add(pair)
                budget[r1] -= 1
                budget[r2] -= 1
                col_rows[v] = pair
                placed = True
                break
            if not placed:
                ok = False
                break
        if not ok:
            continue
        coefs = rng.integers(1, field.size, size=2 * n_symbols)
        edges = []
        for v in range(n_symbols):
            edges.append((int(col_rows[v, 0]), v, int(coefs[2 * v])))
            edges.append((int(col_rows[v, 1]), v, int(coefs[2 * v + 1])))
        return SparseParityMatrix(field.m, n_checks, n_symbols, edges)

    raise CodeConstructionError(
        f"failed to place {n_symbols} 4-cycle-free columns after "
        f"{MAX_RESTARTS} restarts; a larger N usually fixes this"
    )


def _reduced_row_echelon(a: np.ndarray, field: FieldTable):
    """Gauss-Jordan elimination in place; returns (rank, pivot column list)."""
    mul = field.mul_table
    inv = field.inv_table
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(a[r:, c]) + r
        if nz.size == 0:
            continue
        if nz[0] != r:
            a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = mul[inv[a[r, c]], a[r]]
        targets = np.flatnonzero(a[:, c])
        targets = targets[targets != r]
        if targets.size:
            a[targets] ^= mul[a[targets, c][:, None], a[r][None, :]]
        pivots.append(c)
        r += 1
    return r, pivots


@dataclass
class CodeSpec:
    """A ready-to-use code: field, matrix, systematic encoder, repetition.

    `info_cols` lists the columns carrying information symbols, `parity_map`
    is the dense P x K matrix giving parity symbols from information
    symbols, and `repeat_coefs` has shape (repeat_factor, N) with the first
    row fixed to 1 (the plain transmission); by default it is that row
    alone.
    """

    field: FieldTable
    matrix: SparseParityMatrix
    info_cols: np.ndarray
    parity_cols: np.ndarray
    parity_map: np.ndarray
    repeat_coefs: np.ndarray | None = None
    construction_seed: int | None = None

    def __post_init__(self):
        if self.repeat_coefs is None:
            self.repeat_coefs = np.ones((1, self.matrix.n_symbols), dtype=np.int64)

    @property
    def repeat_factor(self) -> int:
        return len(self.repeat_coefs)

    @property
    def n_symbols(self) -> int:
        return self.matrix.n_symbols

    @property
    def k_symbols(self) -> int:
        return self.matrix.n_symbols - self.matrix.n_checks

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k_symbols, self.n_symbols * self.repeat_factor)

    @property
    def n_transmit_symbols(self) -> int:
        return self.n_symbols * self.repeat_factor

    @property
    def k_bits(self) -> int:
        return self.field.m * self.k_symbols

    def encode(self, info) -> np.ndarray:
        """Codeword of length N with info symbols at the systematic columns.

        Accepts a single frame (K,) or a batch (..., K).
        """
        info = np.asarray(info)
        if info.shape[-1] != self.k_symbols:
            raise ValueError(f"expected {self.k_symbols} info symbols")
        mt = self.field.mul_table
        prods = mt[self.parity_map, info[..., None, :]]
        parity = np.bitwise_xor.reduce(prods, axis=-1)
        x = np.zeros(info.shape[:-1] + (self.n_symbols,), dtype=np.int64)
        x[..., self.info_cols] = info
        x[..., self.parity_cols] = parity
        return x

    def expand(self, codeword: np.ndarray) -> np.ndarray:
        """Coefficient-rotated repetition stream of length repeat_factor * N."""
        mt = self.field.mul_table
        return np.concatenate([mt[g, codeword] for g in self.repeat_coefs])

    def fold_priors(self, priors: np.ndarray) -> np.ndarray:
        """Combine per-copy symbol priors into base-codeword priors.

        `priors` has one row per transmitted symbol (repeat_factor * N rows).
        Copy c observed g_c * x, so its evidence about x is the row permuted
        by g_c; copies multiply and the result is renormalized.
        """
        n = self.n_symbols
        if priors.shape[0] != self.repeat_factor * n:
            raise ValueError("prior block does not match repetition layout")
        mt = self.field.mul_table
        acc = np.ones((n, priors.shape[1]))
        for c, g in enumerate(self.repeat_coefs):
            block = priors[c * n : (c + 1) * n]
            acc *= np.take_along_axis(block, mt[g], axis=1)
        acc /= acc.sum(axis=1, keepdims=True)
        return acc


def build_code_spec(n_symbols: int, d_c: int, field: FieldTable, seed: int) -> CodeSpec:
    """Construct a full-rank (2, d_c)-regular code, redrawing if necessary.

    Rank deficiency is resolved by redrawing the whole matrix (keeping the
    rate exact) rather than deleting rows.  The redraw count is folded into
    the seed so the result stays deterministic.
    """
    for attempt in range(MAX_REDRAWS):
        matrix = construct_regular(n_symbols, d_c, field, seed + 1_000_003 * attempt)
        dense = matrix.to_dense()
        work = dense.copy()
        rank, pivots = _reduced_row_echelon(work, field)
        if rank < matrix.n_checks:
            continue
        parity_cols = np.array(pivots, dtype=np.int64)
        mask = np.ones(n_symbols, dtype=bool)
        mask[parity_cols] = False
        info_cols = np.flatnonzero(mask)
        # After Gauss-Jordan, row r reads x[pivot_r] = sum over free columns,
        # since -1 = 1 in characteristic 2.
        parity_map = work[:, info_cols]
        return CodeSpec(
            field=field,
            matrix=matrix,
            info_cols=info_cols,
            parity_cols=parity_cols,
            parity_map=parity_map,
            construction_seed=seed,
        )
    raise CodeConstructionError(
        f"could not draw a full-rank matrix in {MAX_REDRAWS} attempts"
    )


def lower_rate(spec: CodeSpec, target_rate: Fraction) -> CodeSpec:
    """Derive a lower-rate spec by multiplicative repetition.

    target_rate must equal base_rate / t for an integer t >= 1.  Copy 0 is
    the plain codeword; copies 1..t-1 carry independent uniform nonzero
    coefficients per symbol, drawn from the construction seed plus
    7_777_777.  The Tanner graph is unchanged, so decoding cost stays that
    of the base code.
    """
    base = Fraction(spec.k_symbols, spec.n_symbols)
    t = base / Fraction(target_rate)
    if t.denominator != 1 or t.numerator < 1:
        raise ValueError(
            f"target rate {target_rate} is not base rate {base} divided by an integer"
        )
    t = int(t)
    if t == 1:
        return spec
    rng = np.random.default_rng((spec.construction_seed or 0) + 7_777_777)
    coefs = np.ones((t, spec.n_symbols), dtype=np.int64)
    coefs[1:] = rng.integers(1, spec.field.size, size=(t - 1, spec.n_symbols))
    return replace(spec, repeat_coefs=coefs)
