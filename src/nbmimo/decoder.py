"""Probability-domain belief propagation over GF(2^m).

Messages are length-2^m probability vectors exchanged on the Tanner graph
under a flooding schedule.  Check-node updates run in the transform domain:
after rotating each incoming message by its edge coefficient, the check
constraint is a convolution over the additive group of GF(2^m), which the
Walsh-Hadamard transform diagonalizes (Barnault & Declercq, ITW 2003).
The transform uses Sylvester's construction H_q = H_r (x) H_c with
r = 2^floor(m/2) and c = q / r: read as an r x c matrix X, a length-q row
transforms to H_r X H_c.  That is one BLAS product over all rows with the
c x c matrix, then one batched product with the r x r matrix: 2(r + c)
flops per entry instead of the 2q of the dense q x q product, 64 instead
of 512 at q = 256.  The two products read the messages a fixed number of
times, where the O(m q) butterfly makes m strided passes with a temporary
array each.

Every message is floored at MSG_FLOOR and renormalized after each node
update, which keeps the iteration free of underflow absorbing states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from nbmimo.code import SparseParityMatrix, syndrome
from nbmimo.galois import FieldTable

MSG_FLOOR = 1e-30


class DecoderError(RuntimeError):
    """Raised when messages degenerate (NaN or zero-sum) during decoding."""


def _check_power_of_two(q: int) -> None:
    if q < 1 or q & (q - 1):
        raise ValueError(f"transform length must be a power of two, got {q}")


@cache
def _hadamard(q: int) -> np.ndarray:
    """Read-only q x q Sylvester-Hadamard matrix, H[u, x] = (-1)^popcount(u & x)."""
    _check_power_of_two(q)
    h = np.ones((1, 1))
    while len(h) < q:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def fwht(
    a: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (unnormalized).

    Self-inverse up to a factor of 2^m: fwht(fwht(x)) == len * x.  The
    length must be a power of two; any other length raises ValueError.
    `out` and `work`, when given, are C-contiguous float64 arrays of a's
    shape that receive the result and the first product; `out` may be
    `a` itself, since the second product reads only `work`.
    """
    a = np.asarray(a, dtype=np.float64)
    q = a.shape[-1]
    _check_power_of_two(q)
    out = np.empty(a.shape) if out is None else out
    work = np.empty(a.shape) if work is None else work
    # Row index x = x_r * c + x_c splits the bits of u & x between the factors.
    r = 1 << (q.bit_length() - 1) // 2
    c = q // r
    np.matmul(a.reshape(-1, c), _hadamard(c), out=work.reshape(-1, c))
    np.matmul(_hadamard(r), work.reshape(-1, r, c), out=out.reshape(-1, r, c))
    return out


def _leave_one_out_product(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-slot product over axis 0 excluding the slot itself, into out.

    `values` is slot-major, (d, n, q), so every slot is a contiguous (n, q)
    slab.  Slot j gets prefix (v_0 ... v_{j-1}) times suffix
    (v_{d-1} ... v_{j+1}), each multiplied in that order.  For a single slot
    the empty product is all-ones, which in the transform domain is exactly
    the delta-at-zero convolution identity.  The suffix accumulates in the
    last slot of `values`, which is left overwritten.
    """
    d = values.shape[0]
    out[0] = 1.0
    for j in range(1, d):
        np.multiply(out[j - 1], values[j - 1], out=out[j])
    suffix = values[d - 1]
    for j in range(d - 2, -1, -1):
        out[j] *= suffix
        if j:
            suffix *= values[j]
    return out


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Floor and renormalize each row of msgs in place."""
    np.maximum(msgs, MSG_FLOOR, out=msgs)
    msgs /= msgs.sum(axis=-1, keepdims=True)
    return msgs


class _BpGraph:
    """Edge bookkeeping for one parity-check matrix.

    Built once and cached on the matrix.  Node updates see the edges of
    each distinct node degree as one slot-major (degree, n_nodes, q)
    block, so the leave-one-out products vectorize for regular and
    irregular graphs alike.  Messages are stored in variable-slot order:
    every variable block is a contiguous run of rows, and variables are
    numbered block by block (`var_order`), so the variable update reads
    and writes whole slabs in place.  The check update works in
    check-slot order; two composed flat gathers move messages between the
    orders and apply the edge rotations, one pass each.

    The graph holds no mutable state, so any number of decodes may share
    it.  It keeps no reference to its matrix: the matrix caches the
    graph, and a back reference would make a cycle that only a full
    garbage collection frees.
    """

    def __init__(self, matrix: SparseParityMatrix, field: FieldTable):
        if matrix.m != field.m:
            raise ValueError("matrix and field disagree on m")
        self.field = field
        q = field.size
        self.q = q
        mt = field.mul_table
        coefs = matrix.edge_coef
        self.check_blocks, check_edges, _ = self._slot_order(
            matrix.edge_row, matrix.n_checks
        )
        self.var_blocks, var_edges, self.var_order = self._slot_order(
            matrix.edge_col, matrix.n_symbols
        )
        # var_rank[v]: row of variable v in var_order.
        self.var_rank = np.argsort(self.var_order)
        check_row = np.argsort(check_edges)
        var_row = np.argsort(var_edges)
        # Check-slot row r, entry x, reads entry c^{-1} x of the variable-slot
        # row of the same edge, c its coefficient; variable-slot row r,
        # entry x, reads entry c x of the edge's check-slot row.
        self.gather_in = (
            var_row[check_edges][:, None] * q + mt[field.inv_table[coefs[check_edges]]]
        ).ravel()
        self.gather_out = (
            check_row[var_edges][:, None] * q + mt[coefs[var_edges]]
        ).ravel()

    @staticmethod
    def _slot_order(owner: np.ndarray, n_nodes: int):
        """(blocks, edges, nodes) of the slot-major layout by owner node.

        A block (degree, first, n, start) holds nodes[first : first + n] in
        rows start .. start + degree * n: row start + j * n + i carries the
        j-th edge (in edge order) of node nodes[first + i].  edges[row] is
        the edge a row carries; nodes ends with the degree-0 nodes.
        """
        order = np.argsort(owner, kind="stable")
        degrees = np.bincount(owner, minlength=n_nodes)
        starts = np.concatenate(([0], np.cumsum(degrees)))
        blocks, edges, nodes = [], [], []
        first = row = 0
        for d in np.unique(degrees[degrees > 0]):
            members = np.flatnonzero(degrees == d)
            idx = starts[members][None, :] + np.arange(d)[:, None]
            edges.append(order[idx].ravel())
            nodes.append(members)
            blocks.append((int(d), first, len(members), row))
            first += len(members)
            row += d * len(members)
        nodes.append(np.flatnonzero(degrees == 0))
        return blocks, np.concatenate(edges), np.concatenate(nodes)

    def check_update(
        self, v2c: np.ndarray, c2v: np.ndarray, spectra: np.ndarray
    ) -> None:
        """c2v <- all check-to-variable messages from all v2c messages.

        The result is unnormalized.  `v2c` and `spectra` serve as work
        space and are left overwritten.
        """
        q = self.q
        np.take(v2c, self.gather_in, out=spectra.reshape(-1), mode="clip")
        fwht(spectra, out=spectra, work=c2v)
        for d, _, n, start in self.check_blocks:
            rows = slice(start, start + d * n)
            _leave_one_out_product(
                spectra[rows].reshape(d, n, q), v2c[rows].reshape(d, n, q)
            )
        conv = fwht(v2c, out=v2c, work=c2v)
        conv /= q
        np.take(conv, self.gather_out, out=c2v.reshape(-1), mode="clip")

    def var_update(
        self, c2v: np.ndarray, priors: np.ndarray, v2c: np.ndarray, post: np.ndarray
    ) -> None:
        """v2c and post <- new messages and posteriors, both normalized.

        `priors` and `post` are in var_order; `c2v` is left overwritten.
        Rows past the last block (unchecked variables, possible in
        hand-built matrices) are not written: their posterior is the prior.
        """
        q = self.q
        for d, first, n, start in self.var_blocks:
            rows = slice(start, start + d * n)
            p = priors[first : first + n]
            incoming = c2v[rows].reshape(d, n, q)
            node_post = post[first : first + n]
            np.multiply.reduce(incoming, axis=0, out=node_post)
            node_post *= p
            _normalize(node_post)
            out = _leave_one_out_product(incoming, v2c[rows].reshape(d, n, q))
            out *= p
            _normalize(v2c[rows])


def _graph_for(matrix: SparseParityMatrix, field: FieldTable) -> _BpGraph:
    cached = matrix._bp_graph
    if cached is None or cached.field is not field:
        cached = _BpGraph(matrix, field)
        matrix._bp_graph = cached
    return cached


@dataclass
class DecodeResult:
    hard: np.ndarray
    iterations_used: int
    converged: bool
    posteriors: np.ndarray | None = None


def decode(
    priors: np.ndarray,
    matrix: SparseParityMatrix,
    field: FieldTable,
    max_iterations: int,
    early_stop: bool = True,
    keep_posteriors: bool = False,
) -> DecodeResult:
    """Flooding BP; stops on a zero syndrome unless early_stop is disabled.

    The hard decision is the per-symbol posterior argmax with ties broken
    toward the lowest symbol value, so decoding is fully deterministic.
    `early_stop=False` runs out the full iteration budget, which tests use
    when comparing posteriors against exhaustive marginals.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (matrix.n_symbols, field.size):
        raise ValueError(
            f"priors must be ({matrix.n_symbols}, {field.size}), got {priors.shape}"
        )
    graph = _graph_for(matrix, field)
    # A C-ordered copy, so every row sum runs along contiguous memory.
    priors = _normalize(np.ascontiguousarray(priors)[graph.var_order])

    hard = priors.argmax(axis=1)[graph.var_rank]
    if early_stop and not syndrome(hard, matrix, field).any():
        return DecodeResult(
            hard, 0, True, priors[graph.var_rank] if keep_posteriors else None
        )

    # The message arrays and the posteriors are allocated once per decode,
    # so no BP iteration makes a message-sized array.
    v2c, c2v, spectra = (np.empty((matrix.n_edges, field.size)) for _ in range(3))
    for d, first, n, start in graph.var_blocks:
        v2c[start : start + d * n].reshape(d, n, -1)[...] = priors[first : first + n]
    post = priors.copy()
    converged = False
    iterations = max_iterations
    for it in range(1, max_iterations + 1):
        graph.check_update(v2c, c2v, spectra)
        _normalize(c2v)
        graph.var_update(c2v, priors, v2c, post)
        if not np.all(np.isfinite(post)):
            raise DecoderError(f"non-finite posterior at iteration {it}")
        hard = post.argmax(axis=1)[graph.var_rank]
        if early_stop and not syndrome(hard, matrix, field).any():
            converged = True
            iterations = it
            break
    else:
        converged = not syndrome(hard, matrix, field).any()

    return DecodeResult(
        hard, iterations, converged, post[graph.var_rank] if keep_posteriors else None
    )
