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


def fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (unnormalized).

    Self-inverse up to a factor of 2^m: fwht(fwht(x)) == len * x.  The
    length must be a power of two; any other length raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    q = a.shape[-1]
    _check_power_of_two(q)
    # Row index x = x_r * c + x_c splits the bits of u & x between the factors.
    r = 1 << (q.bit_length() - 1) // 2
    c = q // r
    y = a.reshape(-1, c) @ _hadamard(c)
    return np.matmul(_hadamard(r), y.reshape(-1, r, c)).reshape(a.shape)


def _leave_one_out_product(values: np.ndarray) -> np.ndarray:
    """Per-slot product over axis 0 excluding the slot itself.

    `values` is slot-major, (d, n, q), so every slot is a contiguous (n, q)
    slab.  Slot j gets prefix (v_0 ... v_{j-1}) times suffix
    (v_{d-1} ... v_{j+1}), each multiplied in that order.  For a single slot
    the empty product is all-ones, which in the transform domain is exactly
    the delta-at-zero convolution identity.
    """
    d = values.shape[0]
    out = np.empty_like(values)
    out[0] = 1.0
    for j in range(1, d):
        np.multiply(out[j - 1], values[j - 1], out=out[j])
    suffix = values[d - 1].copy()
    for j in range(d - 2, -1, -1):
        out[j] *= suffix
        if j:
            suffix *= values[j]
    return out


def _normalize(msgs: np.ndarray) -> np.ndarray:
    msgs = np.maximum(msgs, MSG_FLOOR)
    msgs /= msgs.sum(axis=-1, keepdims=True)
    return msgs


class _BpGraph:
    """Edge bookkeeping for one parity-check matrix, built once and cached.

    Edges live in check-major order.  Node updates gather edges into
    slot-major (degree, n_nodes, q) blocks, one block per distinct degree, so
    the leave-one-out products vectorize for regular and irregular graphs
    alike.  The graph keeps no reference to its matrix: the matrix caches the
    graph, and a back reference would make a cycle that only a full garbage
    collection frees.
    """

    def __init__(self, matrix: SparseParityMatrix, field: FieldTable):
        if matrix.m != field.m:
            raise ValueError("matrix and field disagree on m")
        self.field = field
        q = field.size
        coefs = matrix.edge_coef
        # Flat gather indices into an (n_edges, q) message array implementing
        # x -> h*x and x -> h^{-1}*x per edge.
        base = np.arange(matrix.n_edges)[:, None] * q
        self.gather_fwd = (base + field.mul_table[coefs]).ravel()
        self.gather_inv = (base + field.mul_table[field.inv_table[coefs]]).ravel()
        self.edge_var = matrix.edge_col

        self.check_groups = self._degree_groups(matrix.edge_row, matrix.n_checks)
        self.var_groups = self._degree_groups(matrix.edge_col, matrix.n_symbols)
        self.q = q

    @staticmethod
    def _degree_groups(owner: np.ndarray, n_nodes: int):
        """[(node_ids, edge indices of shape (degree, n_nodes))] per distinct degree."""
        order = np.argsort(owner, kind="stable")
        degrees = np.bincount(owner, minlength=n_nodes)
        starts = np.concatenate(([0], np.cumsum(degrees)))
        groups = []
        for d in np.unique(degrees):
            if d == 0:
                continue
            nodes = np.flatnonzero(degrees == d)
            idx = starts[nodes][:, None] + np.arange(d)[None, :]
            groups.append((nodes, np.ascontiguousarray(order[idx].T)))
        return groups

    def check_update(self, v2c: np.ndarray) -> np.ndarray:
        """All check-to-variable messages from all variable-to-check messages."""
        f = fwht(v2c.take(self.gather_inv).reshape(v2c.shape))
        g = np.empty_like(f)
        for _, idx in self.check_groups:
            g[idx.ravel()] = _leave_one_out_product(f[idx]).reshape(-1, self.q)
        conv = fwht(g)
        conv /= self.q
        return conv.take(self.gather_fwd).reshape(conv.shape)

    def var_update(self, c2v: np.ndarray, priors: np.ndarray):
        """Returns (new v2c messages, posteriors), both normalized.

        Unchecked variables (degree 0, possible in hand-built matrices)
        keep their prior as posterior.
        """
        v2c = np.empty_like(c2v)
        post = priors.copy()
        for nodes, idx in self.var_groups:
            p = priors[nodes]
            incoming = c2v[idx]
            v2c[idx.ravel()] = _normalize(
                (p * _leave_one_out_product(incoming)).reshape(-1, self.q)
            )
            post[nodes] = _normalize(p * incoming.prod(axis=0))
        return v2c, post


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
    priors = _normalize(priors.copy())

    hard = priors.argmax(axis=1)
    if early_stop and not syndrome(hard, matrix, field).any():
        return DecodeResult(
            hard, 0, True, priors if keep_posteriors else None
        )

    v2c = priors[graph.edge_var].copy()
    post = priors
    converged = False
    iterations = max_iterations
    for it in range(1, max_iterations + 1):
        c2v = _normalize(graph.check_update(v2c))
        v2c, post = graph.var_update(c2v, priors)
        if not np.all(np.isfinite(post)):
            raise DecoderError(f"non-finite posterior at iteration {it}")
        hard = post.argmax(axis=1)
        if early_stop and not syndrome(hard, matrix, field).any():
            converged = True
            iterations = it
            break
    else:
        converged = not syndrome(hard, matrix, field).any()

    return DecodeResult(
        hard, iterations, converged, post if keep_posteriors else None
    )
