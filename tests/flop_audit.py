"""Counting replay of simplified matched-filter detection.

Runs the detection and soft-output steps of `nbmimo.complexity.flops_proposed`
one primitive at a time and charges each executed operation its cost under
the module's convention, so the tests can check the closed forms against
operations actually executed and the replayed numbers against
`detect.soft_detect`'s simplified MF.
"""

import numpy as np

# Per-op costs.  An inner product of two length-n complex vectors costs
# 4 n - 1 and a scalar-vector multiplication n.
REAL_MUL = 1
COMPLEX_ADD = 1
SQUARED_NORM = 1
EXP = 50
SIGMA2_N = 0.25


class _CountingOps:
    """Arithmetic primitives that do the math and count its flops."""

    def __init__(self):
        self.flops = 0

    def scalar_vector(self, vec: np.ndarray, scale: float) -> np.ndarray:
        self.flops += len(vec)
        return vec * scale

    def inner_product(self, a: np.ndarray, b: np.ndarray) -> complex:
        self.flops += 4 * len(a) - 1
        return complex(a.conj() @ b)

    def complex_sub(self, a: complex, b: complex) -> complex:
        self.flops += COMPLEX_ADD
        return a - b

    def squared_norm(self, a: complex) -> float:
        self.flops += SQUARED_NORM
        return abs(a) ** 2

    def real_mul(self, a: float, b: float) -> float:
        self.flops += REAL_MUL
        return a * b

    def exp(self, a: float) -> float:
        self.flops += EXP
        return float(np.exp(a))


def audit_proposed(n_r: int, m_points: int, rng: np.random.Generator | None = None):
    """Run simplified MF detection through counted primitives.

    Draws h (N_r x N_r), y and the constellation points from `rng`, in that
    order, and returns (detect_flops, soft_flops, s_hat, likelihood_rows).
    """
    rng = rng or np.random.default_rng(0)
    n_t = n_r
    h = (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t)))
    h /= np.sqrt(2)
    y = (rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)) / np.sqrt(2)
    points = (
        rng.standard_normal(m_points) + 1j * rng.standard_normal(m_points)
    ) / np.sqrt(2)

    ops = _CountingOps()
    s_hat = np.empty(n_t, dtype=np.complex128)
    for k in range(n_t):
        w_k = ops.scalar_vector(h[:, k], 1.0 / n_r)
        s_hat[k] = ops.inner_product(w_k, y)  # w_k^H y
    detect_flops = ops.flops

    sigma2_k = SIGMA2_N / n_r
    inv_two_var = -1.0 / (2.0 * sigma2_k)
    norm = 1.0 / np.sqrt(2.0 * np.pi * sigma2_k)
    ops = _CountingOps()
    rows = np.empty((n_t, m_points))
    for k in range(n_t):
        for j in range(m_points):
            d = ops.complex_sub(s_hat[k], points[j])
            dist = ops.squared_norm(d)
            scaled = ops.real_mul(dist, inv_two_var)
            e = ops.exp(scaled)
            # prefactor and final scaling: two more real multiplications
            rows[k, j] = ops.real_mul(norm, ops.real_mul(1.0, e))
    soft_flops = ops.flops

    return detect_flops, soft_flops, s_hat, rows
