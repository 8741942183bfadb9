"""Flop accounting for MIMO detection and soft-output generation.

Costs follow the complex-flop convention: a real multiplication or
addition is 1 flop, a complex multiplication 3, a complex addition 1, an
inner product of length-N_r complex vectors 4 N_r - 1, a scalar-vector
multiplication N_r, and one exponential evaluation 50.
"""

from __future__ import annotations


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

