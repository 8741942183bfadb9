import numpy as np
import pytest

from flop_audit import SIGMA2_N, audit_proposed
from nbmimo.channel import Constellation
from nbmimo.complexity import flop_ratio, flops_mmse, flops_proposed
from nbmimo.detect import soft_detect


class TestFormulas:
    def test_proposed_200_bpsk(self):
        detect, soft = flops_proposed(200, 2)
        assert detect == 199_800
        assert soft == 22_000
        assert detect + soft == 221_800

    def test_mmse_200_bpsk(self):
        detect, soft = flops_mmse(200, 2)
        assert detect == 80_220_300
        assert soft == 343_200
        assert detect + soft == 80_563_500

    def test_ratio_is_0_28_percent(self):
        assert flop_ratio(200, 2) == pytest.approx(0.0028, abs=5e-5)

    def test_unit_receive_antenna(self):
        assert flops_proposed(1, 2) == (4, 110)
        assert flops_mmse(1, 2) == (17, 124)


class TestProperties:
    @pytest.mark.parametrize("n_r", [1, 2, 8, 50, 200, 600])
    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_proposed_always_cheaper(self, n_r, m):
        assert sum(flops_proposed(n_r, m)) < sum(flops_mmse(n_r, m))

    def test_asymptotic_orders(self):
        # Detection scales quadratically for the proposed detector
        # (linearly per bit) and cubically for MMSE.
        assert flops_proposed(200, 2)[0] / flops_proposed(100, 2)[0] == pytest.approx(
            4.0, rel=0.01
        )
        assert flops_mmse(200, 2)[0] / flops_mmse(100, 2)[0] == pytest.approx(
            8.0, rel=0.01
        )


class TestAudit:
    def test_counts_match_formulas_at_n8(self):
        detect, soft, _, _ = audit_proposed(8, 2)
        want_detect, want_soft = flops_proposed(8, 2)
        assert detect == want_detect
        assert soft == want_soft

    @pytest.mark.parametrize("n_r,m", [(4, 2), (8, 4), (16, 2)])
    def test_counts_match_formulas(self, n_r, m):
        detect, soft, _, _ = audit_proposed(n_r, m)
        assert (detect, soft) == flops_proposed(n_r, m)

    def test_counted_detection_equals_production_kernel(self):
        rng = np.random.default_rng(3)
        _, _, s_hat, rows = audit_proposed(8, 2, rng=np.random.default_rng(3))
        h = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2)
        y = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
        points = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        assert np.allclose(s_hat, (h.conj().T @ y) / 8, atol=1e-12)
        assert np.all(rows > 0)
        # Normalized, the replayed rows are the production detector's.
        assert np.allclose(
            rows / rows.sum(axis=1, keepdims=True),
            soft_detect("mf-simplified", h, y, SIGMA2_N, Constellation(points, 1), 8),
            rtol=1e-9,
            atol=0,
        )
