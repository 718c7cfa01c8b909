import pytest

from pctsolve import presets


class TestDefaultQ:
    """combo() without q takes q = 1, or the pair's smallest feasible q."""

    def test_default_combos_are_the_nine_pairs(self):
        assert [spec.name for spec in presets.default_combos()] == [
            "asymptotically_vanishing-morse-q1",
            "asymptotically_vanishing-poschl_teller-q1",
            "asymptotically_vanishing-hulthen-q1",
            "tanh_sq-morse-q0.5",
            "tanh_sq-poschl_teller-q0.5",
            "tanh_sq-hulthen-q1",
            "coth_sq-morse-q1",
            "coth_sq-poschl_teller-q1",
            "coth_sq-hulthen-q1",
        ]

    def test_default_combos_are_feasible(self):
        assert all(spec.feasible for spec in presets.default_combos())

    def test_infeasible_at_q1_takes_the_smallest_feasible_q(self):
        spec = presets.combo("tanh_sq", "morse")
        assert spec is presets.combo("tanh_sq", "morse", 0.5)
        assert spec.q == 0.5 and spec.feasible
        assert not presets.combo("tanh_sq", "morse", 1.0).feasible

    def test_unknown_combination(self):
        with pytest.raises(KeyError):
            presets.combo("tanh_sq", "morse", 3.0)
        with pytest.raises(KeyError):
            presets.combo("custom", "morse")
