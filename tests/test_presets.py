from conftest import DEFAULT_RUNS, PRESETS

from pctsolve import presets


class TestDefaultQ:
    """The nine default runs take each pair at q = 1, or at the pair's
    smallest feasible q where q = 1 is infeasible."""

    def test_default_combos_are_the_nine_pairs(self):
        # the default of each pair, read off COMBO_TABLE alone
        feasible_q = {}
        for spec in presets.COMBO_TABLE:
            if spec.feasible:
                feasible_q.setdefault((spec.profile_kind, spec.reference_kind), []).append(spec.q)
        names = []
        for spec in presets.COMBO_TABLE:
            qs = feasible_q.get((spec.profile_kind, spec.reference_kind), [])
            if spec.q == (1.0 if 1.0 in qs else min(qs, default=None)):
                names.append(spec.name)
        assert names == [
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
        assert tuple(names) == DEFAULT_RUNS

    def test_default_combos_are_feasible(self):
        feasible_q = {}
        for spec in presets.COMBO_TABLE:
            if spec.feasible:
                feasible_q.setdefault((spec.profile_kind, spec.reference_kind), []).append(spec.q)
        defaults = [PRESETS[name] for name in DEFAULT_RUNS]
        assert all(spec.feasible for spec in defaults)
        # one run per pair, in table order
        assert [(s.profile_kind, s.reference_kind) for s in defaults] == list(feasible_q)
        assert len(feasible_q) == len(presets.PROFILE_KINDS) * len(presets.REFERENCE_KINDS)
        for spec in defaults:
            qs = feasible_q[spec.profile_kind, spec.reference_kind]
            assert spec.q == (1.0 if 1.0 in qs else min(qs))
