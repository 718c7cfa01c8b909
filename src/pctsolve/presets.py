"""Canonical parameter sets: reference problems, mass profiles, and the
profile x reference combination table used by the verification suite and CLI.

Reference parameters are fixed (Morse D=8, a=1; Poeschl-Teller U0=6, a=1;
Hulthen V0=2, a=0.5).  For each mass-profile family and deformation q the
table records a mass rate constant, grid size, and (where the automatic
domain suggestion is not appropriate) an explicit solve domain, chosen so
the three lowest target states are resolved by the finite-difference solver.

Four combinations are structurally infeasible and marked so: for the
tanh_sq profile with q >= 1 the mapping y = ln(cosh_q(a x))/a only reaches
y > ln(sqrt(q))/a >= 0, but the Morse and Poeschl-Teller states always have
weight at y < 0, so no choice of domain reproduces their spectra — the
solver instead converges to the spectrum of the half-line problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .eigensolver import Grid
from .massmodel import BUILTIN_KINDS, MassProfile
from .pctengine import TargetSystem
from .refpotentials import REFERENCE_KINDS, make_reference

REFERENCE_PARAMS = {
    "morse": {"D": 8.0, "alpha": 1.0},
    "poschl_teller": {"U0": 6.0, "alpha": 1.0},
    "hulthen": {"V0": 2.0, "alpha": 0.5},
}

#: constant-mass verification grids for the three references
REFERENCE_GRIDS = {
    "morse": Grid(-3.5, 8.0, 8001),
    "poschl_teller": Grid(-12.0, 12.0, 8001),
    "hulthen": Grid(1e-8, 30.0, 8001),
}

PROFILE_KINDS = BUILTIN_KINDS
Q_VALUES = (0.5, 1.0, 2.0)

_TANH_HALF_LINE_REASON = (
    "mapping range is a half line missing y < 0 where the reference "
    "states live; the Dirichlet problem converges to a different spectrum"
)


@dataclass(frozen=True)
class ComboSpec:
    """One profile x reference verification run."""

    profile_kind: str
    reference_kind: str
    q: float
    mass_alpha: float
    n_points: int
    domain: Optional[tuple] = None  # explicit (x_min, x_max); else suggested
    feasible: bool = True
    reason: str = ""

    @property
    def name(self):
        return f"{self.profile_kind}-{self.reference_kind}-q{self.q:g}"

    def profile(self):
        return MassProfile(self.profile_kind, self.mass_alpha, self.q)

    def reference(self):
        return make_reference(self.reference_kind, **REFERENCE_PARAMS[self.reference_kind])

    def build(self):
        """The TargetSystem of this combination."""
        return TargetSystem.build(self.profile(), self.reference(), self.domain)


def _mass_alpha(profile_kind, reference_kind, q):
    if profile_kind == "asymptotically_vanishing":
        return 8.0
    if profile_kind == "tanh_sq":
        if reference_kind == "morse":
            return 0.1
        if reference_kind == "poschl_teller":
            return 0.034
        return 3.0e5 if q > 1.0 else 1.0
    return 1.0  # coth_sq


def _n_points(profile_kind, reference_kind):
    if reference_kind == "hulthen":
        return 40001
    if profile_kind == "asymptotically_vanishing":
        return {"morse": 20001, "poschl_teller": 30001}[reference_kind]
    return 20001


def _combo(profile_kind, reference_kind, q):
    alpha = _mass_alpha(profile_kind, reference_kind, q)
    n_points = _n_points(profile_kind, reference_kind)
    feasible, reason, domain = True, "", None
    if profile_kind == "tanh_sq":
        if reference_kind in ("morse", "poschl_teller") and q >= 1.0:
            feasible = False
            reason = _TANH_HALF_LINE_REASON
        elif reference_kind == "poschl_teller":
            # keep the lower wall off the mapping branch point: the suggested
            # edge y = ln(sqrt(q))/alpha makes the near-wall stencil unstable,
            # while the reference state has already decayed to ~1e-4 by y = -10
            domain = (-6.83, 38.5)
    return ComboSpec(
        profile_kind, reference_kind, q, alpha, n_points, domain, feasible, reason
    )


COMBO_TABLE = tuple(
    _combo(p, r, q) for p in PROFILE_KINDS for r in REFERENCE_KINDS for q in Q_VALUES
)

#: default q per combination for single-run checks (feasible everywhere)
DEFAULT_Q = {
    ("tanh_sq", "morse"): 0.5,
    ("tanh_sq", "poschl_teller"): 0.5,
}


def combo(profile_kind, reference_kind, q=None):
    """Look up a ComboSpec; q defaults to a feasible value per combination."""
    if q is None:
        q = DEFAULT_Q.get((profile_kind, reference_kind), 1.0)
    for spec in COMBO_TABLE:
        if (
            spec.profile_kind == profile_kind
            and spec.reference_kind == reference_kind
            and spec.q == q
        ):
            return spec
    raise KeyError((profile_kind, reference_kind, q))


def default_combos():
    """The nine profile x reference pairs at their default (feasible) q."""
    return tuple(combo(p, r) for p in PROFILE_KINDS for r in REFERENCE_KINDS)
