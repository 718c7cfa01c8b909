"""The profile x reference combination table, as data: the tests and the
benchmark workloads read its rows and write each as a config run, which
``cli.load_config`` and ``TargetSystem.build`` turn into a target like any
other run (the CLI reads configs, not presets).

Reference parameters are fixed (Morse D=8, a=1; Poeschl-Teller U0=6, a=1;
Hulthen V0=2, a=0.5).  One row per mass-profile family x reference pair
records a mass rate constant (per q where it differs), grid size, (where the
automatic domain suggestion is not appropriate) an explicit solve domain,
and the q at which the pair is infeasible, chosen so the three lowest target
states are resolved by the finite-difference solver.

Four combinations are structurally infeasible and marked so: for the
tanh_sq profile with q >= 1 the mapping y = ln(cosh_q(a x))/a only reaches
y > ln(sqrt(q))/a >= 0, but the Morse and Poeschl-Teller states always have
weight at y < 0, so no choice of domain reproduces their spectra — the
solver instead converges to the spectrum of the half-line problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .massmodel import BUILTIN_KINDS
from .refpotentials import REFERENCE_KINDS

REFERENCE_PARAMS = {
    "morse": {"D": 8.0, "alpha": 1.0},
    "poschl_teller": {"U0": 6.0, "alpha": 1.0},
    "hulthen": {"V0": 2.0, "alpha": 0.5},
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


#: one row per profile x reference pair: the mass alpha ({q: alpha} where
#: it differs by q), n_points, the explicit (x_min, x_max) at the feasible q
#: (None: suggested) and the q at which the pair is structurally infeasible
_PAIRS = {
    ("asymptotically_vanishing", "morse"): (8.0, 20001, None, ()),
    ("asymptotically_vanishing", "poschl_teller"): (8.0, 30001, None, ()),
    ("asymptotically_vanishing", "hulthen"): (8.0, 40001, None, ()),
    ("tanh_sq", "morse"): (0.1, 20001, None, (1.0, 2.0)),
    # keep the lower wall off the mapping branch point: the suggested edge
    # y = ln(sqrt(q))/alpha makes the near-wall stencil unstable, while the
    # reference state has already decayed to ~1e-4 by y = -10
    ("tanh_sq", "poschl_teller"): (0.034, 20001, (-6.83, 38.5), (1.0, 2.0)),
    ("tanh_sq", "hulthen"): ({0.5: 1.0, 1.0: 1.0, 2.0: 3.0e5}, 40001, None, ()),
    ("coth_sq", "morse"): (1.0, 20001, None, ()),
    ("coth_sq", "poschl_teller"): (1.0, 20001, None, ()),
    ("coth_sq", "hulthen"): (1.0, 40001, None, ()),
}


def _spec(profile_kind, reference_kind, q):
    alpha, n_points, domain, infeasible_q = _PAIRS[profile_kind, reference_kind]
    if isinstance(alpha, dict):
        alpha = alpha[q]
    spec = ComboSpec(profile_kind, reference_kind, q, alpha, n_points, domain)
    if q in infeasible_q:
        spec = replace(spec, domain=None, feasible=False, reason=_TANH_HALF_LINE_REASON)
    return spec


COMBO_TABLE = tuple(
    _spec(p, r, q) for p in PROFILE_KINDS for r in REFERENCE_KINDS for q in Q_VALUES
)
