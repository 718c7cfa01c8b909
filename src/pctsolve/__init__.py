"""Exactly solvable position-dependent-mass quantum systems.

A point canonical transformation maps exactly solvable constant-mass
references (Morse, Poeschl-Teller, Hulthen) onto problems with a
position-dependent mass, preserving the bound-state spectrum.  An
independent finite-difference eigensolver verifies the construction.
"""

from .eigensolver import (
    Grid,
    overlap,
    residual_norm,
    solve_constant_mass,
    solve_effective_mass,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DomainError,
    ExprSyntaxError,
    GridMismatchError,
    PctError,
    PoleError,
    RangeOverflowError,
    UnboundParameterError,
    UnknownFunctionError,
)
from .massmodel import MappingFunction, MassProfile
from .pctengine import (
    TargetSystem,
    pct_identity_residual,
    printed_target_potential,
    suggest_domain,
    verify,
)
from .refpotentials import Hulthen, Morse, PoschlTeller

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "ConfigError",
    "DomainError",
    "ExprSyntaxError",
    "Grid",
    "GridMismatchError",
    "Hulthen",
    "MappingFunction",
    "MassProfile",
    "Morse",
    "PctError",
    "PoleError",
    "PoschlTeller",
    "RangeOverflowError",
    "TargetSystem",
    "UnboundParameterError",
    "UnknownFunctionError",
    "overlap",
    "pct_identity_residual",
    "printed_target_potential",
    "residual_norm",
    "solve_constant_mass",
    "solve_effective_mass",
    "suggest_domain",
    "verify",
]
