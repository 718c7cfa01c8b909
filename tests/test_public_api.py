"""The package's public surface changes only on purpose: a name added to or
dropped from ``pctsolve.__all__`` must be added to or dropped from this list
too."""

import pctsolve

PUBLIC = [
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


def test_all_is_the_pinned_list():
    assert pctsolve.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from pctsolve import *", namespace)
    missing = [name for name in PUBLIC if name not in namespace]
    assert missing == []
