"""The benchmark's span tracer (perfbench/tracing.py) must still resolve and
hit every layer it reports on.  A refactor that renames or bypasses a traced
function would otherwise blind the per-layer breakdown without failing."""

import json
import sys

import tracing
from pctsolve import cli

#: one-run configs, each with the spans its run must hit
CASES = {
    # a built-in profile; no domain is given, so suggest_domain runs too
    "coth-pt": (
        {
            "mass": {"kind": "coth_sq", "alpha": 1.0, "q": 2.0},
            "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
        },
        (
            "cli.cmd_verify",
            "massmodel.mass_jet",
            "massmodel.forward",
            "pctengine.suggest_domain",
            "eigensolver.solve",
            "qmath.hyp",
        ),
    ),
    # the README's custom profile: the tabulated mapping and the jets
    "custom": (
        {
            "mass": {
                "kind": "custom",
                "expression": "1/(1 + a*x^2)",
                "parameters": {"a": 0.25},
                "domain": [-20.0, 20.0],
            },
            "reference": {"kind": "morse", "D": 8.0, "alpha": 1.0},
        },
        (
            "cli.cmd_verify",
            "exprlang.eval_jet",
            "massmodel.mapping_init",
            "massmodel.forward",
            "eigensolver.solve",
        ),
    ),
}


def _bindings():
    """Every module- and class-level binding in the loaded pctsolve modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "pctsolve" and not name.startswith("pctsolve."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    out[(name, attr, member)] = raw
    return out


def _check_traced_verify(name):
    """Run case ``name`` traced; its spans are hit, and uninstalling restores
    every binding."""
    run, hit_spans = CASES[name]
    run = {"name": name, **run, "grid": {"n_points": 2001, "levels": 3}}
    config = cli.load_config(json.dumps({"schema_version": 1, "runs": [run]}))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        text, code = cli.cmd_verify(config)
    finally:
        tracer.uninstall()
    assert json.loads(text)["runs"][0]["name"] == name
    spans = tracer.spans()
    for span in hit_spans:
        assert spans[span]["calls"] > 0, span
    run_spans = tracer.by_tag()[name]
    assert run_spans["eigensolver.solve"]["calls"] > 0
    assert run_spans["massmodel.mass_jet"]["calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_verify_hits_every_layer_and_uninstalls():
    _check_traced_verify("coth-pt")


def test_traced_custom_verify_hits_the_mapping_layers():
    _check_traced_verify("custom")
