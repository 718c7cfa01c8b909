"""The benchmark's span tracer (perfbench/tracing.py) must still resolve and
hit every layer it reports on.  A refactor that renames or bypasses a traced
function would otherwise blind the per-layer breakdown without failing."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from pctsolve import cli  # noqa: E402

CONFIG = {
    "schema_version": 1,
    "runs": [
        {
            "name": "coth-pt",
            "mass": {"kind": "coth_sq", "alpha": 1.0, "q": 2.0},
            "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
            "grid": {"n_points": 2001, "levels": 3},
        }
    ],
}

#: spans the run must hit; no domain is given, so suggest_domain runs too
HIT_SPANS = (
    "cli.cmd_verify",
    "massmodel.mass_jet",
    "massmodel.forward",
    "pctengine.suggest_domain",
    "eigensolver.solve",
    "qmath.hyp",
)


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


def test_traced_verify_hits_every_layer_and_uninstalls():
    config = cli.load_config(json.dumps(CONFIG))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        text, code = cli.cmd_verify(config)
    finally:
        tracer.uninstall()
    assert json.loads(text)["runs"][0]["name"] == "coth-pt"
    spans = tracer.spans()
    for name in HIT_SPANS:
        assert spans[name]["calls"] > 0, name
    run_spans = tracer.by_tag()["coth-pt"]
    assert run_spans["eigensolver.solve"]["calls"] > 0
    assert run_spans["massmodel.mass_jet"]["calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
