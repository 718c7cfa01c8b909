"""Write tests/golden.json: the report values that tests/test_golden.py
holds the program to.

    PYTHONPATH=src python tests/make_golden.py

The values are ``pct verify``'s on the README config and on the 27-run
``presets.COMBO_TABLE`` config (each run's pass flag, numerical energies and
their rel errors, Gram matrix and residual norms), its
``q1_reduction_max_dev`` on the seven feasible q = 1 runs of that table,
every 1 000th row of ``pct transform`` on the README config, and
``pct discrepancy``'s on criterion 9's audit config (each run's verdict and
max deviation).  Regenerate the file only for a change that is meant to move
a report, and say which values moved and why.
"""

import json
from pathlib import Path

from conftest import preset_run  # also puts perfbench on sys.path
from pctsolve import cli, presets
from test_acceptance import _audit_config
from workloads import README_CONFIG

GOLDEN = Path(__file__).resolve().with_name("golden.json")

#: the stride of the sampled ``pct transform`` rows
TRANSFORM_STRIDE = 1000


def _config(runs):
    return {"schema_version": 1, "runs": runs}


def configs():
    """The config documents the reports are taken on, by name."""
    sweep = [preset_run(spec) for spec in presets.COMBO_TABLE]
    q1 = [
        dict(run, check_q1_reduction=True)
        for run, spec in zip(sweep, presets.COMBO_TABLE)
        if spec.q == 1.0 and spec.feasible
    ]
    return {
        "readme": README_CONFIG,
        "sweep": _config(sweep),
        "q1": _config(q1),
        "readme_coth_pt": _config(README_CONFIG["runs"][:1]),
        "audit": _audit_config(),
    }


def _verify(config):
    text, _ = cli.cmd_verify(config)
    return [
        {
            "name": run["name"],
            "pass": run["pass"],
            "energies": [level["numerical"] for level in run["levels"]],
            "rel_errors": [level["rel_error"] for level in run["levels"]],
            "gram": run["orthonormality"],
            "residuals": run["residual_norms"],
        }
        for run in json.loads(text)["runs"]
    ]


def _q1_reduction(config):
    text, _ = cli.cmd_verify(config)
    return [
        {"name": run["name"], "q1_reduction_max_dev": run["q1_reduction_max_dev"]}
        for run in json.loads(text)["runs"]
    ]


def _transform(config):
    text, _ = cli.cmd_transform(config)
    runs = []
    for line in text.splitlines():
        if line.startswith("# run: "):
            runs.append({"name": line.removeprefix("# run: "), "rows": []})
            row = 0
        elif not line.startswith(("#", "x,")):
            if row % TRANSFORM_STRIDE == 0:
                runs[-1]["rows"].append([float(c) for c in line.split(",")])
            row += 1
    return runs


def _discrepancy(config):
    text, _ = cli.cmd_discrepancy(config)
    runs = []
    for line in text.splitlines():
        if line.startswith("# run: "):
            name = line.removeprefix("# run: ")
        elif line.startswith("# verdict: "):
            verdict, dev = line.removeprefix("# verdict: ").split(" max_deviation=")
            runs.append({"name": name, "verdict": verdict, "max_deviation": float(dev)})
    return runs


def reports():
    """The compared values of the reports, as golden.json holds them."""
    docs = {name: cli.load_config(json.dumps(doc)) for name, doc in configs().items()}
    return {
        "verify_readme": _verify(docs["readme"]),
        "verify_sweep": _verify(docs["sweep"]),
        "verify_q1_reduction": _q1_reduction(docs["q1"]),
        "transform_readme": _transform(docs["readme"]),
        "discrepancy_audit": _discrepancy(docs["audit"]),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n")
