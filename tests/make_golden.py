"""Write tests/golden.json: the report values that tests/test_golden.py
holds the program to.

    PYTHONPATH=src python tests/make_golden.py

The values are ``pct verify``'s on the README config and on the 27-run
``presets.COMBO_TABLE`` config (each run's pass flag, numerical energies,
Gram matrix and residual norms) and ``pct discrepancy``'s on criterion 9's
audit config (each run's verdict and max deviation).  Regenerate the file
only for a change that is meant to move a report, and say which values
moved and why.
"""

import json
from pathlib import Path

import conftest  # noqa: F401  (puts perfbench on sys.path, for workloads)
from pctsolve import cli
from test_acceptance import _audit_config
from workloads import README_CONFIG, WORKLOADS

GOLDEN = Path(__file__).resolve().with_name("golden.json")


def _verify(config):
    text, _ = cli.cmd_verify(config)
    return [
        {
            "name": run["name"],
            "pass": run["pass"],
            "energies": [level["numerical"] for level in run["levels"]],
            "gram": run["orthonormality"],
            "residuals": run["residual_norms"],
        }
        for run in json.loads(text)["runs"]
    ]


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
    """The compared values of the three reports, as golden.json holds them."""
    return {
        "verify_readme": _verify(cli.load_config(json.dumps(README_CONFIG))),
        "verify_sweep": _verify(WORKLOADS["sweep_verify"].setup(0)["config"]),
        "discrepancy_audit": _discrepancy(cli.load_config(json.dumps(_audit_config()))),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n")
