"""Print, on one line, the md5 (first 12 hex digits) and exit code of six
reports, computed by the checkout this script is in:

    python tests/report_md5.py

The reports are ``pct verify`` on the README config, on the 27-run
``presets.COMBO_TABLE`` config and on that table's seven feasible q = 1 runs
with ``check_q1_reduction``; ``pct transform`` on the README config; and
``pct discrepancy`` on the README's coth-pt run and on criterion 9's audit
config.  A change meant to keep every report byte for byte prints the same
line as its parent.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from make_golden import configs  # noqa: E402
from pctsolve import cli  # noqa: E402

#: (report, subcommand, config name in ``make_golden.configs``)
REPORTS = (
    ("verify_readme", cli.cmd_verify, "readme"),
    ("verify_sweep", cli.cmd_verify, "sweep"),
    ("verify_q1", cli.cmd_verify, "q1"),
    ("transform_readme", cli.cmd_transform, "readme"),
    ("discrepancy_coth_pt", cli.cmd_discrepancy, "readme_coth_pt"),
    ("discrepancy_audit", cli.cmd_discrepancy, "audit"),
)


def main():
    docs = configs()
    fields = []
    for report, command, name in REPORTS:
        text, code = command(cli.load_config(json.dumps(docs[name])))
        fields.append(f"{report}={hashlib.md5(text.encode()).hexdigest()[:12]}:{code}")
    print(" ".join(fields))


if __name__ == "__main__":
    main()
