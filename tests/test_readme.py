"""The README's examples run as written."""

import json
import re
from pathlib import Path

from workloads import README_CONFIG

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(heading, lang):
    """The first ``lang`` code block of the README section ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example():
    namespace = {}
    exec(readme_block("Library example", "python"), namespace)
    ts, result = namespace["ts"], namespace["result"]
    # Poschl-Teller U0 = 6, alpha = 1: eps_n = -(3 - n)^2 / 2
    for n, exact in enumerate((-4.5, -2.0, -0.5)):
        assert ts.energy(n) == exact
        assert abs(result.energies[n] - exact) < 1e-3 * abs(exact)


def test_command_line_config_is_the_benchmark_config():
    assert json.loads(readme_block("Command line", "json")) == README_CONFIG
