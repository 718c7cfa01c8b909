import collections
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import DEFAULT_RUNS, PRESETS, bisect_log, count_log, load_runs, preset_run
from scipy.linalg import eigvalsh_tridiagonal

from pctsolve import cli, eigensolver, exprlang, pctengine, presets
from pctsolve.errors import ConfigError
from pctsolve.massmodel import MappingFunction, MassProfile
from pctsolve.refpotentials import PoschlTeller
from workloads import README_CONFIG


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def basic_run(**overrides):
    run = {
        "name": "asym-morse",
        "mass": {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0},
        "reference": {"kind": "morse", "D": 8.0, "alpha": 1.0},
        "grid": {"n_points": 20001, "levels": 3},
    }
    run.update(overrides)
    return run


def basic_config(**overrides):
    return {"schema_version": 1, "runs": [basic_run(**overrides)]}


#: the two runs of the README's "Command line" config (see test_readme.py)
README_RUNS = README_CONFIG["runs"]


def run_module(*argv):
    """``python -W error -m pctsolve.cli *argv`` in a child process: main's
    return value reaches the shell through ``sys.exit(main())``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "pctsolve.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )


class TestConfigValidation:
    def test_field_path_in_diagnostics(self):
        with pytest.raises(ConfigError, match=r"runs\[0\]\.mass\.alpha"):
            cli.load_config(
                json.dumps(basic_config(mass={"kind": "asymptotically_vanishing", "alpha": 0}))
            )
        with pytest.raises(ConfigError, match=r"runs\[0\]\.reference\.D"):
            cli.load_config(
                json.dumps(basic_config(reference={"kind": "morse", "alpha": 1.0}))
            )
        with pytest.raises(ConfigError, match="schema_version"):
            cli.load_config(json.dumps({"runs": []}))
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli.load_config("{")

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match=r"tolerances\.energy"):
            cli.load_config(json.dumps(basic_config(tolerances={"energy": 1e-3})))

    @pytest.mark.parametrize(
        "mass",
        [
            {"kind": "tanh_sq", "alpha": 0.1, "q": 0.5},
            {"kind": "custom", "expression": "1/(1 + x^2)", "domain": [-6.0, 6.0]},
        ],
        ids=["q0.5", "custom"],
    )
    def test_q1_check_needs_a_builtin_profile_at_q1(self, tmp_path, capsys, monkeypatch, mass):
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run with an invalid config")

        monkeypatch.setattr(cli, "verify", refuse)
        cfg = write_config(tmp_path, basic_config(mass=mass, check_q1_reduction=True))
        assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert "config.runs[0].check_q1_reduction" in err
        assert "q = 1" in err

    def test_more_levels_than_interior_points(self, tmp_path):
        # 40 levels of a Morse well with 100 bound states on a 16-point grid
        doc = basic_config(
            reference={"kind": "morse", "D": 5000.0, "alpha": 1.0},
            grid={"n_points": 16, "levels": 40},
        )
        cfg = write_config(tmp_path, doc)
        out = run_module("verify", cfg)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: config.runs[0].grid.levels:"), out.stderr
        assert "Warning" not in out.stderr
        # levels the reference does not have are not checked
        doc["runs"][0]["reference"]["D"] = 8.0
        assert len(cli.load_config(json.dumps(doc))["runs"]) == 1

    def test_document_roundtrip_is_stable(self):
        doc = basic_config()
        assert json.loads(json.dumps(doc)) == doc

    @pytest.mark.parametrize(
        "literal",
        [
            ('"energy_rel": 0.001', '"energy_rel": NaN'),
            ('"q": 1.0', '"q": 1e400'),
            ('"q": 1.0', '"q": -Infinity'),
            ('"D": 8.0', '"D": 1e400'),
            ('"D": 8.0', '"D": 1' + "0" * 400),
        ],
        ids=["nan-tolerance", "q-1e400", "q-minus-infinity", "D-1e400", "D-huge-int"],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, literal):
        # json reads NaN, Infinity and 1e400 (as inf); none may reach the run
        text = json.dumps(basic_config(tolerances={"energy_rel": 0.001})).replace(*literal)
        path = literal[1].split(":")[0].strip('"')
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f".{path}: must be a finite number" in err and "config.runs[0]." in err

    @pytest.mark.parametrize(
        "doc, path",
        [
            (basic_config(mass={"kind": "coth_sq", "alhpa": 3.0}), "config.runs[0].mass.alhpa"),
            (
                basic_config(
                    mass={"kind": "custom", "expression": "1", "domain": [-5, 5], "q": 1.0}
                ),
                "config.runs[0].mass.q",
            ),
            (
                basic_config(mass={"kind": "coth_sq", "expression": "1"}),
                "config.runs[0].mass.expression",
            ),
            (
                basic_config(reference={"kind": "morse", "D": 8.0, "alpha": 1.0, "extra": 5}),
                "config.runs[0].reference.extra",
            ),
            (
                basic_config(reference={"kind": "morse", "D": 8.0, "U0": 1.0}),
                "config.runs[0].reference.U0",
            ),
            (basic_config(grid={"n_points": 2001, "level": 1}), "config.runs[0].grid.level"),
            (basic_config(tolerance={"energy_rel": 1.0}), "config.runs[0].tolerance"),
            ({**basic_config(), "outptu": {}}, "config.outptu"),
            ({**basic_config(), "output": {"pth": "x.json"}}, "config.output.pth"),
        ],
        ids=[
            "mass-misspelled",
            "custom-mass-q",
            "builtin-mass-expression",
            "reference-extra",
            "reference-other-kind-field",
            "grid-level",
            "run-tolerance",
            "config-outptu",
            "output-pth",
        ],
    )
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, monkeypatch, doc, path):
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run with an invalid config")

        monkeypatch.setattr(cli, "verify", refuse)
        assert cli.main(["verify", write_config(tmp_path, doc)]) == 2
        assert f"error: {path}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, path, kinds",
        [
            (
                basic_config(mass={"kind": "cosh_sq", "alpha": 8.0, "q": 1.0}),
                "mass",
                ("asymptotically_vanishing", "tanh_sq", "coth_sq", "custom"),
            ),
            (
                basic_config(mass={"alpha": 8.0, "q": 1.0}),
                "mass",
                ("asymptotically_vanishing", "tanh_sq", "coth_sq", "custom"),
            ),
            (
                basic_config(reference={"kind": "harmonic", "D": 8.0, "alpha": 1.0}),
                "reference",
                ("morse", "poschl_teller", "hulthen"),
            ),
            (
                basic_config(reference={"D": 8.0, "alpha": 1.0}),
                "reference",
                ("morse", "poschl_teller", "hulthen"),
            ),
        ],
        ids=["mass-unknown", "mass-missing", "reference-unknown", "reference-missing"],
    )
    def test_unknown_or_missing_kind_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, doc, path, kinds
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run with an invalid config")

        monkeypatch.setattr(cli, "verify", refuse)
        assert cli.main(["verify", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config.runs[0].{path}.kind: must be one of {kinds}\n"

    @pytest.mark.parametrize(
        "reference",
        [
            {"kind": "morse", "D": (0.5 + 1e-13) ** 2 / 2, "alpha": 1.0},
            {"kind": "poschl_teller", "U0": 1e-13, "alpha": 1.0},
            {"kind": "hulthen", "V0": (1.0 + 1e-13) / 2, "alpha": 1.0},
        ],
        ids=lambda r: r["kind"],
    )
    def test_well_that_binds_no_state_is_a_config_error(self, tmp_path, capsys, reference):
        cfg = write_config(tmp_path, basic_config(reference=reference))
        assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert "error: config.runs[0].reference: " in err and "too shallow" in err

    @pytest.mark.parametrize("n_points", [10**400, 10**10], ids=["401-digit", "1e10"])
    def test_grid_too_large_is_a_config_error(self, tmp_path, capsys, n_points):
        # rejected at parse: nothing grid-sized is allocated
        cfg = write_config(tmp_path, basic_config(grid={"n_points": n_points, "levels": 3}))
        assert cli.main(["verify", cfg, "-o", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "error: config.runs[0].grid.n_points: must be <= 1000001" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "run, path",
        [
            ({"mass": {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 0.0}}, "mass.q"),
            ({"mass": {"kind": "tanh_sq", "alpha": 1.0, "domain": [3.0, 2.0]}}, "mass.domain"),
            ({"mass": {"kind": "custom", "expression": "1"}}, "mass.domain"),
            ({"mass": {"kind": "custom", "expression": "1", "domain": [1.0, 1.0]}}, "mass.domain"),
            ({"reference": {"kind": "poschl_teller", "U0": 0.0, "alpha": 1.0}}, "reference.U0"),
            ({"reference": {"kind": "morse", "D": 8.0, "alpha": -1.0}}, "reference.alpha"),
        ],
        ids=[
            "mass-q-0",
            "builtin-domain-empty",
            "custom-domain-missing",
            "custom-domain-empty",
            "reference-U0-0",
            "reference-alpha-negative",
        ],
    )
    def test_constructor_error_names_its_field(self, run, path):
        # the constructors own these rules; the CLI adds the config path
        with pytest.raises(ConfigError) as info:
            cli.load_config(json.dumps(basic_config(**run)))
        assert str(info.value).startswith(f"config.runs[0].{path}: ")

    def test_builtin_domain_outside_natural_domain_is_rejected_at_parse(
        self, tmp_path, capsys, monkeypatch
    ):
        # tanh_sq at alpha = q = 1 lives on x > 0; the run before it is valid
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run with an invalid config")

        monkeypatch.setattr(cli, "verify", refuse)
        runs = [
            basic_run(name="coth-morse", mass={"kind": "coth_sq", "alpha": 1.0, "q": 1.0}),
            basic_run(
                name="tanh-hulthen",
                mass={"kind": "tanh_sq", "alpha": 1.0, "q": 1.0, "domain": [-1.0, 5.0]},
                reference={"kind": "hulthen", "V0": 2.0, "alpha": 0.5},
            ),
        ]
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": runs})
        assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.runs[1].mass.domain: ")
        assert "natural domain" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "expression, parameters, says",
        [
            ("2 + x^(1e200)", {}, "non-finite values"),
            ("1 + (0.1 + x^2)^(-400)", {}, "non-finite values"),
            ("1 + exp(x^2)", {}, "non-finite values"),
            ("sinhq(x)", {"q": -1.0}, "q finite and > 0"),
        ],
        ids=["huge-integer-power", "negative-power-underflow", "exp-overflow", "q-negative"],
    )
    def test_custom_mass_error_is_one_line(self, tmp_path, capsys, expression, parameters, says):
        # the README config with its custom mass replaced (sinh_q at q = -1
        # would be cosh, positive everywhere): exit 2, one line, no warning
        runs = [README_RUNS[0], dict(README_RUNS[1])]
        runs[1]["mass"] = dict(runs[1]["mass"], expression=expression, parameters=parameters)
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": runs})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.runs[1].mass: ") and err.count("\n") == 1
        assert says in err

    @pytest.mark.parametrize(
        "content, says",
        [
            (b'{\xff', "error: cannot read config: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100000 + b"]" * 100000, "error: config: not valid JSON (nested too deeply"),
        ],
        ids=["not-utf8", "nested-too-deeply"],
    )
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, content, says):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(content)
        assert cli.main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(says) and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "transform"])
    @pytest.mark.parametrize(
        "expression, says",
        [
            ("(" * 199 + "1+x*x" + ")" * 199, "expression nested too deeply at offset"),
            ("+".join(["1"] * 1000), "expression nested too deeply to evaluate"),
            ("-" * 1000 + "1", "expression nested too deeply at offset"),
            ("^".join(["x"] * 1000), "expression nested too deeply at offset"),
            ("sin(" * 400 + "x" + ")" * 400, "expression nested too deeply at offset"),
        ],
        ids=["199-parentheses", "1000-term-sum", "1000-unary-minuses", "1000-power-chain", "400-sin-calls"],
    )
    def test_deeply_nested_expression_is_one_error_line(
        self, tmp_path, capsys, command, expression, says
    ):
        mass = {"kind": "custom", "expression": expression, "domain": [1.0, 3.0]}
        cfg = write_config(tmp_path, basic_config(mass=mass))
        assert cli.main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.runs[0].mass: ") and err.count("\n") == 1
        assert says in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mass, reference",
        [
            ({"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0}, None),
            (
                {"kind": "custom", "expression": "1"},
                {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
            ),
        ],
        ids=["asymptotically-vanishing", "custom"],
    )
    def test_domain_wider_than_a_float_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, mass, reference
    ):
        # -1e308 and 1e308 are finite, but their difference is not
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run with an invalid config")

        monkeypatch.setattr(cli, "verify", refuse)
        run = {"mass": {**mass, "domain": [-1e308, 1e308]}}
        if reference is not None:
            run["reference"] = reference
        cfg = write_config(tmp_path, basic_config(**run))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.runs[0].mass.domain: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "runs, path, says",
        [
            (
                [{"mass": {"kind": "custom", "expression": "1", "domain": [1.0, 1.0 + 2e-16]}}],
                "config.runs[0]",
                "1025 grid points on [1.0, 1.0000000000000002]: consecutive points coincide",
            ),
            (
                [{"mass": {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [1.0, 1.0 + 2e-16]}}],
                "config.runs[0]",
                "consecutive points coincide",
            ),
            (
                [{"mass": {"kind": "custom", "expression": "1", "domain": [0.0, 1e-300]}}],
                "config.runs[0]",
                "h^2 underflows",
            ),
            (
                [{"mass": {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [0.0, 1e-300]}}],
                "config.runs[0]",
                "h^2 underflows",
            ),
            ([{"mass": {"kind": "coth_sq", "alpha": 1e300, "q": 1.0}}], "config.runs[0].mass", "non-finite values"),
            (
                [{"mass": {"kind": "asymptotically_vanishing", "alpha": 1e-300, "q": 1.0}}],
                "config.runs[0].mass",
                "non-finite values",
            ),
            (
                [{}, {"mass": {"kind": "custom", "expression": "1", "domain": [1.0, 1.0 + 2e-16]}}],
                "config.runs[1]",
                "consecutive points coincide",
            ),
            (
                [{"reference": {"kind": "morse", "D": 1e300, "alpha": 1.0}}],
                "config.runs[0]",
                "the target potential V is not finite on the 201-point grid",
            ),
            (
                [
                    {
                        "mass": {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [-1.0, 1.0]},
                        "reference": {"kind": "morse", "D": 1e300, "alpha": 1.0},
                    }
                ],
                "config.runs[0]",
                "Psi_2 has no finite, nonzero norm on the grid",
            ),
            (
                [
                    {
                        "mass": {"kind": "custom", "expression": "exp(-700*x^2)", "domain": [-1.0, 1.0]},
                        "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
                    }
                ],
                "config.runs[0]",
                "the target potential V is not finite on the 201-point grid",
            ),
        ],
        ids=[
            "custom-narrow",
            "builtin-narrow",
            "custom-spacing-underflows",
            "builtin-spacing-underflows",
            "coth_sq-alpha-1e300",
            "asymptotically_vanishing-alpha-1e-300",
            "second-run-narrow",
            "morse-D-1e300",
            "morse-D-1e300-state-norm-overflows",
            "correction-overflows",
        ],
    )
    def test_degenerate_mass_is_one_error_line(self, tmp_path, capsys, runs, path, says):
        # a domain too narrow for 201 distinct points (or for a custom f
        # table's knots), one whose h^2 underflows, a family jet that
        # overflows on the domain, and fields that overflow on the grid (V,
        # or a state's norm): exit 2, one line naming the run, no warning;
        # a run after one that passed fails the same way
        doc = {
            "schema_version": 1,
            "runs": [
                basic_run(name=f"run{i}", grid={"n_points": 201, "levels": 3}, **run)
                for i, run in enumerate(runs)
            ],
        }
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert err.count("config.runs[") == 1
        assert says in err

    def test_grid_bound_is_inclusive(self):
        grid = {"n_points": cli.MAX_GRID_POINTS, "levels": 3}
        assert cli.load_config(json.dumps(basic_config(grid=grid)))["runs"][0]["n_points"] == 1000001
        grid["n_points"] += 1
        with pytest.raises(ConfigError, match=r"runs\[0\]\.grid\.n_points"):
            cli.load_config(json.dumps(basic_config(grid=grid)))


class TestVerify:
    def test_pass_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, basic_config())
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        levels = report["runs"][0]["levels"]
        assert [l["closed_form"] for l in levels] == [-6.125, -3.125, -1.125]
        assert all(l["rel_error"] < 1e-3 for l in levels)
        assert report["runs"][0]["orthonormality_max_dev"] < 1e-3

    def test_coarse_grid_fails(self, tmp_path):
        cfg = write_config(tmp_path, basic_config(grid={"n_points": 64, "levels": 3}))
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert any(l["rel_error"] > 1e-3 for l in report["runs"][0]["levels"])

    @pytest.mark.parametrize("tolerance, passed", [(1e-4, True), (1e-9, False)])
    def test_residual_tolerance_gates_the_verdict(self, tmp_path, tolerance, passed):
        # the run's residuals are about 5e-8
        cfg = write_config(tmp_path, basic_config(tolerances={"residual": tolerance}))
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == (0 if passed else 1)
        report = json.loads(out.read_text())
        assert report["pass"] is passed and report["runs"][0]["pass"] is passed
        assert all(l["pass"] for l in report["runs"][0]["levels"])

    def test_unresolved_residual_fails_the_residual_gate(self, tmp_path, monkeypatch):
        """A level without a residual (no window of it is resolved) fails a
        residual tolerance, and only that."""

        def without_residual(ts, n_points, levels):
            check = pctengine.verify(ts, n_points, levels)
            residuals = (check.residuals[0], None) + check.residuals[2:]
            return dataclasses.replace(check, residuals=residuals)

        monkeypatch.setattr(cli, "verify", without_residual)
        for tolerances, passed in (({}, True), ({"residual": 1e-4}, False)):
            cfg = write_config(tmp_path, basic_config(tolerances=tolerances))
            out = tmp_path / "report.json"
            assert cli.main(["verify", cfg, "-o", str(out)]) == (0 if passed else 1)
            report = json.loads(out.read_text())
            assert report["runs"][0]["residual_norms"][1] is None
            assert report["pass"] is passed

    def test_q1_reduction_reported(self, tmp_path):
        cfg = write_config(tmp_path, basic_config(check_q1_reduction=True))
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["runs"][0]["q1_reduction_max_dev"] < 1e-12

    def test_module_exit_code_reaches_the_shell(self, tmp_path):
        cfg = write_config(tmp_path, README_CONFIG)
        out = run_module("verify", cfg)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["pass"] is True and out.stderr == ""
        mass = {("alhpa" if k == "alpha" else k): v for k, v in README_RUNS[0]["mass"].items()}
        runs = [dict(README_RUNS[0], mass=mass), README_RUNS[1]]
        out = run_module("verify", write_config(tmp_path, {"schema_version": 1, "runs": runs}))
        assert out.returncode == 2
        assert out.stderr.startswith("error: config.runs[0].mass.alhpa: unknown key")
        assert out.stdout == ""

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, basic_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["verify", cfg, "-o", str(a)])
        cli.main(["verify", cfg, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_batch_runs(self, tmp_path):
        doc = {
            "schema_version": 1,
            "runs": [
                basic_run(),
                basic_run(
                    name="coth-pt",
                    mass={"kind": "coth_sq", "alpha": 1.0, "q": 1.0},
                    reference={"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
                ),
            ],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [r["name"] for r in report["runs"]] == ["asym-morse", "coth-pt"]

    def test_suggested_domain_holds_every_requested_level(self, tmp_path):
        # a domain suggested for three levels cuts off Morse's E4 (rel error 1.8e-2)
        doc = basic_config(
            mass={"kind": "coth_sq", "alpha": 1.0, "q": 1.0},
            reference={"kind": "morse", "D": 12.5, "alpha": 1.0},
            grid={"n_points": 20001, "levels": 5},
        )
        cfg = write_config(tmp_path, doc)
        assert cli.main(["verify", cfg, "-o", str(tmp_path / "r.json")]) == 0

    def test_hulthen_wall_on_the_domain_edge_is_config_error(self, tmp_path):
        # f(0) = 0: the run would sample the Hulthen wall itself
        doc = basic_config(
            reference={"kind": "hulthen", "V0": 2.0, "alpha": 0.5},
            mass={"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [0.0, 5.0]},
            grid={"n_points": 2001, "levels": 3},
        )
        cfg = write_config(tmp_path, doc)
        assert cli.main(["verify", cfg, "-o", str(tmp_path / "r.json")]) == 2

    def test_non_finite_potential_is_a_pct_error(self, tmp_path, capsys, monkeypatch):
        # one inf in V is found when the run is sampled, before the solver
        # sees it: exit 2 and one line naming the run, not a traceback
        def with_inf(self, y, _fn=PoschlTeller.potential):
            v = np.array(_fn(self, y), dtype=float)
            v[v.size // 2] = np.inf
            return v

        monkeypatch.setattr(PoschlTeller, "potential", with_inf)
        run = dict(README_RUNS[0], grid={"n_points": 2001, "levels": 3})
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": [run]})
        assert cli.main(["verify", cfg, "-o", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: config.runs[0]: the target potential V is not finite on the 2001-point grid\n"

    def test_separation_below_the_spectrum_keeps_stdout_json(self, tmp_path, capfd):
        # on [0.6, 1.5] the analytic separation lies below the matrix's
        # lowest Gershgorin edge: the count there is 0 without a
        # factorisation, so LAPACK prints nothing before the report
        mass = {"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [0.6, 1.5]}
        cfg = write_config(tmp_path, basic_config(mass=mass, grid={"n_points": 2001, "levels": 3}))
        assert cli.main(["verify", cfg]) == 1
        out, err = capfd.readouterr()
        assert json.loads(out)["pass"] is False
        assert "illegal value" not in out + err

    def test_lapack_failure_is_a_pct_error(self, tmp_path, capsys, monkeypatch):
        # a LAPACK failure reaches pct as one line and exit 3, not a
        # traceback: here dpttrf's, once the bisection has started, on a
        # run whose count at the separation is off, so that it bisects
        bisect = eigensolver._bisect

        def failing_bisection(*args):
            monkeypatch.setattr(eigensolver, "dpttrf", lambda d, e, **kwargs: (d, e, -1))
            return bisect(*args)

        monkeypatch.setattr(eigensolver, "_bisect", failing_bisection)
        spec = next(spec for spec in presets.COMBO_TABLE if not spec.feasible)
        run = dict(preset_run(spec), grid={"n_points": 2001, "levels": 3})
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": [run]})
        assert cli.main(["verify", cfg, "-o", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: config.runs[0]: LAPACK dpttrf failed (info=-1)\n"
        assert not (tmp_path / "r.json").exists()


class TestWorkCounts:
    """Each grid-sized field is evaluated once per run, and the midpoint
    masses, which need m alone, without derivatives."""

    N = 2001

    @staticmethod
    def count_calls(monkeypatch):
        """Count mass, mass-jet and f(x) calls, keyed by (method, number of
        points)."""
        counts = collections.Counter()
        for cls, name in (
            (MassProfile, "mass"),
            (MassProfile, "mass_jet"),
            (MappingFunction, "forward"),
        ):
            def counted(self, x, _fn=getattr(cls, name), _name=name):
                counts[_name, np.size(x)] += 1
                return _fn(self, x)

            monkeypatch.setattr(cls, name, counted)
        return counts

    def config(self):
        run = basic_run(grid={"n_points": self.N, "levels": 3}, check_q1_reduction=True)
        return cli.load_config(json.dumps({"schema_version": 1, "runs": [run]}))

    def test_verify(self, monkeypatch):
        config = self.config()
        counts = self.count_calls(monkeypatch)
        cli.cmd_verify(config)
        assert counts["mass_jet", self.N] == 1
        # the run's one mass jet: its fields are checked on its own grid
        assert sum(n for (name, _), n in counts.items() if name == "mass_jet") == 1
        assert counts["mass", self.N - 1] == 1
        assert counts["forward", self.N] == 1

    @pytest.mark.parametrize(
        "runs",
        [README_RUNS, [preset_run(PRESETS[name]) for name in DEFAULT_RUNS]],
        ids=["readme", "default-combos"],
    )
    def test_residual_mass_derivative_is_the_stencil(self, monkeypatch, runs):
        """Each checked level's residual is one residual_norm call on its
        window's samples of the run's state, m and V, without a precomputed
        m': residual_norm applies its own stencil to m."""
        calls, checked = [], []

        def spy(grid, psi, energy, m, v, **kwargs):
            assert not kwargs
            calls.append((grid, psi, energy, m, v))
            return eigensolver.residual_norm(grid, psi, energy, m, v)

        def verify(ts, n_points, levels):
            start = len(calls)
            check = pctengine.verify(ts, n_points, levels)
            checked.append((ts, check, calls[start:]))
            return check

        monkeypatch.setattr(pctengine, "residual_norm", spy)
        monkeypatch.setattr(cli, "verify", verify)
        cli.cmd_verify(load_runs(runs))
        assert len(checked) == len(runs)
        for ts, check, run_calls in checked:
            assert len(run_calls) == 3
            # about 1e-5 at most on these runs; a window taken where the
            # grid does not resolve the state gives residuals near 1
            assert max(check.residuals) < 1e-4
            points = check.fields.x
            for n, (sub, psi, energy, m, v) in enumerate(run_calls):
                (i0,) = np.flatnonzero(points == sub.x_min)
                window = slice(i0, i0 + sub.n_points)
                assert points[window][-1] == sub.x_max
                assert energy == ts.energy(n)
                assert np.array_equal(psi, check.fields.states[n][window])
                assert np.array_equal(m, check.fields.mass[window])
                assert np.array_equal(v, check.fields.potential[window])

    def test_transform(self, monkeypatch):
        config = self.config()
        counts = self.count_calls(monkeypatch)
        cli.cmd_transform(config)
        assert counts["mass_jet", self.N] == 1
        assert counts["forward", self.N] == 1

    def test_discrepancy(self, monkeypatch):
        config = self.config()
        counts = self.count_calls(monkeypatch)
        cli.cmd_discrepancy(config)
        assert counts["mass_jet", self.N] == 1
        assert counts["forward", self.N] == 1

    @pytest.mark.parametrize(
        "runs",
        [README_RUNS, [preset_run(PRESETS[name]) for name in DEFAULT_RUNS]],
        ids=["readme", "default-combos"],
    )
    def test_verify_certifies_without_bisection(self, monkeypatch, runs):
        """The analytic states seed the eigensolve: one Sturm count per run
        and no bisection."""
        config = load_runs(runs)
        bisections = bisect_log(monkeypatch)
        counts = count_log(monkeypatch)
        text, code = cli.cmd_verify(config)
        assert code == 0 and json.loads(text)["pass"] is True
        assert bisections == []
        assert len(counts) == len(runs)

    @pytest.mark.parametrize(
        "runs, shares",
        [
            (README_RUNS, [0.133, 0.531]),
            (
                [preset_run(PRESETS[name]) for name in DEFAULT_RUNS],
                [0.209, 0.527, 0.024, 0.385, 0.566, 0.202, 0.252, 0.149, 0.180],
            ),
        ],
        ids=["readme", "default-combos"],
    )
    def test_count_at_the_separation_stops_at_the_gershgorin_tail(self, monkeypatch, runs, shares):
        """Each run's one Sturm count, at the separation, factorises the
        rows up to the Gershgorin tail alone: the shares of the matrix's
        rows it takes, to 0.005."""
        rows = []
        count_log(monkeypatch, rows=rows)
        cli.cmd_verify(load_runs(runs))
        assert [taken / n for taken, n in rows] == pytest.approx(shares, abs=0.005)

    @pytest.mark.parametrize(
        "runs",
        [README_RUNS, [preset_run(spec) for spec in presets.COMBO_TABLE]],
        ids=["readme", "sweep"],
    )
    def test_every_cut_off_count_is_the_full_count(self, monkeypatch, runs):
        """On a README pass and a sweep pass, bisections included, every
        count cut off at the Gershgorin tail is the count over every row."""
        seen = []

        def both(diag, off, gl, x, most, tail=None, _fn=eigensolver._count_up_to):
            cut = _fn(diag, off, gl, x, most, tail)
            assert tail is not None and cut == _fn(diag, off, gl, x, most), x
            seen.append(x > gl)
            return cut

        monkeypatch.setattr(eigensolver, "_count_up_to", both)
        cli.cmd_verify(load_runs(runs))
        assert sum(seen) >= len(runs)


class TestVerifyAccuracy:
    """The reported energies are the matrix's eigenvalues, not bisection's
    ulp * ||T||_1 approximations of them (about 4e-4 on tanh_sq x Hulthen,
    whose matrix norm is 1.9e12)."""

    @pytest.mark.parametrize(
        "run",
        [preset_run(PRESETS["tanh_sq-hulthen-q1"]), README_RUNS[1]],
        ids=["tanh_sq-hulthen-q1", "readme-custom"],
    )
    def test_energies_match_tight_bisection(self, monkeypatch, run):
        solved = []

        def spy(*args, _fn=pctengine.solve_effective_mass, **kwargs):
            solved.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pctengine, "solve_effective_mass", spy)
        text, _ = cli.cmd_verify(load_runs([run]))
        reported = [level["numerical"] for level in json.loads(text)["runs"][0]["levels"]]
        (args,) = solved
        diag, off = eigensolver.tridiagonal_matrix(*args)
        tight = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 2), tol=1e-13)
        np.testing.assert_allclose(reported, tight, rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "spec", [spec for spec in presets.COMBO_TABLE if not spec.feasible], ids=lambda spec: spec.name
    )
    def test_infeasible_runs_bisect_to_tolerance(self, monkeypatch, spec):
        # the Sturm count at the separation is not 3 on these runs: the
        # energies come from one bisection inside a counted bracket, at the
        # bracket's tolerance ulp * ||T||_1, each within it of the matrix's
        # eigenvalue
        solved = []

        def spy(*args, _fn=pctengine.solve_effective_mass, **kwargs):
            solved.append((args, _fn(*args, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(pctengine, "solve_effective_mass", spy)
        bisections = bisect_log(monkeypatch)
        text, code = cli.cmd_verify(load_runs([preset_run(spec)]))
        assert code == 1 and json.loads(text)["pass"] is False
        ((args, energies),) = solved
        diag, off = eigensolver.tridiagonal_matrix(*args)
        rows = np.abs(diag)
        rows[:-1] += np.abs(off)
        rows[1:] += np.abs(off)
        tol = np.finfo(float).eps * np.max(rows)
        ((_, _, _, abstol),) = bisections
        assert abstol == pytest.approx(tol, rel=1e-15)
        tight = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 2), tol=1e-13)
        assert np.all(np.abs(energies - tight) <= tol)


#: one custom run per expression function, and one power with an exponent in
#: x (the exp(v ln u) path), each a Morse well through the whole PCT check
FUNCTION_RUNS = [
    {
        "name": name,
        "mass": {"kind": "custom", "expression": expression, "parameters": {"q": 2.0}, "domain": domain},
        "reference": {"kind": "morse", "D": 8.0, "alpha": 1.0},
        "grid": {"n_points": 4001, "levels": 3},
    }
    for name, expression, domain in [
        ("sin", "1.5 + sin(x)", [-8.0, 8.0]),
        ("cos", "1.5 + cos(x)", [-8.0, 8.0]),
        ("exp", "exp(-x*x/100)", [-8.0, 8.0]),
        ("ln", "ln(2 + x*x/16)", [-8.0, 8.0]),
        ("sqrt", "sqrt(1 + x*x/16)", [-8.0, 8.0]),
        ("sinh", "4 + sinh(x/4)", [-8.0, 8.0]),
        ("cosh", "cosh(x/4)", [-8.0, 8.0]),
        ("tanh", "2 + tanh(x)", [-8.0, 8.0]),
        ("coth", "coth(x)", [0.5, 16.0]),
        ("sinhq", "8 + sinhq(x/4)", [-8.0, 8.0]),
        ("coshq", "coshq(x/4)", [-8.0, 8.0]),
        ("tanhq", "2 + tanhq(x)", [-8.0, 8.0]),
        ("cothq", "cothq(x)", [1.0, 16.0]),
        ("sechq", "1 + sechq(x)", [-8.0, 8.0]),
        ("cschq", "1 + cschq(x)", [1.0, 16.0]),
        ("pow", "(x/8)^(x/8)", [2.0, 18.0]),
    ]
]


class TestExpressionFunctions:
    def test_every_function_has_a_run(self):
        def calls(node):
            if isinstance(node, exprlang.Call):
                return {node.func} | calls(node.arg)
            if isinstance(node, exprlang.Neg):
                return calls(node.operand)
            if isinstance(node, exprlang.BinOp):
                return calls(node.lhs) | calls(node.rhs)
            return set()

        asts = [exprlang.parse(run["mass"]["expression"]) for run in FUNCTION_RUNS]
        assert set().union(*map(calls, asts)) == exprlang.FUNCTION_NAMES
        assert {run["name"] for run in FUNCTION_RUNS} == exprlang.FUNCTION_NAMES | {"pow"}

    @pytest.mark.parametrize("run", FUNCTION_RUNS, ids=lambda run: run["name"])
    def test_run_passes(self, tmp_path, run):
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": [run]})
        out = tmp_path / "report.json"
        assert cli.main(["verify", cfg, "-o", str(out)]) == 0
        (report,) = json.loads(out.read_text())["runs"]
        assert report["pass"] is True
        assert all(abs(level["rel_error"]) < 1e-3 for level in report["levels"])


class TestTransform:
    def test_csv_header_and_spectrum(self, tmp_path):
        # one block per run, each headed by its name, energies and columns
        for runs, ground_energies in (([basic_run()], ["-6.125"]), (README_RUNS, ["-4.5", "-6.125"])):
            cfg = write_config(tmp_path, {"schema_version": 1, "runs": runs})
            out = tmp_path / "out.csv"
            assert cli.main(["transform", cfg, "-o", str(out)]) == 0
            blocks = out.read_text().split("# run: ")
            assert blocks[0] == "" and len(blocks) == len(runs) + 1
            for run, e0, block in zip(runs, ground_energies, blocks[1:]):
                lines = block.splitlines()
                assert lines[:2] == [run["name"], f"# E0 = {e0}"]
                assert [line for line in lines if line.startswith("x,")] == ["x,m,f,V,psi0,psi1,psi2"]

    def test_identity_mass_gives_shifted_reference(self, tmp_path):
        doc = {
            "schema_version": 1,
            "runs": [
                {
                    "name": "flat",
                    "mass": {"kind": "custom", "expression": "1.0", "domain": [-8.0, 8.0]},
                    "reference": {"kind": "poschl_teller", "U0": 6.0, "alpha": 1.0},
                    "grid": {"n_points": 101, "levels": 1},
                }
            ],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert cli.main(["transform", cfg, "-o", str(out)]) == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("x,")
        ]
        xs = np.array([float(r[0]) for r in rows])
        vs = np.array([float(r[3]) for r in rows])
        ref = PoschlTeller(U0=6.0, alpha=1.0)
        assert np.allclose(vs, ref.potential(xs), atol=1e-9)

    def test_hulthen_domain_violation_is_config_error(self, tmp_path):
        doc = basic_config(
            reference={"kind": "hulthen", "V0": 2.0, "alpha": 0.5},
            mass={"kind": "asymptotically_vanishing", "alpha": 8.0, "q": 1.0, "domain": [-2.0, 5.0]},
        )
        # mass.domain is consumed as the run domain override
        doc["runs"][0]["mass"]["domain"] = [-2.0, 5.0]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["transform", cfg, "-o", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["transform", str(tmp_path / "nope.json")]) == 2


class TestDiscrepancy:
    def test_audit_produced_and_deterministic(self, tmp_path):
        # a 64-point run, and the README config cut to its built-in run
        small = basic_run(
            mass={"kind": "asymptotically_vanishing", "alpha": 1.0, "q": 1.0, "domain": [-3.0, 3.0]},
            grid={"n_points": 64, "levels": 3},
        )
        for run in (small, README_RUNS[0]):
            cfg = write_config(tmp_path, {"schema_version": 1, "runs": [run]})
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert cli.main(["discrepancy", cfg, "-o", str(a)]) == 0
            assert cli.main(["discrepancy", cfg, "-o", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
            text = a.read_text().splitlines()
            assert text[1].startswith("# verdict: ")
            assert sum(line.startswith("# verdict: ") for line in text) == 1
            assert text[2] == "x,V_construction,V_printed,abs_deviation"

    def test_custom_profile_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "runs": [
                {
                    "name": "flat",
                    "mass": {"kind": "custom", "expression": "1.0", "domain": [-2.0, 2.0]},
                    "reference": {"kind": "morse", "D": 8.0, "alpha": 1.0},
                    "grid": {"n_points": 64, "levels": 1},
                }
            ],
        }
        cfg = write_config(tmp_path, doc)
        assert cli.main(["discrepancy", cfg, "-o", str(tmp_path / "x.csv")]) == 2

    def test_custom_run_rejected_before_any_run_is_built(self, tmp_path, capsys, monkeypatch):
        # the README config's second run is custom: it is named by its
        # index, and the built-in run before it is never built
        def refuse(run):
            raise AssertionError(f"built {run['name']}")

        monkeypatch.setattr(cli, "_build", refuse)
        cfg = write_config(tmp_path, {"schema_version": 1, "runs": README_RUNS})
        assert cli.main(["discrepancy", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config.runs[1].mass: discrepancy audit needs")


class TestOutputPath:
    @pytest.mark.parametrize("via", ["option", "config"])
    @pytest.mark.parametrize("target", ["missing_dir/r.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, monkeypatch, via, target):
        """An output path that cannot be written is exit 2 with one error
        line, not exit 1 (verification FAIL) with a traceback, and is found
        before any run is solved."""

        def refuse(*args, **kwargs):
            raise AssertionError("solved a run for an unwritable output")

        monkeypatch.setattr(cli, "verify", refuse)
        out = str(tmp_path / target)
        doc = basic_config()
        if via == "config":
            doc["output"] = {"path": out}
        argv = ["verify", write_config(tmp_path, doc)] + (["-o", out] if via == "option" else [])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1
