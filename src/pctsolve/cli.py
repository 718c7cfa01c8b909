"""Command-line front end.

One JSON config document declares the systems; the subcommand only selects
what to do with them:

    pct transform   <config.json> [-o out.csv]    sampled target-system table
    pct verify      <config.json> [-o report.json] numerical isospectrality check
    pct discrepancy <config.json> [-o audit.csv]  published-formula audit

Exit codes: 0 success/PASS, 1 verification FAIL, 2 configuration error
(or an unreadable config or unwritable output), 3 internal numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, massmodel, refpotentials
from .eigensolver import MIN_GRID_POINTS
from .errors import ConfigError, DomainError, PctError
from .massmodel import MassProfile
from .pctengine import TargetSystem, printed_target_potential, verify

SCHEMA_VERSION = 1

_DEFAULT_TOLERANCES = {"energy_rel": 1e-3, "residual": None, "orthonormality": 1e-3}

#: the largest grid a run may ask for: a ``pct verify`` process peaks near
#: 33.5 MB + 190 bytes per point (70 MB at 200 001 points, 212 MB here)
MAX_GRID_POINTS = 1_000_001


# ---------------------------------------------------------------------------
# config validation


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _require(obj, path, typ, type_name):
    if not isinstance(obj, typ) or isinstance(obj, bool):
        _fail(path, f"must be {type_name}")
    return obj


def _number(obj, path):
    value = _require(obj, path, (int, float), "a number")
    # json reads NaN, Infinity and out-of-range literals such as 1e400
    if not abs(value) <= sys.float_info.max:
        _fail(path, "must be a finite number")
    return float(value)


def _known(cfg, path, keys):
    for key in cfg:
        if key not in keys:
            _fail(f"{path}.{key}", f"unknown key (known: {sorted(keys)})")


def _construct(path, make, /, *args, **kwargs):
    """make(*args, **kwargs), its error reported at path.field when it names
    the field at fault and at path otherwise."""
    try:
        return make(*args, **kwargs)
    except PctError as exc:
        field = getattr(exc, "field", None)
        _fail(f"{path}.{field}" if field else path, str(exc))


def _parse_mass(cfg, path):
    _require(cfg, path, dict, "an object")
    kind = cfg.get("kind")
    if kind not in massmodel.BUILTIN_KINDS + (massmodel.CUSTOM,):
        _fail(f"{path}.kind", f"must be one of {massmodel.BUILTIN_KINDS + (massmodel.CUSTOM,)}")
    own = ("expression", "parameters") if kind == massmodel.CUSTOM else ("alpha", "q")
    _known(cfg, path, ("kind", "domain") + own)
    domain = cfg.get("domain")
    if domain is not None:
        _require(domain, f"{path}.domain", list, "a [lo, hi] pair")
        if len(domain) != 2:
            _fail(f"{path}.domain", "must be a [lo, hi] pair")
        domain = tuple(_number(v, f"{path}.domain[{i}]") for i, v in enumerate(domain))
    if kind == massmodel.CUSTOM:
        expr = _require(cfg.get("expression"), f"{path}.expression", str, "a string")
        params = cfg.get("parameters", {})
        _require(params, f"{path}.parameters", dict, "an object")
        for k, v in params.items():
            _number(v, f"{path}.parameters.{k}")
        args = {"expression": expr, "parameters": params}
    else:
        args = {name: _number(cfg.get(name, 1.0), f"{path}.{name}") for name in own}
    x_min, x_max = domain or (None, None)
    return _construct(path, MassProfile, kind, x_min=x_min, x_max=x_max, **args), domain


def _parse_reference(cfg, path):
    _require(cfg, path, dict, "an object")
    kind = cfg.get("kind")
    if kind not in refpotentials.REFERENCE_KINDS:
        _fail(f"{path}.kind", f"must be one of {refpotentials.REFERENCE_KINDS}")
    names = [f.name for f in dataclasses.fields(refpotentials.REFERENCES[kind])]
    _known(cfg, path, ["kind"] + names)
    params = {}
    for name in names:
        if name not in cfg:
            _fail(f"{path}.{name}", "is required")
        params[name] = _number(cfg[name], f"{path}.{name}")
    return _construct(path, refpotentials.REFERENCES[kind], **params)


def _parse_run(cfg, path):
    _require(cfg, path, dict, "an object")
    _known(cfg, path, ("name", "mass", "reference", "grid", "check_q1_reduction", "tolerances"))
    name = cfg.get("name", path.rsplit("[", 1)[-1].rstrip("]"))
    _require(name, f"{path}.name", str, "a string")
    profile, domain = _parse_mass(cfg.get("mass"), f"{path}.mass")
    reference = _parse_reference(cfg.get("reference"), f"{path}.reference")
    grid_cfg = cfg.get("grid", {})
    _require(grid_cfg, f"{path}.grid", dict, "an object")
    _known(grid_cfg, f"{path}.grid", ("n_points", "levels"))
    n_points = grid_cfg.get("n_points", 8001)
    _require(n_points, f"{path}.grid.n_points", int, "an integer")
    if n_points < MIN_GRID_POINTS:
        _fail(f"{path}.grid.n_points", f"must be >= {MIN_GRID_POINTS}")
    if n_points > MAX_GRID_POINTS:
        _fail(f"{path}.grid.n_points", f"must be <= {MAX_GRID_POINTS}")
    levels = grid_cfg.get("levels", 3)
    _require(levels, f"{path}.grid.levels", int, "an integer")
    if levels < 1:
        _fail(f"{path}.grid.levels", "must be >= 1")
    # only the reference's bound levels are checked
    levels = min(levels, reference.n_max + 1)
    if levels > n_points - 2:
        _fail(
            f"{path}.grid.levels",
            f"checks {levels} levels, more than the {n_points - 2} interior grid points",
        )
    check_q1 = cfg.get("check_q1_reduction", False)
    if not isinstance(check_q1, bool):
        _fail(f"{path}.check_q1_reduction", "must be a boolean")
    if check_q1 and (profile.kind == massmodel.CUSTOM or profile.q != 1.0):
        _fail(f"{path}.check_q1_reduction", "needs a built-in mass profile with q = 1")
    tol = dict(_DEFAULT_TOLERANCES)
    tol_cfg = cfg.get("tolerances", {})
    _require(tol_cfg, f"{path}.tolerances", dict, "an object")
    for key, val in tol_cfg.items():
        if key not in tol:
            _fail(f"{path}.tolerances.{key}", f"unknown tolerance (known: {sorted(tol)})")
        if val is not None:
            val = _number(val, f"{path}.tolerances.{key}")
            if val <= 0:
                _fail(f"{path}.tolerances.{key}", "must be > 0")
        tol[key] = val
    return {
        "name": name,
        "profile": profile,
        "domain": domain,
        "reference": reference,
        "n_points": n_points,
        "levels": levels,
        "check_q1_reduction": check_q1,
        "tolerances": tol,
    }


def load_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})")
    except RecursionError:
        raise ConfigError("config: not valid JSON (nested too deeply to read)")
    _require(doc, "config", dict, "an object")
    _known(doc, "config", ("schema_version", "runs", "output"))
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("config.schema_version", f"must be {SCHEMA_VERSION}")
    runs_cfg = doc.get("runs")
    _require(runs_cfg, "config.runs", list, "an array")
    if not runs_cfg:
        _fail("config.runs", "must not be empty")
    runs = [_parse_run(r, f"config.runs[{i}]") for i, r in enumerate(runs_cfg)]
    names = [r["name"] for r in runs]
    if len(set(names)) != len(names):
        _fail("config.runs", "run names must be unique")
    output = doc.get("output", {})
    _require(output, "config.output", dict, "an object")
    _known(output, "config.output", ("path",))
    out_path = output.get("path")
    if out_path is not None:
        _require(out_path, "config.output.path", str, "a string")
    return {"runs": runs, "output_path": out_path}


# ---------------------------------------------------------------------------
# run assembly


def _build(run):
    """The run's target system and the number of its levels to check."""
    return TargetSystem.build(run["profile"], run["reference"], run["levels"]), run["levels"]


def _each_run(config, work):
    """[work(run) for each run], an error of run i reported at config.runs[i]:
    a ConfigError (a DomainError at build time is one), else a PctError."""
    results = []
    for i, run in enumerate(config["runs"]):
        try:
            results.append(work(run))
        except (ConfigError, DomainError) as exc:
            _fail(f"config.runs[{i}]", str(exc))
        except PctError as exc:
            raise PctError(f"config.runs[{i}]: {exc}") from exc
    return results


def _fmt(v):
    return "%.17g" % float(v)


# ---------------------------------------------------------------------------
# subcommands


def _transform_one(run):
    ts, levels = _build(run)
    lines = [f"# run: {run['name']}"]
    for n in range(levels):
        lines.append(f"# E{n} = {_fmt(ts.energy(n))}")
    header = ["x", "m", "f", "V"] + [f"psi{n}" for n in range(levels)]
    lines.append(",".join(header))
    _, fields = ts.sample(run["n_points"], levels)
    xs, m, f, v = fields.x, fields.mass, fields.f, fields.potential
    for i in range(xs.size):
        row = [xs[i], m[i], f[i], v[i]] + [s[i] for s in fields.states]
        lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def cmd_transform(config):
    return "".join(_each_run(config, _transform_one)), 0


def _verify_one(run):
    ts, levels = _build(run)
    check = verify(ts, run["n_points"], levels)
    tol = run["tolerances"]
    report = {"name": run["name"], "levels": [], "pass": True}
    for n in range(levels):
        exact = ts.energy(n)
        num = float(check.energies[n])
        rel = abs(num - exact) / max(abs(exact), 1e-300)
        ok = rel < tol["energy_rel"]
        report["levels"].append(
            {"n": n, "closed_form": exact, "numerical": num, "rel_error": rel, "pass": ok}
        )
        report["pass"] = report["pass"] and ok
    report["residual_norms"] = check.residuals
    if tol["residual"] is not None:
        ok = all(r is not None and r < tol["residual"] for r in check.residuals)
        report["pass"] = report["pass"] and ok
    dev = check.orthonormality_max_dev
    report["orthonormality"] = check.gram
    report["orthonormality_max_dev"] = dev
    report["pass"] = report["pass"] and dev < tol["orthonormality"]
    if run["check_q1_reduction"]:
        fields = check.fields
        profile = ts.profile
        m_std, f_std, corr_std = massmodel.FAMILIES[profile.kind].standard(fields.x, profile.alpha)
        f_dev = np.max(np.abs(f_std - fields.f))
        m_dev = np.max(np.abs(m_std - fields.mass) / (1.0 + np.abs(m_std)))
        c_dev = np.max(np.abs(corr_std - fields.correction) / (1.0 + np.abs(corr_std)))
        report["q1_reduction_max_dev"] = float(max(f_dev, m_dev, c_dev))
    return report


def cmd_verify(config):
    reports = _each_run(config, _verify_one)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "runs": reports,
        "pass": all(r["pass"] for r in reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", 0 if doc["pass"] else 1


def _discrepancy_one(run):
    ts, _ = _build(run)
    _, fields = ts.sample(run["n_points"], 0)
    xs, v_pipe = fields.x, fields.potential
    v_printed = np.asarray(printed_target_potential(ts.profile, ts.reference, xs), dtype=float)
    dev = np.abs(v_pipe - v_printed)
    max_dev = float(np.max(dev))
    verdict = "MATCH" if max_dev < 1e-9 else "MISMATCH"
    lines = [f"# run: {run['name']}", f"# verdict: {verdict} max_deviation={_fmt(max_dev)}"]
    lines.append("x,V_construction,V_printed,abs_deviation")
    for i in range(xs.size):
        lines.append(",".join(_fmt(c) for c in (xs[i], v_pipe[i], v_printed[i], dev[i])))
    return "\n".join(lines) + "\n"


def cmd_discrepancy(config):
    # every run is checked before any is built
    for i, run in enumerate(config["runs"]):
        if run["profile"].kind == massmodel.CUSTOM:
            _fail(
                f"config.runs[{i}].mass",
                "discrepancy audit needs a built-in profile "
                "(no printed formula exists for custom masses)",
            )
    return "".join(_each_run(config, _discrepancy_one)), 0


# ---------------------------------------------------------------------------
# entry point


def _unwritable(path):
    """Why the output path cannot be written, as far as that shows before any
    run is solved (the file is opened only after, so a failing run leaves an
    existing report as it was): it is a directory, or its parent is not."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return f"{path} is a directory"
    if not os.path.isdir(parent):
        return f"{parent} is not a directory"
    return None


_COMMANDS = {"transform": cmd_transform, "verify": cmd_verify, "discrepancy": cmd_discrepancy}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pct",
        description="Construct and verify position-dependent-mass systems "
        "sharing the spectrum of a solvable reference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("-o", "--output", default=None, help="output file path")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = load_config(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        out_path = args.output or config["output_path"]
        problem = out_path and _unwritable(out_path)
        if problem:
            raise ConfigError(f"cannot write output: {problem}")
        text, code = _COMMANDS[args.command](config)
        if out_path:
            try:
                with open(out_path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}")
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PctError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
