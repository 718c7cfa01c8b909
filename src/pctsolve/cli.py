"""Command-line front end.

One JSON config document declares the systems; the subcommand only selects
what to do with them:

    pct transform   <config.json> [-o out.csv]    sampled target-system table
    pct verify      <config.json> [-o report.json] numerical isospectrality check
    pct discrepancy <config.json> [-o audit.csv]  published-formula audit

Exit codes: 0 success/PASS, 1 verification FAIL, 2 configuration error,
3 internal numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, massmodel, refpotentials
from .errors import ConfigError, DomainError, PctError
from .massmodel import MassProfile
from .pctengine import TargetSystem, printed_target_potential, standard_profile_values, verify
from .refpotentials import make_reference

SCHEMA_VERSION = 1

_DEFAULT_TOLERANCES = {"energy_rel": 1e-3, "residual": None, "orthonormality": 1e-3}


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
        lo = _number(domain[0], f"{path}.domain[0]")
        hi = _number(domain[1], f"{path}.domain[1]")
        if not lo < hi:
            _fail(f"{path}.domain", "must satisfy lo < hi")
        domain = (lo, hi)
    if kind == massmodel.CUSTOM:
        expr = _require(cfg.get("expression"), f"{path}.expression", str, "a string")
        if domain is None:
            _fail(f"{path}.domain", "required for custom profiles")
        params = cfg.get("parameters", {})
        _require(params, f"{path}.parameters", dict, "an object")
        for k, v in params.items():
            _number(v, f"{path}.parameters.{k}")
        try:
            profile = MassProfile.custom(expr, domain[0], domain[1], params)
        except PctError as exc:
            _fail(path, str(exc))
    else:
        alpha = _number(cfg.get("alpha", 1.0), f"{path}.alpha")
        if alpha <= 0:
            _fail(f"{path}.alpha", "must be > 0")
        q = _number(cfg.get("q", 1.0), f"{path}.q")
        if q <= 0:
            _fail(f"{path}.q", "must be > 0")
        try:
            profile = MassProfile(kind, alpha, q)
        except PctError as exc:
            _fail(path, str(exc))
    return profile, domain


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
        if params[name] <= 0:
            _fail(f"{path}.{name}", "must be > 0")
    try:
        return make_reference(kind, **params)
    except PctError as exc:
        _fail(path, str(exc))


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
    if n_points < 16:
        _fail(f"{path}.grid.n_points", "must be >= 16")
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
    ts = TargetSystem.build(run["profile"], run["reference"], run["domain"], run["levels"])
    return ts, run["levels"]


def _fmt(v):
    return "%.17g" % float(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(config):
    lines = []
    for run in config["runs"]:
        ts, levels = _build(run)
        lines.append(f"# run: {run['name']}")
        for n in range(levels):
            lines.append(f"# E{n} = {_fmt(ts.energy(n))}")
        header = ["x", "m", "f", "V"] + [f"psi{n}" for n in range(levels)]
        lines.append(",".join(header))
        grid, fields, states = ts.sample(run["n_points"], levels)
        xs = grid.points
        m, f, v = fields.mass, fields.f, fields.potential
        for i in range(grid.n_points):
            row = [xs[i], m[i], f[i], v[i]] + [s[i] for s in states]
            lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n", 0


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
        m_std, f_std, corr_std = standard_profile_values(ts.profile, check.grid.points)
        f_dev = np.max(np.abs(f_std - fields.f))
        m_dev = np.max(np.abs(m_std - fields.mass) / (1.0 + np.abs(m_std)))
        c_dev = np.max(np.abs(corr_std - fields.correction) / (1.0 + np.abs(corr_std)))
        report["q1_reduction_max_dev"] = float(max(f_dev, m_dev, c_dev))
    return report


def cmd_verify(config):
    reports = [_verify_one(run) for run in config["runs"]]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "runs": reports,
        "pass": all(r["pass"] for r in reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", 0 if doc["pass"] else 1


def cmd_discrepancy(config):
    lines = []
    for run in config["runs"]:
        if run["profile"].kind == massmodel.CUSTOM:
            raise ConfigError(
                f"config.runs[{run['name']}].mass: discrepancy audit needs a "
                "built-in profile (no printed formula exists for custom masses)"
            )
        ts, _ = _build(run)
        xs = np.linspace(ts.x_min, ts.x_max, run["n_points"])
        v_pipe = np.asarray(ts.potential(xs), dtype=float)
        v_printed = np.asarray(
            printed_target_potential(ts.profile, ts.reference, xs), dtype=float
        )
        dev = np.abs(v_pipe - v_printed)
        max_dev = float(np.max(dev))
        verdict = "MATCH" if max_dev < 1e-9 else "MISMATCH"
        lines.append(f"# run: {run['name']}")
        lines.append(f"# verdict: {verdict} max_deviation={_fmt(max_dev)}")
        lines.append("x,V_construction,V_printed,abs_deviation")
        for i in range(xs.size):
            lines.append(
                ",".join(_fmt(c) for c in (xs[i], v_pipe[i], v_printed[i], dev[i]))
            )
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pct",
        description="Construct and verify position-dependent-mass systems "
        "sharing the spectrum of a solvable reference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("transform", "verify", "discrepancy"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument("-o", "--output", default=None, help="output file path")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = load_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        handler = {
            "transform": cmd_transform,
            "verify": cmd_verify,
            "discrepancy": cmd_discrepancy,
        }[args.command]
        text, code = handler(config)
    except (ConfigError, DomainError) as exc:
        # domain violations at build time are config mistakes, not numerics
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PctError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    out_path = args.output or config["output_path"]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
