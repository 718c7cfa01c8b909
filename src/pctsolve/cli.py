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
from .eigensolver import Grid, d1_numerator, overlap, residual_norm, solve_effective_mass
from .errors import ConfigError, DomainError, PctError
from .massmodel import MassProfile
from .pctengine import TargetSystem, printed_target_potential, standard_profile_values
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
    return float(_require(obj, path, (int, float), "a number"))


def _parse_mass(cfg, path):
    _require(cfg, path, dict, "an object")
    kind = cfg.get("kind")
    if kind not in massmodel.BUILTIN_KINDS + (massmodel.CUSTOM,):
        _fail(f"{path}.kind", f"must be one of {massmodel.BUILTIN_KINDS + (massmodel.CUSTOM,)}")
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
    params = {}
    for name in (f.name for f in dataclasses.fields(refpotentials.REFERENCES[kind])):
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
    name = cfg.get("name", path.rsplit("[", 1)[-1].rstrip("]"))
    _require(name, f"{path}.name", str, "a string")
    profile, domain = _parse_mass(cfg.get("mass"), f"{path}.mass")
    reference = _parse_reference(cfg.get("reference"), f"{path}.reference")
    grid_cfg = cfg.get("grid", {})
    _require(grid_cfg, f"{path}.grid", dict, "an object")
    n_points = grid_cfg.get("n_points", 8001)
    _require(n_points, f"{path}.grid.n_points", int, "an integer")
    if n_points < 16:
        _fail(f"{path}.grid.n_points", "must be >= 16")
    levels = grid_cfg.get("levels", 3)
    _require(levels, f"{path}.grid.levels", int, "an integer")
    if levels < 1:
        _fail(f"{path}.grid.levels", "must be >= 1")
    check_q1 = cfg.get("check_q1_reduction", False)
    if not isinstance(check_q1, bool):
        _fail(f"{path}.check_q1_reduction", "must be a boolean")
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
    out_path = output.get("path")
    if out_path is not None:
        _require(out_path, "config.output.path", str, "a string")
    return {"runs": runs, "output_path": out_path}


# ---------------------------------------------------------------------------
# run assembly


def _build(run):
    ts = TargetSystem.build(run["profile"], run["reference"], run["domain"])
    grid = Grid(ts.x_min, ts.x_max, run["n_points"])
    return ts, grid


def _fmt(v):
    return "%.17g" % float(v)


def _grid_fields(ts, grid, levels):
    """The target's fields on the grid and its states Psi_0..Psi_{levels-1}
    scaled to unit trapezoid norm."""
    fields = ts.fields(grid.points, range(levels))
    states = [psi / np.sqrt(np.trapezoid(psi * psi, dx=grid.h)) for psi in fields.states]
    return fields, states


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(config):
    lines = []
    for run in config["runs"]:
        ts, grid = _build(run)
        levels = min(run["levels"], ts.n_max + 1)
        lines.append(f"# run: {run['name']}")
        for n in range(levels):
            lines.append(f"# E{n} = {_fmt(ts.energy(n))}")
        header = ["x", "m", "f", "V"] + [f"psi{n}" for n in range(levels)]
        lines.append(",".join(header))
        xs = grid.points
        fields, states = _grid_fields(ts, grid, levels)
        m, f, v = fields.mass, fields.f, fields.potential
        for i in range(grid.n_points):
            row = [xs[i], m[i], f[i], v[i]] + [s[i] for s in states]
            lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n", 0


def _verify_one(run):
    ts, grid = _build(run)
    levels = min(run["levels"], ts.n_max + 1)
    xs = grid.points
    mid = 0.5 * (xs[:-1] + xs[1:])
    m_mid = np.asarray(ts.profile.mass(mid), dtype=float)
    fields, states = _grid_fields(ts, grid, levels)
    m, v = fields.mass, fields.potential
    result = solve_effective_mass(grid, m_mid, v, levels, guesses=states)
    tol = run["tolerances"]
    report = {"name": run["name"], "levels": [], "pass": True}
    for n in range(levels):
        exact = ts.energy(n)
        num = float(result.energies[n])
        rel = abs(num - exact) / max(abs(exact), 1e-300)
        ok = rel < tol["energy_rel"]
        report["levels"].append(
            {"n": n, "closed_form": exact, "numerical": num, "rel_error": rel, "pass": ok}
        )
        report["pass"] = report["pass"] and ok
    residuals = []
    # m' by residual_norm's own stencil: its numerator once per run, divided
    # in each window by that window's h (which may differ from grid.h in the
    # last bit)
    dm = d1_numerator(m)
    for n in range(levels):
        # restrict to where the state carries amplitude: outside that window
        # the residual only measures V * (numerically zero) near domain walls
        psi = states[n]
        peak = float(np.max(np.abs(psi)))
        energy = ts.energy(n)
        resolved = grid.h * np.sqrt(m * np.maximum(np.abs(v - energy), 1.0)) < 0.02
        live = np.flatnonzero((np.abs(psi) > 1e-6 * peak) & resolved)
        if live.size == 0 or live[-1] - live[0] < 16:
            # grid too coarse to resolve the state anywhere
            residuals.append(None)
            continue
        i0 = max(int(live[0]) - 2, 0)
        i1 = min(int(live[-1]) + 3, grid.n_points)
        sub = Grid(xs[i0], xs[i1 - 1], i1 - i0)
        m1 = np.full(i1 - i0, np.nan)
        m1[2:-2] = dm[i0 : i1 - 4] / (12 * sub.h)
        r = residual_norm(sub, psi[i0:i1], energy, m[i0:i1], v[i0:i1], mass_d1=m1)
        residuals.append(r / peak)
    report["residual_norms"] = residuals
    if tol["residual"] is not None:
        ok = all(r is not None and r < tol["residual"] for r in residuals)
        report["pass"] = report["pass"] and ok
    # <a|b> = <b|a> bit for bit: each product a*b is commutative
    gram = [[0.0] * levels for _ in range(levels)]
    for i in range(levels):
        for j in range(i, levels):
            gram[i][j] = gram[j][i] = overlap(grid, states[i], states[j])
    dev = max(
        abs(gram[i][j] - (1.0 if i == j else 0.0))
        for i in range(levels)
        for j in range(levels)
    )
    report["orthonormality"] = gram
    report["orthonormality_max_dev"] = dev
    report["pass"] = report["pass"] and dev < tol["orthonormality"]
    if run["check_q1_reduction"]:
        m_std, f_std, corr_std = standard_profile_values(ts.profile, xs)
        f_dev = np.max(np.abs(f_std - fields.f))
        m_dev = np.max(np.abs(m_std - m) / (1.0 + np.abs(m_std)))
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
        ts, grid = _build(run)
        xs = grid.points
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
        for i in range(grid.n_points):
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
