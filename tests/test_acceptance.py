"""End-to-end acceptance checks.

Each numbered criterion records a single PASS/FAIL line (see conftest) and
is asserted at its stated tolerance.  Four of the 27 isospectrality runs are
structurally unattainable (half-line mapping range, see the verification
notes in presets) and are marked as strict expected failures.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from conftest import DEFAULT_RUNS, PRESETS, preset_target, record_criterion
from pctsolve import cli, presets, qmath
from pctsolve.eigensolver import Grid, residual_norm, solve_constant_mass
from pctsolve.exprlang import eval_jet, parse
from pctsolve.massmodel import MappingFunction, MassProfile
from pctsolve.pctengine import pct_identity_residual, standard_profile_values, verify
from pctsolve.refpotentials import REFERENCE_KINDS, make_reference

# ---------------------------------------------------------------------------
# 1. constant-mass solver vs closed-form spectra

#: constant-mass verification grids for the three references
REFERENCE_GRIDS = {
    "morse": Grid(-3.5, 8.0, 8001),
    "poschl_teller": Grid(-12.0, 12.0, 8001),
    "hulthen": Grid(1e-8, 30.0, 8001),
}


def test_criterion_1_reference_solver_agreement():
    start = time.time()
    worst = 0.0
    for kind in REFERENCE_KINDS:
        ref = make_reference(kind, **presets.REFERENCE_PARAMS[kind])
        grid = REFERENCE_GRIDS[kind]
        assert grid.n_points <= 8001
        energies = solve_constant_mass(grid, np.asarray(ref.potential(grid.points)), 3)
        for n in range(3):
            rel = abs(energies[n] - ref.energy(n)) / abs(ref.energy(n))
            worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 10.0
    record_criterion(
        1,
        ok,
        f"constant-mass solver vs closed forms: max rel error {worst:.2e} "
        f"(tol 1e-4), {elapsed:.1f}s (limit 10s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. isospectrality for all 27 profile x reference x q runs

_C2_RESULTS = {}
_C2_TIME = [0.0]


def _combo_params():
    for spec in presets.COMBO_TABLE:
        if spec.feasible:
            yield pytest.param(spec, id=spec.name)
        else:
            yield pytest.param(
                spec,
                id=spec.name,
                marks=pytest.mark.xfail(reason=spec.reason, strict=True),
            )


@pytest.mark.parametrize("spec", list(_combo_params()))
def test_criterion_2_isospectrality(spec):
    start = time.time()
    ts = preset_target(spec)
    # the check `pct verify` runs: certified runs report the matrix
    # eigenvalues, the rest fall back to bisection
    energies = verify(ts, spec.n_points, 3).energies
    rel = max(abs(energies[n] - ts.energy(n)) / abs(ts.energy(n)) for n in range(3))
    _C2_TIME[0] += time.time() - start
    _C2_RESULTS[spec.name] = rel
    assert rel < 1e-3, f"{spec.name}: rel error {rel:.2e}"


def test_criterion_2_summary():
    feasible = [s for s in presets.COMBO_TABLE if s.feasible]
    missing = [s.name for s in feasible if s.name not in _C2_RESULTS]
    worst = max(_C2_RESULTS.get(s.name, math.inf) for s in feasible)
    ok = not missing and worst < 1e-3 and _C2_TIME[0] < 120.0
    record_criterion(
        2,
        ok,
        f"isospectrality: {len(feasible)}/27 attainable runs, max rel error "
        f"{worst:.2e} (tol 1e-3), {_C2_TIME[0]:.0f}s (limit 120s); 4 runs "
        "(tanh_sq x morse/poschl_teller at q>=1) structurally unattainable "
        "and marked xfail",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. effective-mass ODE residual of the analytic target states


def _residual_window(ts, n_points):
    """Sub-interval where the states live and h = 1e-3 resolves the ODE."""
    xs = np.linspace(ts.x_min, ts.x_max, n_points)
    fields = ts.fields(xs, (0, 1))
    m, v = fields.mass, fields.potential
    amp = np.zeros_like(xs)
    for psi in fields.states:
        psi = np.abs(psi)
        amp = np.maximum(amp, psi / np.max(psi))
    gap = np.maximum(np.abs(ts.energy(0) - v), np.abs(ts.energy(1) - v))
    resolvable = 1e-3 * np.sqrt(m * np.maximum(gap, 1.0)) < 0.02
    mask = (amp > 1e-5) & resolvable
    i0 = int(np.argmax(mask))
    i1 = len(mask) - 1 - int(np.argmax(mask[::-1]))
    return float(xs[i0]), float(xs[i1])


def test_criterion_3_analytic_state_residual():
    worst = 0.0
    for spec in (PRESETS[name] for name in DEFAULT_RUNS):
        ts = preset_target(spec)
        lo, hi = _residual_window(ts, spec.n_points)
        n_points = max(int(math.ceil((hi - lo) / 1e-3)) + 1, 2001)
        grid = Grid(lo, hi, n_points)
        assert grid.h <= 1e-3
        x = grid.points
        m = np.asarray(ts.profile.mass_jet(x).value, dtype=float)
        v = np.asarray(ts.potential(x), dtype=float)
        for n in (0, 1):
            psi = np.asarray(ts.wavefunction(n, x), dtype=float)
            psi = psi / np.max(np.abs(psi))
            r = residual_norm(grid, psi, ts.energy(n), m, v)
            worst = max(worst, r)
    ok = worst < 1e-4
    record_criterion(
        3,
        ok,
        f"analytic-state ODE residual on h<=1e-3 grids: max {worst:.2e} (tol 1e-4)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. transformation algebra identity

_CUSTOM_TEMPLATES = [
    "{a} + {b}*sin({w}*x)",
    "{a} + {b}*cos({w}*x)",
    "exp({b}*sin({w}*x))",
    "{a} + {b}*tanh({w}*x)^2",
    "{a}/(1 + {b}*x^2)",
    "{a} + {b}*x^2/(4 + x^2)",
    "sqrt({a} + {b}*sin({w}*x))",
    "{a} + {b}*sin({w}*x)*cos(x)",
    "{a} + {b}/(2 + cos({w}*x))",
    "({a} + {b}*tanh(x))^2",
]


def _random_custom_profiles(count=20, seed=20240817):
    rng = np.random.default_rng(seed)
    profiles = []
    while len(profiles) < count:
        template = _CUSTOM_TEMPLATES[len(profiles) % len(_CUSTOM_TEMPLATES)]
        expr = template.format(
            a=round(1.5 + rng.random(), 3),
            b=round(0.1 + 0.4 * rng.random(), 3),
            w=round(0.5 + rng.random(), 3),
        )
        profiles.append(MassProfile.custom(expr, -2.5, 2.5))
    return profiles


def test_criterion_4_pct_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for spec in presets.COMBO_TABLE:
        key = (spec.profile_kind, spec.q, spec.mass_alpha)
        profile = MassProfile(spec.profile_kind, spec.mass_alpha, spec.q)
        lo, _ = profile.domain()
        if math.isfinite(lo):
            # sample the bulk, clear of the branch point where m -> 0
            xs = lo + (1.0 + 7.0 * rng.random(100)) / min(profile.alpha, 1.0)
        else:
            xs = -3.0 + 6.0 * rng.random(100)
        worst = max(worst, float(np.max(pct_identity_residual(profile, xs))))
    for profile in _random_custom_profiles():
        xs = -2.3 + 4.6 * rng.random(100)
        worst = max(worst, float(np.max(pct_identity_residual(profile, xs))))
    ok = worst < 1e-7
    record_criterion(
        4,
        ok,
        f"transformation identity at 100 points/profile incl. 20 random "
        f"custom profiles: max residual {worst:.2e} (tol 1e-7)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. q-deformed identities and the q=1 reduction


def test_criterion_5_q_identities():
    xs = np.linspace(-5.0, 5.0, 2001)
    worst = 0.0
    for q in (0.25, 1.0, 4.0):
        c = qmath.cosh_q(xs, q)
        s = qmath.sinh_q(xs, q)
        scale = np.maximum(1.0, np.maximum(c * c, s * s))
        worst = max(worst, float(np.max(np.abs(c * c - s * s - q) / scale)))
    # q = 1 reduction: deformed evaluation vs plain hyperbolics
    reduction = 0.0
    ref = make_reference("morse", **presets.REFERENCE_PARAMS["morse"])
    for kind, alpha in (
        ("asymptotically_vanishing", 8.0),
        ("tanh_sq", 1.0),
        ("coth_sq", 1.0),
    ):
        profile = MassProfile(kind, alpha, 1.0)
        lo, _ = profile.domain()
        x = (lo if math.isfinite(lo) else -2.0) + np.linspace(0.5, 5.5, 401)
        m_std, f_std, corr_std = standard_profile_values(profile, x)
        mapping = MappingFunction(profile)
        m = np.asarray(profile.mass(x), dtype=float)
        f = np.asarray(mapping.forward(x), dtype=float)
        corr = np.asarray(profile.correction(x), dtype=float)
        v_std = np.asarray(ref.potential(f_std), dtype=float) + corr_std
        v = np.asarray(ref.potential(f), dtype=float) + corr
        psi_std = m_std**0.25 * np.asarray(ref.eigenfunction(0, f_std), dtype=float)
        psi = m**0.25 * np.asarray(ref.eigenfunction(0, f), dtype=float)
        for a, b in ((m_std, m), (f_std, f), (corr_std, corr), (v_std, v), (psi_std, psi)):
            scale = np.maximum(1.0, np.abs(a))
            reduction = max(reduction, float(np.max(np.abs(a - b) / scale)))
    ok = worst < 1e-12 and reduction < 1e-12
    record_criterion(
        5,
        ok,
        f"cosh_q^2 - sinh_q^2 = q: max scaled dev {worst:.2e}; q=1 reduction "
        f"to plain hyperbolics: max scaled dev {reduction:.2e} (tol 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. orthonormality of the transformed states


def test_criterion_6_orthonormality():
    worst = max(
        verify(preset_target(spec), spec.n_points, 3).orthonormality_max_dev
        for spec in (PRESETS[name] for name in DEFAULT_RUNS)
    )
    ok = worst < 1e-3
    record_criterion(
        6,
        ok,
        f"overlap matrix of normalized states vs identity: max dev "
        f"{worst:.2e} (tol 1e-3) over 9 default combinations",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. polynomial recurrences vs high-precision series


def _laguerre_series(n, t, z):
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k in range(n + 1):
            total += (
                (-1) ** k
                * mpmath.binomial(n + t, n - k)
                * mpmath.mpf(z) ** k
                / mpmath.factorial(k)
            )
        return float(total)


def _jacobi_series(n, a, b, z):
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for k in range(n + 1):
            total += (
                mpmath.binomial(n + a, k)
                * mpmath.binomial(n + b, n - k)
                * (z - 1) ** (n - k)
                * (z + 1) ** k
            )
        return float(total / 2**n)


def test_criterion_7_polynomial_oracles():
    worst = 0.0
    for n in range(9):
        for t in (0.5, 2.0, 3.7):
            for z in (0.1, 1.5, 6.0, 15.0):
                ref = _laguerre_series(n, t, z)
                got = qmath.laguerre_assoc(n, t, z)
                # mixed tolerance: relative above 1, absolute at polynomial zeros
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
        for a, b in ((0.3, 0.3), (1.0, 2.0), (2.4, 0.7)):
            for z in (-0.9, -0.3, 0.2, 0.8):
                ref = _jacobi_series(n, a, b, z)
                got = qmath.jacobi(n, a, b, z)
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    ok = worst < 1e-10
    record_criterion(
        7,
        ok,
        f"Laguerre/Jacobi recurrence vs 50-digit series, n<=8: max rel "
        f"error {worst:.2e} (tol 1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. jet derivatives vs finite differences over a generated corpus

_JET_TEMPLATES = [
    "{a}*x^3 - {b}*x + {c}",
    "sin({a}*x)*cos({b}*x)",
    "exp({c}*sin(x)) + {a}",
    "ln({k} + x^2)*{a}",
    "sqrt({k} + cos({a}*x))",
    "tanh({a}*x) + {b}*x",
    "coth({k} + x^2)",
    "sinhq({a}*x)/coshq({b}*x)",
    "tanhq({a}*x)^2 + {c}",
    "{a}/({k} + sechq(x))",
]


def _corpus(count=50, seed=42):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        template = _JET_TEMPLATES[len(out) % len(_JET_TEMPLATES)]
        expr = template.format(
            a=round(0.4 + rng.random(), 3),
            b=round(0.3 + rng.random(), 3),
            c=round(-1.0 + 2.0 * rng.random(), 3),
            k=round(2.0 + rng.random(), 3),
        )
        out.append((expr, {"q": round(0.5 + rng.random(), 3)}))
    return out


def test_criterion_8_jet_derivatives():
    h = 1e-3
    worst = 0.0
    count = 0
    for expr, params in _corpus():
        ast = parse(expr)
        count += 1
        for x in (-1.4, -0.5, 0.2, 0.9, 1.6):
            jet = eval_jet(ast, x, params)
            f = lambda t: eval_jet(ast, t, params).value
            d1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
            d2 = (
                -f(x + 2 * h)
                + 16 * f(x + h)
                - 30 * f(x)
                + 16 * f(x - h)
                - f(x - 2 * h)
            ) / (12 * h * h)
            for got, ref in ((jet.d1, d1), (jet.d2, d2)):
                tol = max(1e-6, 1e-6 * abs(ref))
                worst = max(worst, abs(got - ref) / tol)
    ok = worst < 1.0 and count == 50
    record_criterion(
        8,
        ok,
        f"jet derivatives vs 4th-order differences over {count} expressions: "
        f"worst deviation {worst:.2e} x tolerance max(1e-6, 1e-6|d|)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. audit of the published composite potentials

_AUDIT_DOMAINS = {
    ("asymptotically_vanishing", "morse"): (-3.0, 3.0),
    ("asymptotically_vanishing", "poschl_teller"): (-3.0, 3.0),
    ("asymptotically_vanishing", "hulthen"): (0.5, 8.0),
    ("tanh_sq", "morse"): (0.5, 5.0),
    ("tanh_sq", "poschl_teller"): (0.5, 5.0),
    ("tanh_sq", "hulthen"): (1.5, 8.0),
    ("coth_sq", "morse"): (0.5, 5.0),
    ("coth_sq", "poschl_teller"): (0.5, 5.0),
    ("coth_sq", "hulthen"): (2.0, 8.0),
}


def _audit_config():
    runs = []
    for (pkind, rkind), domain in sorted(_AUDIT_DOMAINS.items()):
        ref = dict(presets.REFERENCE_PARAMS[rkind])
        # the published composite for the rational profile assumes q = 1 in
        # its leading term, so audit that profile at q = 1 to isolate the
        # correction-term discrepancy; the deformed profiles keep q = 0.5
        q = 1.0 if pkind == "asymptotically_vanishing" else 0.5
        runs.append(
            {
                "name": f"{pkind}-{rkind}",
                "mass": {
                    "kind": pkind,
                    "alpha": ref["alpha"],
                    "q": q,
                    "domain": list(domain),
                },
                "reference": {"kind": rkind, **ref},
                "grid": {"n_points": 201, "levels": 1},
            }
        )
    return {"schema_version": 1, "runs": runs}


def test_criterion_9_discrepancy_audit(tmp_path):
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps(_audit_config()))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["discrepancy", str(cfg), "-o", str(out_a)]) == 0
    assert cli.main(["discrepancy", str(cfg), "-o", str(out_b)]) == 0
    deterministic = out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_text().splitlines()
    runs = [line for line in text if line.startswith("# run: ")]
    verdicts = {
        run.split(": ")[1]: verdict.split()[2]
        for run, verdict in zip(runs, (l for l in text if l.startswith("# verdict")))
    }
    # sign finding: for the rational profile the published correction term
    # carries the opposite sign, so construction and print differ by exactly
    # twice the correction where the leading composite term agrees
    profile = MassProfile("asymptotically_vanishing", 1.0, 1.0)
    xs = np.linspace(-3.0, 3.0, 201)
    corr = np.asarray(profile.correction(xs), dtype=float)
    rows = []
    seen = False
    for line in text:
        if line.startswith("# run: "):
            seen = line == "# run: asymptotically_vanishing-poschl_teller"
        elif seen and line and not line.startswith(("#", "x,")):
            rows.append([float(c) for c in line.split(",")])
    dev = np.array([r[3] for r in rows])
    sign_flip_confirmed = bool(np.allclose(dev, 2.0 * np.abs(corr), rtol=1e-9))
    ok = (
        deterministic
        and len(verdicts) == 9
        and all(v in ("MATCH", "MISMATCH") for v in verdicts.values())
        and sign_flip_confirmed
    )
    record_criterion(
        9,
        ok,
        f"audit of 9 published composites produced deterministically; "
        f"verdicts {sum(v == 'MISMATCH' for v in verdicts.values())} MISMATCH / "
        f"{sum(v == 'MATCH' for v in verdicts.values())} MATCH; correction-term "
        f"sign flip in the rational-profile composites confirmed "
        f"({sign_flip_confirmed})",
    )
    assert ok
