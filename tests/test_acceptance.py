"""Acceptance suite: nine go/no-go criteria, one test and pass/fail line each.

Shared work (the benchmark table, the oracle references, the randomized
sweeps) lives in module-scoped fixtures so the whole suite stays inside its
wall-clock budgets; every random draw is seeded, so runs are identical.
Criterion 9's structural invariants are asserted inside every solve by the
solver itself — an audit wrapper installed before the first fixture counts
those checks across criteria 1-6 and proves they are enforcing.
"""

import time

import numpy as np
import pytest

from conftest import mode_density, random_piecewise_cdf, random_polynomial_cdf
from lindley_alt._exact import exact_char, exact_nu
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.bounds import certify_approximation
from lindley_alt.cli import main
from lindley_alt.distributions import (
    ExponentialService,
    prob_B_greater_A,
    triangular_cdf,
    uniform_cdf,
    validate,
)
from lindley_alt.errors import PostconditionViolation
from lindley_alt.oracle import FixedPointProblem, fixed_point_solve, ks_distance, simulate
from lindley_alt.solver import (
    eval_waiting_cdf,
    eval_waiting_density,
    find_roots,
    integral_equation_residual,
    solve,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def audit():
    """Count the solver's per-solve structural checks (criterion 9)."""
    import lindley_alt.solver as solver_module

    original = solver_module._verify_structure
    counter = {"solves_checked": 0}

    def counting(nu, char, mu, roots):
        counter["solves_checked"] += 1
        return original(nu, char, mu, roots)

    solver_module._verify_structure = counting
    yield counter
    solver_module._verify_structure = original


@pytest.fixture(scope="module")
def bench(audit, tmp_path_factory):
    """One timed run of the benchmark-table command (criteria 1-3)."""
    path = tmp_path_factory.mktemp("acceptance") / "table1.csv"
    start = time.perf_counter()
    rc = main(["table1", "--out", str(path)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    rows = {}
    for line in path.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        rows[int(cells[0])] = [float(v) for v in cells[1:]]
    return {"rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def random_solver_sweep(audit):
    """100 randomized validated polynomial solves (criterion 4)."""
    rng = np.random.default_rng(424242)
    xs = np.linspace(1e-9, 1.0, 1025)
    grid = np.linspace(0.0, 1.0, 21)
    worst = {"residual": 0.0, "normalization": 0.0, "imag": 0.0, "min_density": 0.0}
    start = time.perf_counter()
    for _ in range(100):
        dist = random_polynomial_cdf(rng, max_degree=10)
        svc = ExponentialService(float(rng.uniform(0.25, 4.0)))
        sol = solve(dist, svc)
        worst["residual"] = max(
            worst["residual"], integral_equation_residual(sol, dist, svc, grid)
        )
        worst["normalization"] = max(
            worst["normalization"], abs(eval_waiting_cdf(sol, 1.0) - 1.0)
        )
        # the law the modes describe is real; the density series is >= 0
        terms = mode_density(sol, xs)
        worst["imag"] = max(worst["imag"], float(np.max(np.abs(terms.imag))))
        dens = eval_waiting_density(sol, xs)
        worst["min_density"] = min(worst["min_density"], float(np.min(dens)))
    worst["elapsed"] = time.perf_counter() - start
    return worst


@pytest.fixture(scope="module")
def oracle_gaps(audit):
    """Exact solver vs fixed-point oracle across six scenarios (criterion 5)."""
    cases = []
    for mu in (0.5, 1.0, 2.0):
        cases.append((f"uniform mu={mu}", uniform_cdf(), ExponentialService(mu)))
    for order in (1, 5, 10):
        fit = bernstein_fit(triangular_cdf(), order)
        cases.append((f"triangular fit n={order}", fit, ExponentialService(1.0)))
    gaps = {}
    start = time.perf_counter()
    for label, dist, svc in cases:
        sol = solve(dist, svc)
        grid, _ = fixed_point_solve(FixedPointProblem(dist, svc, grid_size=2**14))
        gaps[label] = float(np.max(np.abs(eval_waiting_cdf(sol, grid.x) - grid.values)))
    return {"gaps": gaps, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def monte_carlo_run(audit):
    """10^6-step simulation against the exact law (criterion 6)."""
    dist = uniform_cdf()
    svc = ExponentialService(1.0)
    sol = solve(dist, svc)
    start = time.perf_counter()
    sim = simulate(dist, svc, 10**6, seed=7)
    elapsed = time.perf_counter() - start
    return {
        "ks": ks_distance(sim.samples, sol.cdf),
        "pi0_gap": abs(sim.pi0_hat - sol.pi0),
        "elapsed": elapsed,
    }


def test_criterion_1_fit_error_column(bench):
    eps = [bench["rows"][n][0] for n in (1, 5, 10)]
    expect = [0.1250, 0.0664, 0.0385]
    ok = all(abs(a - b) < 5e-4 for a, b in zip(eps, expect)) and bench["elapsed"] < 5.0
    _report(
        1,
        ok,
        f"fit errors {eps[0]:.4f}/{eps[1]:.4f}/{eps[2]:.4f} vs 0.1250/0.0664/0.0385 "
        f"(tol 5e-4), runtime {bench['elapsed']:.2f}s < 5s",
    )
    assert ok


def test_criterion_2_density_and_cdf_columns(bench):
    import lindley_alt.cli as cli_module
    import lindley_alt.oracle as oracle_module

    # the command's reference really is the fixed-point oracle at 2^14 / 1e-10
    assert cli_module._BENCH_GRID == 2**14
    assert oracle_module.DEFAULT_TOL == 1e-10
    dens = [bench["rows"][n][1] for n in (1, 5, 10)]
    cdfs = [bench["rows"][n][2] for n in (1, 5, 10)]
    dens_expect = [0.0841, 0.0449, 0.0264]
    cdf_expect = [0.0274, 0.0147, 0.0086]
    ok = (
        all(abs(a - b) < 2e-3 for a, b in zip(dens, dens_expect))
        and all(abs(a - b) < 2e-3 for a, b in zip(cdfs, cdf_expect))
        and bench["elapsed"] < 120.0
    )
    _report(
        2,
        ok,
        f"density gaps {dens[0]:.4f}/{dens[1]:.4f}/{dens[2]:.4f} vs "
        f"0.0841/0.0449/0.0264, cdf gaps {cdfs[0]:.4f}/{cdfs[1]:.4f}/{cdfs[2]:.4f} "
        f"vs 0.0274/0.0147/0.0086 (tol 2e-3), runtime {bench['elapsed']:.2f}s < 120s",
    )
    assert ok


def test_criterion_3_bound_columns(bench):
    alt = [bench["rows"][n][3] for n in (1, 5, 10)]
    alt_expect = [0.3283, 0.1744, 0.1013]
    prob = prob_B_greater_A(triangular_cdf(), ExponentialService(1.0))
    certified_ok = True
    for n in (1, 5, 10):
        eps, certified = bench["rows"][n][0], bench["rows"][n][4]
        certified_ok &= abs(certified - eps / (1.0 - prob)) < 1e-6
    ok = (
        all(abs(a - b) < 2e-3 for a, b in zip(alt, alt_expect))
        and abs(prob - 0.380727) < 1e-5
        and certified_ok
    )
    _report(
        3,
        ok,
        f"alternate bounds {alt[0]:.4f}/{alt[1]:.4f}/{alt[2]:.4f} vs "
        f"0.3283/0.1744/0.1013 (tol 2e-3); P[B>A] = {prob:.6f} vs 0.380727 "
        f"(tol 1e-5); certified column = eps/(1-P) alongside",
    )
    assert ok


def test_criterion_4_randomized_solver_consistency(random_solver_sweep):
    w = random_solver_sweep
    ok = (
        w["residual"] < 1e-7
        and w["normalization"] < 1e-10
        and w["imag"] < 1e-8
        and w["min_density"] >= -1e-8
        and w["elapsed"] < 60.0
    )
    _report(
        4,
        ok,
        f"100 random solves: residual {w['residual']:.2e} < 1e-7, "
        f"normalization {w['normalization']:.2e} < 1e-10, imag {w['imag']:.2e} "
        f"< 1e-8, min density {w['min_density']:.2e} >= -1e-8, "
        f"runtime {w['elapsed']:.1f}s < 60s",
    )
    assert ok


def test_criterion_5_oracle_equivalence(oracle_gaps):
    worst = max(oracle_gaps["gaps"].values())
    ok = worst < 2e-4 and oracle_gaps["elapsed"] < 60.0
    _report(
        5,
        ok,
        f"six scenarios, sup |F_exact - F_oracle| worst {worst:.2e} < 2e-4, "
        f"runtime {oracle_gaps['elapsed']:.1f}s < 60s",
    )
    assert ok


def test_criterion_6_monte_carlo_equivalence(monte_carlo_run):
    m = monte_carlo_run
    ok = m["ks"] < 0.005 and m["pi0_gap"] < 0.005 and m["elapsed"] < 30.0
    _report(
        6,
        ok,
        f"10^6 steps (uniform, mu=1, seed 7): KS {m['ks']:.4f} < 0.005, "
        f"|pi0_hat - pi0| {m['pi0_gap']:.4f} < 0.005, "
        f"runtime {m['elapsed']:.1f}s < 30s",
    )
    assert ok


def test_criterion_7_fit_property_suite():
    rng = np.random.default_rng(7)
    targets = [triangular_cdf()]
    targets += [random_piecewise_cdf(rng, max_pieces=4) for _ in range(20)]
    checked = 0
    for dist in targets:
        for order in range(1, 21):
            bernstein_fit(dist, order)  # validation happens in construction
            checked += 1
    linear_ok = True
    for order in range(1, 21):
        fit = bernstein_fit(uniform_cdf(), order)
        linear_ok &= fit.coeffs == pytest.approx((0.0, 1.0), abs=1e-10)
    ok = checked == 420 and linear_ok
    _report(
        7,
        ok,
        f"{checked} fits (21 CDFs x orders 1-20) all validate; linear inputs "
        f"reproduce [0, 1] to 1e-10 at every order",
    )
    assert ok


def test_criterion_8_certified_bound_holds():
    rng = np.random.default_rng(8675309)
    worst_margin = -np.inf
    for k in range(50):
        if k % 2:
            dist = random_polynomial_cdf(rng, max_degree=10)
        else:
            dist = random_piecewise_cdf(rng, max_pieces=4)
        order = int(rng.integers(1, 21))
        svc = ExponentialService(float(rng.uniform(0.25, 4.0)))
        cert = certify_approximation(dist, order, svc, grid_size=2**12)
        margin = cert.cdf_distance - cert.report.certified_bound
        worst_margin = max(worst_margin, margin)
        assert cert.satisfied, (k, order, svc.rate, margin)
    ok = worst_margin <= 5e-4
    _report(
        8,
        ok,
        f"50 randomized certifications: worst measured-minus-certified "
        f"{worst_margin:.2e} <= 5e-4",
    )
    assert ok


def test_criterion_9_structural_invariants(
    audit,
    bench,
    random_solver_sweep,
    oracle_gaps,
    monte_carlo_run,
    monkeypatch,
):
    # criteria 1-3 run 3 solves (shared), 4 runs 100, 5 runs 6, 6 runs 1;
    # each one passed through the solver's structural assertions
    enough_solves = audit["solves_checked"] >= 110

    # the same invariants hold when re-derived outside the solver
    direct_ok = True
    svc = ExponentialService(1.0)
    for order in (1, 5, 10):
        fit = bernstein_fit(triangular_cdf(), order)
        nu = exact_nu(fit.coeffs, svc.rate)
        direct_ok &= nu[-1] == svc.rate
        char = exact_char(nu, svc.rate)
        direct_ok &= all(c == 0 for c in char[1::2])
        roots = find_roots([float(c) for c in char])
        key = lambda r: (round(r.real, 9), round(r.imag, 9))
        direct_ok &= sorted(roots, key=key) == sorted(-roots, key=key)
        conj = np.sort_complex(np.conj(roots))
        direct_ok &= bool(
            np.max(np.abs(np.sort_complex(roots) - conj))
            <= 1e-10 * max(1.0, np.max(np.abs(roots)))
        )

    # and the in-solve assertion is enforcing, not advisory
    import lindley_alt.solver as solver_module

    def failing(nu, char, mu, roots):
        raise PostconditionViolation("negation_closure", "forced for the audit")

    monkeypatch.setattr(solver_module, "_verify_structure", failing)
    enforcing = False
    try:
        solver_module.solve(validate([0.0, 1.0]), ExponentialService(1.0))
    except PostconditionViolation:
        enforcing = True

    ok = enough_solves and direct_ok and enforcing
    _report(
        9,
        ok,
        f"{audit['solves_checked']} solves across criteria 1-6 each ran the "
        f"structural checks (even polynomial, negation/conjugation closure, "
        f"top weight = mu); checks re-verified directly and shown enforcing",
    )
    assert ok
