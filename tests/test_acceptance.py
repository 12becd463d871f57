"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (live, bypassing capture) with the measured numbers.

Criteria and expected outcomes:

1  Table-1 reproduction (norms within 2 percent, EOC within 0.05)   - passes
2  Table-2 reproduction (20 values within 5 percent)                - passes
3a PDE solver self-convergence EOC >= 1.9 vs the gamma=1/2 oracle   - passes
3b desk-grid Linf vs Table 3, gamma=0.5, tau in {0.75, 1}, 10 pct   - passes
3c remaining Table-3 cells within max(10 pct, 2x solver estimate)   - FAILS:
   several embedded reference cells are irreproducible artifacts of the
   reference computation itself (its L2 column carries a ~sqrt(2) factor
   against the convention that reproduces tables 1-2 exactly; its
   gamma=0.75 small-tau Linf cells sample the r->0 singularity at the
   reference grid's own 5e-6 spacing; several small cells sit at the
   reference solver's error floor).  The test reports every cell with its
   band and fails honestly rather than widening the bands.
4  Vasicek exactness (residual < 1e-12 at 100 points; bitwise cw)   - passes
5  Coefficient identities and gamma=1/2 specializations             - passes
6a residual expansion h/tau^4 -> k4 + k5 tau with O(tau^2) rest     - passes
6b relative mispricing over (-c5 tau^5) -> 1 within 2 percent       - FAILS:
   the derivable asymptotic (consistent with the error tables and the
   7th-order improved approximation) is +c5 tau^5, so the stated ratio
   converges to -1; the measured value is reported.
6c improved-approximation tau^7 coefficient within 5 percent        - passes
7  byte-identical table CSV across runs                             - passes

Sub-float64 asymptotics (6a at small tau, 6c) are evaluated with the
50-digit oracles from _reference, which are anchored to the production
float64 code elsewhere in the suite.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from _reference import mp_c5, mp_c6, mp_cir, mp_cw, mp_improved, mp_k4, mp_k5, mp_log_pde_residual
from bondkit import (
    DEFAULT_PARAMS,
    PdeConfig,
    RateGrid,
    build_table,
    c5,
    c5_derivatives,
    c6,
    check_table,
    cir_log_price,
    cw_log_price,
    cw_partials,
    evaluate_curve,
    k4,
    k5,
    pde_residual,
    relative_mispricing,
    solve,
    vasicek_log_price,
)
from bondkit.analysis import T3_GOLDEN
from bondkit.cli import main as cli_main

P = DEFAULT_PARAMS


def report(capsys, cid, ok, detail=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_table1_reproduction(capsys, params):
    t0 = time.perf_counter()
    table = build_table("T1", params)
    result = check_table(table)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 60.0
    report(capsys, "1 (table 1: norms 2%, EOC 0.05)", ok,
           f"max deviation {result.max_rel_deviation * 100:.3f}%, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert result.ok, result.summary()


def test_criterion_2_table2_reproduction(capsys, params):
    t0 = time.perf_counter()
    table = build_table("T2", params)
    result = check_table(table)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 60.0
    report(capsys, "2 (table 2: 20 values 5%)", ok,
           f"max deviation {result.max_rel_deviation * 100:.3f}%, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert result.ok, result.summary()


def _linf_vs_cir(sol, tau, r_hi=0.15):
    mask = sol.rates <= r_hi + 1e-12
    d = sol.log_price_at(tau)[mask] - cir_log_price(P, tau, sol.rates[mask])
    return float(np.max(np.abs(d)))


def test_criterion_3a_solver_self_convergence(capsys, params):
    t0 = time.perf_counter()
    errs = []
    for ns, nt in [(251, 250), (501, 1000), (1001, 4000)]:
        sol = solve(params, PdeConfig(n_space=ns, n_time=nt), [1.0])
        errs.append(_linf_vs_cir(sol, 1.0))
    eocs = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(e >= 1.9 for e in eocs)
    report(capsys, "3a (solver EOC >= 1.9)", ok,
           f"EOC {eocs[0]:.2f}, {eocs[1]:.2f}; {elapsed:.1f}s")
    assert ok


def test_criterion_3b_desk_grid_gamma_half(capsys, desk_pde):
    solutions, _, fixture_time = desk_pde
    sol = solutions[0.5]
    mask = sol.rates <= 0.15 + 1e-12
    rates = sol.rates[mask]
    details = []
    ok = True
    for tau, want in [(0.75, 6.694e-8), (1.0, 2.771e-7)]:
        diff = cw_log_price(P, tau, rates) - sol.log_price_at(tau)[mask]
        got = float(np.max(np.abs(diff)))
        rel = abs(got - want) / want
        ok = ok and rel <= 0.10
        details.append(f"tau={tau}: {got:.4e} vs {want:.4e} ({rel * 100:.2f}%)")
    ok = ok and fixture_time < 600.0
    report(capsys, "3b (desk Linf gamma=0.5 within 10%)", ok,
           "; ".join(details) + f"; solves took {fixture_time:.0f}s")
    assert fixture_time < 600.0
    assert ok


def test_criterion_3c_table3_bands(capsys, desk_pde):
    solutions, estimates, fixture_time = desk_pde
    table = build_table("T3", P, pde_solutions=solutions, error_estimates=estimates)
    result = check_table(table, error_estimates=estimates)
    # the criterion covers the three exponents without a closed form;
    # gamma = 0.5 Linf is criterion 3b's and gamma = 0.5 L2 is in no criterion
    cells = [c for c in result.cells if "gamma=0.5," not in c[0]]
    bad = [c for c in cells if not c[4]]
    lines = []
    for label, got, want, band, ok_cell in cells:
        mark = "ok " if ok_cell else "OUT"
        lines.append(f"    {mark} {label}: got {got:.4e} want {want:.4e} band {band:.2e}")
    detail = f"{len(cells) - len(bad)}/{len(cells)} cells in band"
    report(capsys, "3c (table 3 bands, gamma in {0.75,1,1.32})", not bad, detail)
    with capsys.disabled():
        print("\n".join(lines))
    assert fixture_time < 600.0
    assert not bad, f"{len(bad)} cells outside max(10%, 2x solver estimate): " + "; ".join(
        c[0] for c in bad
    )


def test_criterion_4_vasicek_exactness(capsys, vas_params, rng):
    taus = rng.uniform(0.05, 5.0, 100)
    rates = rng.uniform(0.005, 0.3, 100)
    worst = max(
        abs(pde_residual(cw_partials, vas_params, float(t), float(r)))
        for t, r in zip(taus, rates)
    )
    grid = np.linspace(0.0, 0.3, 301)
    bitwise = all(
        np.all(vasicek_log_price(vas_params, tau, grid) == cw_log_price(vas_params, tau, grid))
        for tau in (0.25, 1.0, 5.0, 10.0)
    )
    ok = worst < 1e-12 and bitwise
    report(capsys, "4 (Vasicek exactness)", ok,
           f"max |residual| {worst:.2e} at 100 points; bitwise={bitwise}")
    assert worst < 1e-12
    assert bitwise


def test_criterion_5_coefficient_identities(capsys, params, rng):
    gammas = rng.uniform(0.0, 1.5, 200)
    rates = rng.uniform(0.01, 0.3, 200)
    worst_id = worst_rec = 0.0
    for g, r in zip(gammas, rates):
        p = params.with_gamma(float(g))
        r = float(r)
        a, b = c5(p, r), -k4(p, r) / 5
        worst_id = max(worst_id, abs(a - b) / max(abs(a), abs(b), 1e-300))
        d1, d2 = c5_derivatives(p, r)
        terms = [-6 * c6(p, r), 0.5 * p.sigma**2 * r ** (2 * float(g)) * d2,
                 (p.alpha + p.beta * r) * d1, -k5(p, r)]
        scale = max(abs(t) for t in terms) or 1.0
        worst_rec = max(worst_rec, abs(sum(terms)) / scale)

    s2 = params.sigma**2
    worst_cir = 0.0
    for r in np.linspace(0.002, 0.3, 50):
        r = float(r)
        pairs = [
            (k4(params, r), (s2 / 24) * (params.alpha * params.beta + r * (params.beta**2 - 4 * s2))),
            (k5(params, r), (params.beta * s2 / 40) * (params.alpha * params.beta + (params.beta**2 - 10 * s2) * r)),
            (c5(params, r), -(s2 / 120) * (params.alpha * params.beta + r * (params.beta**2 - 4 * s2))),
            (c6(params, r), (s2 / 360) * (-2 * params.alpha * params.beta**2 + 17 * params.beta * s2 * r
                                          - 2 * params.beta**3 * r + 2 * params.alpha * s2)),
        ]
        for got, want in pairs:
            worst_cir = max(worst_cir, abs(got - want) / max(abs(got), abs(want)))

    worst_fd = 0.0
    gammas_d = rng.uniform(0.5, 1.4, 50)
    rates_d = rng.uniform(0.01, 0.3, 50)
    for g, r in zip(gammas_d, rates_d):
        p = params.with_gamma(float(g))
        r = float(r)
        d1, d2 = c5_derivatives(p, r)
        h1 = 1e-6 * max(r, 1.0)
        fd1 = lambda hh: (c5(p, r + hh) - c5(p, r - hh)) / (2 * hh)
        rich1 = (4 * fd1(h1 / 2) - fd1(h1)) / 3
        h2 = 1e-3 * r
        fd2 = lambda hh: (c5(p, r + hh) - 2 * c5(p, r) + c5(p, r - hh)) / hh**2
        rich2 = (4 * fd2(h2 / 2) - fd2(h2)) / 3
        worst_fd = max(worst_fd, abs(rich1 - d1) / abs(d1), abs(rich2 - d2) / max(abs(d2), 1e-300))

    ok = worst_id <= 1e-13 and worst_rec <= 1e-13 and worst_cir <= 1e-13 and worst_fd <= 1e-6
    report(capsys, "5 (coefficient identities)", ok,
           f"c5=-k4/5: {worst_id:.1e}; recurrence: {worst_rec:.1e}; "
           f"gamma=1/2 forms: {worst_cir:.1e}; derivative FD: {worst_fd:.1e}")
    assert worst_id <= 1e-13
    assert worst_rec <= 1e-13
    assert worst_cir <= 1e-13
    assert worst_fd <= 1e-6


def test_criterion_6a_residual_expansion(capsys, params):
    r = 0.1
    k4v, k5v = mp_k4(params, r), mp_k5(params, r)
    taus = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rems = []
    for tau in taus:
        h = mp_log_pde_residual(mp_cw, params, tau, r)
        rems.append(h / mp.mpf(tau) ** 4 - k4v - k5v * mp.mpf(tau))
    ratios = [float(rems[i] / rems[i + 1]) for i in range(len(rems) - 1)]
    order_ok = all(3.6 <= q <= 4.4 for q in ratios)  # O(tau^2) under halving

    # anchor the oracle to the production residual where float64 resolves it
    anchor_ok = True
    for tau in (0.2, 0.1):
        got = pde_residual(cw_partials, params, tau, r)
        want = float(mp_log_pde_residual(mp_cw, params, tau, r))
        anchor_ok = anchor_ok and abs(got - want) <= 1e-6 * abs(want)
    ok = order_ok and anchor_ok
    report(capsys, "6a (h/tau^4 -> k4 + k5 tau, O(tau^2) rest)", ok,
           f"halving ratios {['%.3f' % q for q in ratios]}, oracle anchored={anchor_ok}")
    assert order_ok
    assert anchor_ok


def test_criterion_6b_mispricing_ratio_as_stated(capsys, params):
    # Stated criterion: relative mispricing / (-c5 tau^5) -> 1 within 2% at
    # tau = 0.05.  The derivable asymptotic is +c5 tau^5 (the sign consistent
    # with tables 1-2 and the 7th-order improved approximation), so the
    # stated ratio converges to -1 and this check fails; kept as stated
    # rather than silently flipping the sign.
    tau = 0.05
    grid = RateGrid(0.01, 0.15, 15)
    ap = evaluate_curve(params, "cw", grid, tau)
    ex = evaluate_curve(params, "cir", grid, tau)
    ratio = relative_mispricing(ap, ex) / (-c5(params, grid.points) * tau**5)
    worst = float(np.max(np.abs(ratio - 1.0)))
    ok = worst <= 0.02
    report(capsys, "6b (mispricing / (-c5 tau^5) -> 1)", ok,
           f"ratio ~ {float(np.mean(ratio)):+.4f} (|ratio-1| max {worst:.3f}); "
           f"ratio to +c5 tau^5 is {float(np.mean(-ratio)):+.4f}")
    assert ok, (
        "stated ratio converges to -1, not +1: the relative mispricing "
        "asymptotic sign is +c5 tau^5"
    )


def test_criterion_6c_tau7_coefficient(capsys, params):
    a, b, s2 = params.alpha, params.beta, params.sigma**2
    tau = mp.mpf("0.05")
    worst = 0.0
    for r in (0.05, 0.1, 0.15):
        coef = -(s2 / 5040) * (11 * a * b**3 + 11 * b**4 * r - 34 * a * b * s2
                               - 180 * b**2 * r * s2 + 34 * r * s2 * s2)
        d = mp_improved(params, tau, r) - mp_cir(params, tau, r)
        ratio = float(d / tau**7 / mp.mpf(coef))
        worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 0.05
    report(capsys, "6c (tau^7 coefficient within 5%)", ok, f"max |ratio-1| {worst:.4f}")
    assert ok


def test_criterion_7_deterministic_csv(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["table", "--table", "1", "--out", str(a)]) == 0
    assert cli_main(["table", "--table", "1", "--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report(capsys, "7 (byte-identical CSV)", identical, f"{a.stat().st_size} bytes")
    assert identical
