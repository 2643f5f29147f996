"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import itertools
import time

import numpy as np

from quditbell import (
    MaximizeOptions,
    QuditObservable,
    build_basis,
    chsh_optimal_settings,
    chsh_value,
    correlation_matrix,
    exhaustive_qubit_max,
    bloch_expectation,
    ghz,
    lhv_monte_carlo,
    make_diag_pm1,
    make_offdiag_imag_pm1,
    make_offdiag_real_pm1,
    maximize_bell,
    product_expectation,
    scalar_bound,
)

from conftest import random_state, random_traceless_hermitian


def _report(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_generator_orthogonality():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 17):
        gens = build_basis(d)
        gram = np.einsum("jab,kba->jk", gens, gens)
        worst = max(worst, float(np.max(np.abs(gram - 2.0 * np.eye(d * d - 1)))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "generator orthogonality d=2..16",
        worst <= 1e-12 and elapsed < 10.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_ghz2_correlation_matrix():
    start = time.perf_counter()
    t = correlation_matrix(ghz(2)).matrix
    residual = float(np.max(np.abs(t - np.diag([1.0, -1.0, 1.0]))))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "GHZ d=2 correlation matrix",
        residual <= 1e-12 and elapsed < 1.0,
        f"entrywise residual {residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_ghz_spectral_norm():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 9):
        norm = correlation_matrix(ghz(d)).spectral_norm
        worst = max(worst, abs(norm - 2.0 / d))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "GHZ spectral norm = 2/d for d=2..8",
        worst <= 1e-11 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_ghz_multiplicities():
    start = time.perf_counter()
    ok = True
    detail = []
    for d in range(2, 9):
        clusters = correlation_matrix(ghz(d)).spectral.clusters
        expect = {
            d * (d - 1) // 2 + (d - 1): 2.0 / d,
            d * (d - 1) // 2: -2.0 / d,
        }
        got = {c.multiplicity: c.value for c in clusters}
        matches = set(got) == set(expect) and all(
            abs(got[m] - expect[m]) <= 1e-11 for m in expect
        )
        ok = ok and matches
        if not matches:
            detail.append(f"d={d}: {got}")
    elapsed = time.perf_counter() - start
    _report(
        4,
        "GHZ eigenvalue multiplicities d=2..8",
        ok and elapsed < 30.0,
        "; ".join(detail) or f"{elapsed:.1f}s",
    )


def _gamma_assignments(slots, count, balanced=False):
    """`count` integer exponent tuples; balanced parity when requested."""
    if balanced:
        base = [p for p in itertools.product((0, 1), repeat=slots) if sum(p) == slots // 2]
    else:
        base = list(itertools.product((0, 1), repeat=slots))
    out = []
    shift = 0
    while len(out) < count:
        for pattern in base:
            out.append(tuple(g + 2 * shift for g in pattern))
            if len(out) >= count:
                break
        shift += 1
    return out


def test_criterion_05_perfectness_of_constructions():
    start = time.perf_counter()
    worst_plus = 0.0
    worst_minus = 0.0
    for d in (2, 4, 6):
        state = ghz(d)
        for gammas in _gamma_assignments(d, 8, balanced=True):
            signs = [(-1) ** g for g in gammas]
            x = make_diag_pm1(d, signs)
            worst_plus = max(worst_plus, abs(product_expectation(state, x, x) - 1.0))
        for gammas in _gamma_assignments(d // 2, 8):
            x = make_offdiag_real_pm1(d, gammas)
            worst_plus = max(worst_plus, abs(product_expectation(state, x, x) - 1.0))
            y = make_offdiag_imag_pm1(d, gammas)
            worst_minus = max(worst_minus, abs(product_expectation(state, y, y) + 1.0))
    elapsed = time.perf_counter() - start
    _report(
        5,
        "perfect correlations of the +-1 constructions",
        worst_plus <= 1e-12 and worst_minus <= 1e-12 and elapsed < 30.0,
        f"max |e-1|={worst_plus:.2e}, max |e+1|={worst_minus:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_qubit_attainment_and_oracle():
    start = time.perf_counter()
    state = ghz(2)
    ok = True
    details = []
    for sign in (1, -1):
        report = maximize_bell(state, sign, MaximizeOptions(restarts=64, seed=0))
        oracle = exhaustive_qubit_max(state, sign, 200)
        attained = abs(report.best_value - 1.5) <= 1e-6
        agrees = abs(report.best_value - oracle) <= 3e-3
        ok = ok and attained and agrees
        details.append(f"sign {sign:+d}: opt={report.best_value:.8f} oracle={oracle:.8f}")
    elapsed = time.perf_counter() - start
    _report(
        6,
        "d=2 attainment of 3/2 and oracle agreement",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_07_bound_holds_up_to_d6():
    start = time.perf_counter()
    ok = True
    details = []
    for d in (2, 4, 6):
        for sign in (1, -1):
            report = maximize_bell(ghz(d), sign, MaximizeOptions(restarts=64, seed=0))
            within = report.best_value <= 1.5 + 1e-6
            attained = abs(report.best_value - 1.5) <= 1e-9
            ok = ok and within and attained
            details.append(f"d={d} sign={sign:+d}: {report.best_value:.12f}")
    elapsed = time.perf_counter() - start
    _report(
        7,
        "3/2 bound attained for d in {2,4,6}, both signs",
        ok and elapsed < 900.0,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_08_scalar_bound():
    value, argmax = scalar_bound()
    zs = np.linspace(-1.0, 1.0, 1_000_000)
    grid_max = float(np.max(np.sqrt(2.0 * (1.0 - zs)) + zs))
    ok = (
        abs(value - 1.5) <= 1e-9
        and abs(argmax - 0.5) <= 1e-6
        and abs(value - grid_max) <= 1e-9
    )
    _report(
        8,
        "scalar bound max sqrt(2(1-z)) + z = 3/2 at z = 1/2",
        ok,
        f"value={value!r} argmax={argmax!r} grid={grid_max!r}",
    )


def test_criterion_09_dual_path_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(500):
            state = random_state(d, rng)
            t = correlation_matrix(state)
            a = QuditObservable.from_matrix(random_traceless_hermitian(d, rng))
            b = QuditObservable.from_matrix(random_traceless_hermitian(d, rng))
            direct = product_expectation(state, a, b)
            quad = bloch_expectation(t, a.bloch, b.bloch)
            worst = max(worst, abs(direct - quad))
    _report(
        9,
        "trace vs (d/2)<a,Tb> on 500 random triples per d in {2,3,4}",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_10_lhv_bound():
    start = time.perf_counter()
    ok = True
    details = []
    for sign in (1, -1):
        report = lhv_monte_carlo(sign, 100_000, seed=7)
        within = report.max_bell_value <= 1.0 + 1e-9
        ok = ok and within and report.constraint_residual_max <= 1e-9
        details.append(f"sign {sign:+d}: max={report.max_bell_value:.6f}")
    elapsed = time.perf_counter() - start
    _report(
        10,
        "LHV bound over 1e5 constrained models",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_11_chsh_comparator():
    start = time.perf_counter()
    state = ghz(2)
    value = chsh_value(state, *chsh_optimal_settings(state))
    tsirelson = 2.0 * np.sqrt(2.0)
    gap_ok = 1.5 < tsirelson - 1.0
    elapsed = time.perf_counter() - start
    print(f"  comparator: 3/2 = 1.5 < 2*sqrt(2) - 1 = {tsirelson - 1.0:.6f}")
    _report(
        11,
        "CHSH reaches 2 sqrt(2); 3/2 below the CHSH-derived bound",
        abs(value - tsirelson) <= 1e-6 and gap_ok and elapsed < 60.0,
        f"chsh={value:.9f}, {elapsed:.1f}s",
    )
