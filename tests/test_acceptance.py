"""Acceptance suite: every exit criterion at its stated tolerance.

All tolerances are zero (exact integer equality) except the two wall-clock
checks, which carry explicit second limits.  Each criterion prints one
PASS/FAIL line; run with -s (or read the captured output) to see them.

Reference values for the q = 4 and q = 9 tables come from the published
tabulation this package reproduces.  Three printed entries there are
internally inconsistent and are adjudicated here by brute-force
enumeration, which always wins: the count of constrained irreducible
cubics over F_4 is 2 (printed as 0), the quartic count over F_9 is 20
(printed as 0), and the degree-7 element count over F_9 is 57905 (printed
as 57904, which would make the degree-7 irreducible count non-integral).
"""

import time

import pytest

from tracezero.counting import engine_for
from tracezero.curves import count_points, curve_family
from tracezero.oracle import enum_f_count, enum_i_count, verify_all
from tracezero.sequences import (
    build_family,
    cross_correlation,
    distinct_family_count,
    family_complexity,
)

SWEEP_CAP = 1 << 22


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_quartic_field_element_counts(engine):
    want = [7, 16, 31, 268, 1135, 4096, 16279, 64684]
    t0 = time.perf_counter()
    e4 = engine(4)
    got = [e4.f_count(n) for n in range(3, 11)]
    elapsed = time.perf_counter() - t0
    report(
        "01 element counts q=4",
        got == want and elapsed < 1.0,
        f"n=3..10 -> {got} in {elapsed:.3f}s",
    )


def test_criterion_02_quartic_field_irreducible_counts(engine, budget):
    e4 = engine(4)
    want = [0, 6, 34, 162, 480, 1808, 6366]
    got = [e4.i_count(n) for n in range(4, 11)]
    ok = got == want
    # degree 3: formula and enumeration must agree with each other; the
    # published entry (0) disagrees with both and is reported, not adopted
    formula3 = e4.i_count(3)
    oracle3 = enum_i_count(4, 3, budget)
    ok = ok and formula3 == oracle3 == 2
    report(
        "02 irreducible counts q=4",
        ok,
        f"n=4..10 -> {got}; n=3 adjudicated {formula3} (formula) = {oracle3} "
        f"(enumeration), published entry 0 is inconsistent and rejected",
    )


def test_criterion_03_worked_intermediates(engine, curve_lpolys):
    # S = #C(F_{q^5}) - (q**5 + 1), curve by curve, from each curve's class
    even_sum = sum(lp.predict_count(5) - (4**5 + 1) + 1 for lp in curve_lpolys(engine(4)))
    odd_sum = sum(lp.predict_count(5) - (9**5 + 1) for lp in curve_lpolys(engine(9)))
    report(
        "03 curve defect sums",
        even_sum == -176 and odd_sum == 5768,
        f"sum(S+1) over F_4 curves at n=5 = {even_sum}; "
        f"sum(S) over F_9 curves at n=5 = {odd_sum}",
    )


def test_criterion_04_nine_element_field_results(engine, budget):
    e9 = engine(9)
    ok = e9.f_count(5) == 801 and e9.i_count(5) == 160 and e9.i_count(6) == 1080
    # the degree-7 entries disagree across the published tables by one;
    # the 9**7 enumeration adjudicates, and the formula must match it
    oracle7 = enum_f_count(9, 7, budget)
    formula7 = e9.f_count(7)
    ok = ok and formula7 == oracle7
    i7 = e9.i_count(7)
    ok = ok and i7 == 8272
    report(
        "04 q=9 results",
        ok,
        f"F(5)={e9.f_count(5)} I(5)={e9.i_count(5)} I(6)={e9.i_count(6)}; "
        f"degree-7 element count adjudicated to {oracle7} by the 9^7 "
        f"enumeration (formula {formula7}), giving I(7)={i7}",
    )


def test_criterion_05_oracle_equivalence_sweep(engine, budget):
    pairs = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        e = engine(q)
        n = 1
        while q**n <= SWEEP_CAP:
            fo = enum_f_count(q, n, budget)
            ff = e.f_count(n)
            assert fo == ff, f"element count mismatch at q={q} n={n}: {fo} vs {ff}"
            io = enum_i_count(q, n, budget)
            fi = e.i_count(n)
            assert io == fi, f"irreducible count mismatch at q={q} n={n}: {io} vs {fi}"
            pairs += 1
            n += 1
    report(
        "05 oracle equivalence",
        pairs == 75,
        f"{pairs} (q, n) pairs with q**n <= 2**22 swept, zero tolerance",
    )


@pytest.mark.parametrize("q,n_max", [(3, 4), (4, 4), (5, 4), (9, 4), (2, 8)])
def test_criterion_06_identity_suite(q, n_max, budget):
    rep = verify_all(q, n_max, budget)
    failures = [c for c in rep.checks if c.status == "fail"]
    ran = sum(1 for c in rep.checks if c.status == "pass")
    report(
        f"06 identity suite q={q}",
        rep.passed and ran > 0,
        f"{ran} checks passed through n={n_max}, {len(failures)} failures",
    )


def test_criterion_07_over_determination(engine, curve_lpolys, budget):
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        e = engine(q)
        for curve, lp in zip(curve_family(e.field), curve_lpolys(e), strict=True):
            g = curve.genus
            for m in (g + 1, g + 2):
                assert lp.predict_count(m) == count_points(
                    curve, m, budget
                ), f"prediction mismatch for {curve.describe()} at m={m}"
                checked += 1
    report(
        "07 over-determination",
        checked > 0,
        f"{checked} predictions beyond the defining counts matched directly",
    )


def test_criterion_08_lpolynomial_invariants(engine, curve_lpolys):
    curves = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        e = engine(q)
        for lp in curve_lpolys(e):
            assert lp.coeffs[0] == 1
            for i in range(lp.g + 1):
                assert lp.coeffs[2 * lp.g - i] == q ** (lp.g - i) * lp.coeffs[i]
            for n in range(1, 61):
                s = lp.power_sum(n)
                assert s * s <= 4 * lp.g * lp.g * q**n
            curves += 1
    report(
        "08 invariants",
        curves > 0,
        f"functional equation and Weil window hold on all {curves} "
        f"L-polynomials; any inexact division anywhere fails the suite",
    )


def test_criterion_09_recurrence_performance():
    timings = {}
    for q in (4, 9):
        engine = engine_for(q)  # fresh, so nothing is pre-extended
        t0 = time.perf_counter()
        value = engine.i_count(500)
        timings[q] = time.perf_counter() - t0
        assert value > 0
        assert timings[q] < 1.0
    report(
        "09 recurrence performance",
        all(t < 1.0 for t in timings.values()),
        f"degree-500 irreducible counts in {timings[4]:.3f}s (q=4) "
        f"and {timings[9]:.3f}s (q=9)",
    )


@pytest.mark.parametrize("p", [5, 7])
def test_criterion_10_sequence_families(p, engine):
    rep = distinct_family_count(p, 5, engine=engine(p))
    ok = rep.distinct_families < rep.bound
    checked = 0
    for f in rep.members:
        fam = build_family(f, p)
        assert 2 ** family_complexity(fam) <= fam.row_count
        for ell in (1, 2, 3):
            assert cross_correlation(fam, ell) <= p - 1
        checked += 1
    report(
        f"10 sequence families p={p}",
        ok and checked == rep.omega_size,
        f"{rep.distinct_families} distinct families < bound {rep.bound} "
        f"(strict); complexity and order-<=3 correlation bounds held on "
        f"all {checked} families",
    )
