"""The closed-form counts: reference values, decomposition identity, and
the classical sanity formulas."""

import hashlib
import itertools
import random
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from tracezero import counting, curves, gf
from tracezero.counting import CountEngine, CountReport, CountRow, carlitz_count, engine_for, gauss_count
from tracezero.errors import BudgetExceededError, InvariantError
from tracezero.fastfield import FieldTable, log_tables, table_for
from tracezero.lpoly import LPolynomial
from tracezero.numtheory import divisors, mobius, prime_power_parts, squarefree_divisors
from tracezero.oracle import cross_check, enum_f_count, enum_irreducible_total

# Reference values.  The n >= 4 entries reproduce the published tables for
# these fields; the q=4 n=3 entry and q=9 n in {2, 4, 7} entries are the
# adjudicated values confirmed by the enumeration oracles in this suite
# (see test_oracle and test_acceptance).
F4_VALUES = {n: v for n, v in zip(range(1, 11), [1, 4, 7, 16, 31, 268, 1135, 4096, 16279, 64684])}
I4_VALUES = {n: v for n, v in zip(range(1, 11), [1, 0, 2, 0, 6, 34, 162, 480, 1808, 6366])}
F9_VALUES = {n: v for n, v in zip(range(1, 9), [1, 9, 9, 89, 801, 6561, 57905, 532089])}
I9_VALUES = {n: v for n, v in zip(range(1, 10), [1, 4, 0, 20, 160, 1080, 8272, 66500, 530592])}


class TestMobius:
    def test_one(self):
        assert mobius(1) == 1

    @pytest.mark.parametrize("m,v", [(2, -1), (5, -1), (6, 1), (30, -1), (10, 1)])
    def test_squarefree(self, m, v):
        assert mobius(m) == v

    @pytest.mark.parametrize("m", [4, 12, 18, 50])
    def test_square_divisor(self, m):
        assert mobius(m) == 0


class TestSquarefreeDivisors:
    @pytest.mark.parametrize("skip", [0, 2, 3, 5, 7])
    def test_equals_the_nonzero_mobius_divisors(self, skip):
        for m in range(1, 3001):
            got = squarefree_divisors(m, skip)
            want = {(d, mobius(d)) for d in divisors(m) if mobius(d) and (skip == 0 or d % skip)}
            assert len(got) == len(want) and set(got) == want, m


def _all_divisor_sum(q, n, keep):
    """sum mobius(d) q**(n/d) over every d | n with keep(d), zero terms included."""
    return sum(mobius(d) * q ** (n // d) for d in divisors(n) if keep(d))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_gauss_and_carlitz_equal_the_all_divisor_sums(q):
    p, _ = prime_power_parts(q)
    for n in range(1, 121):
        assert gauss_count(q, n) == _all_divisor_sum(q, n, lambda d: True) // n
        assert carlitz_count(q, n) == _all_divisor_sum(q, n, lambda d: d % p) // (q * n)


class TestGaussCount:
    def test_small_values(self):
        assert gauss_count(2, 3) == 2
        assert gauss_count(4, 2) == (16 - 4) // 2

    @pytest.mark.parametrize("q,n", [(9, 4), (4, 5), (2, 10), (5, 4)])
    def test_against_orbit_enumeration(self, q, n):
        assert gauss_count(q, n) == enum_irreducible_total(q, n)


def _count_irreducible_with_fixed_subleading(field, n, gamma):
    """Brute force: monic degree-n irreducibles whose x^(n-1) coefficient
    is gamma, everything else free."""
    count = 0
    for tup in itertools.product(field.element_list, repeat=n - 1):
        coeffs = tup[::-1] + (gamma, field.one)
        if gf.is_irreducible(coeffs, field):
            count += 1
    return count


class TestCarlitzCount:
    def test_smallest_case(self):
        assert carlitz_count(2, 2) == 1

    def test_against_enumeration_with_nonzero_trace(self):
        F4 = gf.make_field(2, 2)
        want = carlitz_count(4, 3)
        for gamma in F4.element_list:
            if F4.is_zero(gamma):
                continue
            assert _count_irreducible_with_fixed_subleading(F4, 3, gamma) == want

    def test_binary_quartics_with_unit_trace(self):
        F2 = gf.make_field(2, 1)
        assert carlitz_count(2, 4) == _count_irreducible_with_fixed_subleading(
            F2, 4, 1
        )


class TestEngineValues:
    def test_f_counts_q4(self, engine):
        e = engine(4)
        for n, want in F4_VALUES.items():
            assert e.f_count(n) == want

    def test_i_counts_q4(self, engine):
        e = engine(4)
        for n, want in I4_VALUES.items():
            assert e.i_count(n) == want

    def test_f_counts_q9(self, engine):
        e = engine(9)
        for n, want in F9_VALUES.items():
            assert e.f_count(n) == want

    def test_i_counts_q9(self, engine):
        e = engine(9)
        for n, want in I9_VALUES.items():
            assert e.i_count(n) == want

    def test_unit_degree_conventions(self, engine):
        for q in (2, 3, 4, 5, 9):
            assert engine(q).f_count(1) == 1
            assert engine(q).i_count(1) == 1

    def test_worked_intermediates(self, engine, curve_lpolys):
        lps4 = curve_lpolys(engine(4))
        assert len(lps4) == 3
        assert sum(lp.predict_count(5) - (4**5 + 1) + 1 for lp in lps4) == -176
        lps9 = curve_lpolys(engine(9))
        assert len(lps9) == 32
        assert sum(lp.predict_count(5) - (9**5 + 1) for lp in lps9) == 5768

    def test_engine_selfcheck_ran(self, engine):
        for q in (2, 3, 4, 9):
            assert engine(q).verified_depth == 2


def _per_curve_f_count(e, lpolys, n):
    """The element count summed curve by curve, one formula per characteristic;
    lpolys holds each curve's class L-polynomial."""
    q = e.q
    defects = [lp.predict_count(n) - (q**n + 1) for lp in lpolys]
    if e.p == 2:
        num = q**n + (q - 1) * sum(s + 1 for s in defects)
    else:
        num = q**n + (q - 1) ** 2 + sum(defects)
    assert num % (q * q) == 0
    return num // (q * q)


class TestCurveClasses:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_classes_partition_the_units(self, engine, curve_lpolys, q):
        e = engine(q)
        assert sum(k for _, k in e.classes) == q - 1
        assert len(e.classes) == len(set(curve_lpolys(e)))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_class_sum_equals_the_per_curve_sum(self, engine, curve_lpolys, q):
        e = engine(q)
        lpolys = curve_lpolys(e)
        for n in range(1, 201):
            assert e.f_count(n) == _per_curve_f_count(e, lpolys, n)

    def test_q27_classes(self, engine, curve_lpolys, budget):
        e = engine(27)
        # each c = A*B in F_27* labels 13 curves, all sharing one L-polynomial
        covered = Counter(id(lp) for lp in curve_lpolys(e))
        assert covered == {id(lp): 13 * k for lp, k in e.classes}
        assert e.verified_depth == 2
        for n in range(1, 5):
            assert e.f_count(n) == enum_f_count(27, n, budget)

    @pytest.mark.parametrize("q", [4, 9])
    def test_reads_one_class_count_array_per_degree(self, monkeypatch, q):
        seen = Counter()
        real = counting.class_point_counts

        def counted(field, m, max_elements=None):
            seen[m] += 1
            return real(field, m, max_elements)

        def refuse(*args, **kwargs):
            raise AssertionError("the engine counted one curve on its own")

        monkeypatch.setattr(counting, "class_point_counts", counted)
        monkeypatch.setattr(counting, "count_points", refuse, raising=False)
        e = CountEngine(gf.make_field(*prime_power_parts(q)))
        assert seen == Counter(range(1, e.genus + 3))  # m = 1..genus+2, once each

    @pytest.mark.parametrize("q", [4, 9, 2187])
    def test_never_calls_family_codes_or_curve_family(self, monkeypatch, q):
        # the engine keys its classes by c alone: no array of the family's
        # (q-1)**2/(p-1) curves, 2389298 of them at q = 2187, is built
        def refuse(*args, **kwargs):
            raise AssertionError("the engine keyed or built the curve family")

        # counting imports neither; patching it too catches a later import
        for module in (curves, counting):
            for name in ("family_codes", "curve_family"):
                monkeypatch.setattr(module, name, refuse, raising=module is curves)
        e = CountEngine(gf.make_field(*prime_power_parts(q)))
        assert sum(k for _, k in e.classes) == q - 1

    @pytest.mark.parametrize("q,extra,c", [(4, 1, 2), (4, 2, 3), (9, 1, 5), (9, 2, 8)])
    def test_a_shifted_class_count_names_its_c_and_m(self, monkeypatch, q, extra, c):
        # a count moved by p stays 2 mod p, so only the class prediction sees it
        field = gf.make_field(*prime_power_parts(q))
        m = field.p - 1 + extra
        real = counting.class_point_counts

        def shifted(field, k, max_elements=None):
            counts = real(field, k, max_elements)
            if k == m:
                counts[c] += field.p
            return counts

        monkeypatch.setattr(counting, "class_point_counts", shifted)
        with pytest.raises(InvariantError, match=rf"at m={m} for c={c}$"):
            CountEngine(field)


def _engine_state(e, lpolys) -> str:
    """Each class's coefficients and number of c, in order; the class index
    of each curve's L-polynomial, lpolys; verified_depth and selfcheck_note."""
    index = {id(lp): i for i, (lp, _) in enumerate(e.classes)}
    classes = [(list(lp.coeffs), k) for lp, k in e.classes]
    return repr((classes, [index[id(lp)] for lp in lpolys], e.verified_depth, e.selfcheck_note))


# SHA-256 of _engine_state(engine_for(q)), recorded while every curve of the
# family was still counted on its own.
ENGINE_STATE_DIGESTS = {
    2: "9df8de5c31fdf982bcc74f47c95c22e7d3a9cdd2ed20f3c6c3e18157ff830a64",
    3: "315f7e79393193c49d7857a5ebaf005083078c4143a5a7873562876972ddc565",
    4: "e836289a05ea2160b7fac7de1fc659630ee6132876e9fdcdc5cf426c37072cf1",
    5: "37805a2999f927618416a943ca2857963666c98def2f2cce830c5893507f9f58",
    7: "385c5e0fd1b497dd0d626dac0aade30b37e724be9211b88ded7cdd24a4bb3b30",
    8: "55f9d3216e2655e2b2b35e83e02b3a446963cd6fa8d77db1ae8778abd7e64ad0",
    9: "9f8d827716eb29ab7cbcabb263c6d93cb7d058573ef9e4a781362dd71c1f9126",
    16: "999d862691455cadf8f0d90fe87b592241fe8c3574c12e06d0db7da129d41466",
    25: "dbd754288a1d3570d801d8479d8c13d23cdceabca2b9de0bb062f0129083b062",
    27: "293071827156ec6368b625e137600731e985ef5dcc5d1cad29163f24f42eb500",
    32: "242a7e4b8eb1972f82fd425243653c518989727a9336804eafd914a99dc6ecef",
    64: "fa7f80074419f697fd2c2329c4348b4ce0d7410c04ea774ea3173810faf4bc5d",
    81: "719aca66022c3265e274363e7b7f6f3657610b33c14424ae3c9dc7ec8acd35ef",
    # recorded before F_q's arithmetic moved to exp/log tables
    256: "7a7b37e33d1ef76b5c7d56abac15683098c798fc28e21d9f8588654152b07af3",
    1024: "dde60ccbb2739f02758a831fc69b4fdf22ed881d1caaafc26ce92726ee812878",
    # recorded while the engine keyed every curve of the family by its c;
    # two alpha rows meet every c, and the element cap stops the self-check
    # at depth 0
    2187: "5be53a7d32cda2673df7dcc3c126b55c983564caf2e0a98ed40c377c648821be",
}


@pytest.mark.parametrize("q", sorted(ENGINE_STATE_DIGESTS))
def test_engine_state_is_pinned(engine, curve_lpolys, q):
    e = engine(q)
    digest = hashlib.sha256(_engine_state(e, curve_lpolys(e)).encode()).hexdigest()
    assert digest == ENGINE_STATE_DIGESTS[q]


@pytest.mark.parametrize("q", sorted(ENGINE_STATE_DIGESTS))
def test_lpoly_of_is_each_curves_class(engine, curve_lpolys, q):
    e = engine(q)
    codes = curves.family_codes(e.field)[2].tolist()
    if len(codes) < 10**4:  # curve_family builds one CurveSpec per curve
        assert [curve.c_code for curve in curves.curve_family(e.field)] == codes
    assert all(e.lpoly_of(c) is lp for c, lp in zip(codes, curve_lpolys(e), strict=True))


# SHA-256 of repr([(n, f_count, i_count), ...]) over engine_for(q).table(1,
# 2000), recorded while every class recurred at order 2g with q**n raised
# afresh for every row and divisor term.
SWEEP_DIGESTS = {
    3: "021eed4c14e88e0c753e3a4034d326283be0f27efe32b5ed92dacc003c79becd",
    4: "960b8b8332ba2094ce3a5e11b1f073dcca70cdfd65f13a3b140ef1976bd914d6",
    5: "cfc1755f90f5feed795a83cf95b9d511fb75d457741a289a5710b36d30d3850a",
    7: "f873e51e22fd6e28600a4baffdb5bb964ba84db0d6b9b24075f8d76d11cc9613",
    9: "f57bf321666f66b318f362191fd4c40ab588325f312edc34e8c7bde008a8efb6",
    25: "2ae38fa01f51e63d0a654c718451e2e53cb70f14e5a7807e67d72222531e538e",
    27: "2e0e849c46973823100a69ed95a652a9c298091aa6b128f82105c4691ffdfb74",
}


@pytest.mark.parametrize("q", sorted(SWEEP_DIGESTS))
def test_sweep_is_pinned(q):
    rows = engine_for(q).table(1, 2000).rows
    data = repr([(row.n, row.f_count, row.i_count) for row in rows])
    assert hashlib.sha256(data.encode()).hexdigest() == SWEEP_DIGESTS[q]


@pytest.mark.parametrize("q,bound", [(2187, 12 << 20), (4096, 16 << 20)])
def test_engine_build_stays_small(q, bound):
    # keying all (q-1)**2/(p-1) curves by c and binning trace pairs into
    # q**2 cells peaked at 87.5 MiB at q = 2187 and 259 MiB at q = 4096.
    # At q = 2187 part tables of one 21-bit F_q-coordinate each then peaked
    # at 37.3 MiB; parts of at most 16 bits peak at 6.4 MiB
    log_tables.cache_clear()
    table_for.cache_clear()
    tracemalloc.start()
    try:
        engine_for(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestElementCap:
    @pytest.mark.parametrize(
        "p,r,cap,message",
        [
            (2, 18, 100, "262144**1 elements exceed the cap 100"),
            (5, 1, 10, "5**2 elements exceed the cap 10"),  # the smallest m over the cap
            (3, 9, 1 << 24, "19683**2 elements exceed the cap 16777216"),
            # genus 1, but count_points holds q**2 against the cap
            (2, 13, 1 << 24, "8192**2 elements exceed the cap 16777216"),
        ],
    )
    def test_refused_before_the_family_is_built(self, monkeypatch, p, r, cap, message):
        def refuse(*args, **kwargs):
            raise AssertionError("an array was made before the element cap check")

        monkeypatch.setattr(counting, "c_order", refuse)
        monkeypatch.setattr(counting, "class_point_counts", refuse)
        with pytest.raises(BudgetExceededError) as exc:
            CountEngine(gf.make_field(p, r), max_elements=cap)
        assert str(exc.value) == message


class TestIdentities:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_decomposition(self, engine, q):
        e = engine(q)
        p = e.p
        for n in range(1, 31):
            lhs = e.f_count(n)
            rhs = (q ** (n // p) if n % p == 0 else 0) + sum(
                (n // d) * e.i_count(n // d) for d in divisors(n) if d % p
            )
            assert lhs == rhs

    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_irreducible_count_below_the_unconstrained_one(self, engine, q):
        e = engine(q)
        for n in range(2, 25):
            assert 0 <= e.i_count(n) <= gauss_count(q, n)

    def test_binary_quadratics_never_qualify(self):
        for q in (2, 4, 8, 16):
            assert engine_for(q).i_count(2) == 0


class TestReport:
    def test_table_rows_and_round_trip(self, engine):
        rep = engine(4).table(3, 10)
        assert [r.f_count for r in rep.rows] == [F4_VALUES[n] for n in range(3, 11)]
        assert [r.i_count for r in rep.rows] == [I4_VALUES[n] for n in range(3, 11)]
        # the JSON form holds the three values, big integers as decimal strings
        back = [CountRow(r["n"], int(r["f_count"]), int(r["i_count"])) for r in rep.to_dict()["rows"]]
        assert tuple(back) == rep.rows

    def test_cross_checked_table(self, engine):
        rep = engine(9).table(2, 4)
        assert cross_check(rep, 1 << 16) == {2, 3, 4}
        assert cross_check(rep, 100) == {2}  # 9**3 is over the cap

    @pytest.mark.parametrize("q,n", [(q, n) for q in (2, 9) for n in (2, 3, 1000)])
    def test_a_row_past_the_gauss_count_is_refused(self, q, n):
        p, r = prime_power_parts(q)
        cap = gauss_count(q, n)
        CountReport(p, r, q, (CountRow(n, 0, cap),))
        with pytest.raises(InvariantError, match="exceeds the unconstrained"):
            CountReport(p, r, q, (CountRow(n, 0, cap + 1),))

    def test_range_validation(self, engine):
        with pytest.raises(ValueError):
            engine(4).table(5, 3)

    # far rows: each single request on a cold engine is a jump;
    # near rows: p | n, and n with three prime factors (30, 42, 60)
    @pytest.mark.parametrize(
        "q,n_min,n_max",
        [(9, 2000, 2012)] + [(q, 1, 64) for q in (2, 3, 4, 5, 9)],
    )
    def test_a_table_equals_single_requests(self, q, n_min, n_max):
        rows = engine_for(q).table(n_min, n_max).rows
        single = engine_for(q)
        want = [(n, single.f_count(n), single.i_count(n)) for n in range(n_min, n_max + 1)]
        assert [(r.n, r.f_count, r.i_count) for r in rows] == want

    def test_a_sweep_evaluates_each_f_count_once(self, monkeypatch):
        # the sweep and f_count both evaluate through _f_from
        calls = Counter()
        f_from = CountEngine._f_from

        def counted(self, n, qn):
            calls[n] += 1
            return f_from(self, n, qn)

        monkeypatch.setattr(CountEngine, "_f_from", counted)
        engine_for(9).table(1, 1000)
        assert calls == Counter(range(1, 1001))


class TestExactDivisionGuards:
    def test_gauss_guard_is_unreachable_but_wired(self):
        with pytest.raises(ValueError):
            gauss_count(4, 0)

    def test_carlitz_requires_prime_power(self):
        with pytest.raises(ValueError):
            carlitz_count(6, 2)

    def test_large_degree_stays_integral(self, engine):
        # exercises every internal exact division with thousand-bit integers
        for q in (4, 9):
            e = engine(q)
            for n in (199, 500):
                assert e.i_count(n) >= 0
                assert e.f_count(n) >= 0

    def test_prime_power_parts(self):
        assert prime_power_parts(8) == (2, 3)
        assert prime_power_parts(9) == (3, 2)
        with pytest.raises(ValueError):
            prime_power_parts(12)


def _in_four_threads(ask) -> list:
    """ask(i) for i = 0..3 in four threads released at once, with a short
    switch interval to interleave them finely; returns the four results."""
    start = threading.Barrier(4)
    results, errors = {}, []

    def work(i):
        start.wait()
        try:
            results[i] = ask(i)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return [results[i] for i in range(4)]


class TestThreadSafety:
    def test_shared_engine_across_threads(self):
        # more threads than cores extend the same lazily grown power sums at once
        shared, fresh = engine_for(4), engine_for(4)
        want = [fresh.f_count(n) for n in range(1, 3001)]
        results = _in_four_threads(lambda i: [shared.f_count(n) for n in range(1, 3001)])
        assert all(r == want for r in results)

    def test_cold_jumps_across_threads(self):
        # cold degrees of one engine at once: f_count(n) jumps, while
        # i_count's small divisor terms extend the shared cache
        shared, fresh = engine_for(9), engine_for(9)
        for lp, _ in fresh.classes:
            lp.extend_to(3000)  # sequential
        rng = random.Random(9)
        asks = [rng.sample(range(500, 3001), 12) for _ in range(4)]
        results = _in_four_threads(
            lambda i: [(shared.f_count(n), shared.i_count(n)) for n in asks[i]]
        )
        for r, ask in zip(results, asks):
            assert r == [(fresh.f_count(n), fresh.i_count(n)) for n in ask]
        for (lp, _), (ref, _) in zip(shared.classes, fresh.classes):
            assert lp._sums == ref._sums[: len(lp._sums)]

    def test_one_sweep_in_four_threads(self):
        # each sweep keeps its own memo of f_count, over power sums that the
        # four threads extend at once
        want = engine_for(4).table(1, 500)
        shared = engine_for(4)
        assert all(r == want for r in _in_four_threads(lambda i: shared.table(1, 500)))

    def test_fresh_field_table_across_threads(self, walk_codes):
        # a table's lazy parts (the class walk behind the class counts, the
        # trace codes of the full walk, lam0) are built by whichever thread
        # reads first; two threads start from the class counts, two from the
        # full walk
        tower = gf.make_tower(gf.make_field(3, 2), 4)
        fresh, shared = FieldTable(tower), FieldTable(tower)

        def read(table, classes_first):
            if classes_first:
                return (*table.class_counts, walk_codes(table), table.trace_codes_exp())
            walk = walk_codes(table)
            return (*table.class_counts, walk, table.trace_codes_exp())

        want = read(fresh, True)
        for got in _in_four_threads(lambda i: read(shared, i % 2 == 0)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _no_jump(self, n):
    raise AssertionError(f"jumped to S_{n}")


class TestFarRequests:
    def test_a_far_table_never_jumps(self, monkeypatch):
        fresh, swept = engine_for(9), engine_for(9)
        want = [(n, fresh.f_count(n), fresh.i_count(n)) for n in range(400, 411)]
        monkeypatch.setattr(LPolynomial, "_jump", _no_jump)
        rows = swept.table(400, 410).rows
        assert [(r.n, r.f_count, r.i_count) for r in rows] == want
        assert all(len(lp._sums) == 410 for lp, _ in swept.classes)

    def test_a_repeated_far_count_does_not_jump_again(self, monkeypatch):
        e = engine_for(9)
        first = (e.f_count(2000), e.i_count(2000))
        monkeypatch.setattr(LPolynomial, "_jump", _no_jump)
        assert (e.f_count(2000), e.i_count(2000)) == first


# SHA-256 of f"{F:x},{I:x}" at large n, recorded once by the sequential
# route.  For n = 10**4, every class's power sums were walked from S_1 one
# step beyond the cache at a time (each sum checked against the Weil
# bound), after which f_count and i_count read only cached sums; the
# recurrence-only power_sum that preceded the jump gives the same digests.
# For n = 10**5 the same recurrence and check ran over a sliding window of
# the last 2g sums, keeping S_n at the four degrees n/d that i_count reads,
# because a cache of 10**5 sums per class would take gigabytes.
LARGE_N_DIGESTS = [
    (4, 10**4, "621dfcaac3c56c2a396e8f799af248f2a3ab8e232412821a69848462b8a6e2c2"),
    (9, 10**4, "d432f3dfa703660bfd2b0ce852cef042f87a08167b4f327b6cc80ebda38329c0"),
    (16, 10**4, "5a4271a06a5d0d9e1fa5e73e94c9cddb27da832e913bc59267529380433dcd06"),
    (9, 10**5, "b745542f97c0fb244014f60d73496059202a38179e4783464e8295d965d3565e"),
]


@pytest.mark.parametrize("q,n,digest", LARGE_N_DIGESTS)
def test_large_n_counts_pinned(q, n, digest):
    e = engine_for(q)  # cold: these counts come from jumps
    f, i = e.f_count(n), e.i_count(n)
    assert hashlib.sha256(f"{f:x},{i:x}".encode()).hexdigest() == digest
