"""The closed-form counts: reference values, decomposition identity, and
the classical sanity formulas."""

import itertools
import sys
import threading

import pytest

from tracezero import gf
from tracezero.counting import CountReport, carlitz_count, engine_for, gauss_count
from tracezero.numtheory import divisors, mobius, prime_power_parts
from tracezero.oracle import enum_irreducible_total

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

    def test_worked_intermediates(self, engine):
        e4 = engine(4)
        assert sum(e4.curve_defect(i, 5) + 1 for i in range(3)) == -176
        e9 = engine(9)
        assert sum(e9.curve_defect(i, 5) for i in range(32)) == 5768

    def test_engine_selfcheck_ran(self, engine):
        for q in (2, 3, 4, 9):
            assert engine(q).verified_depth == 2


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
        assert all(r.sources == ("formula",) for r in rep.rows)
        assert CountReport.from_dict(rep.to_dict()) == rep

    def test_cross_checked_table(self, engine):
        rep = engine(9).table(2, 4, cross_check_budget=1 << 16)
        assert all(r.sources == ("formula", "oracle") for r in rep.rows)

    def test_range_validation(self, engine):
        with pytest.raises(ValueError):
            engine(4).table(5, 3)


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


class TestThreadSafety:
    def test_shared_engine_across_threads(self):
        # more threads than cores extend the same lazily grown power sums
        # at once, with a short switch interval to interleave them finely
        shared, fresh = engine_for(4), engine_for(4)
        want = [fresh.f_count(n) for n in range(1, 3001)]
        start = threading.Barrier(4)
        results, errors = {}, []

        def work(i):
            start.wait()
            try:
                results[i] = [shared.f_count(n) for n in range(1, 3001)]
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
        assert all(results[i] == want for i in range(4))
