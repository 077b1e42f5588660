"""Brute-force oracles: definitional cross-checks, both irreducible-count
routes, zero-locus counts, and the full verification sweep on small fields."""

from collections import Counter

import numpy as np
import pytest

from tracezero import fastfield, gf, oracle
from tracezero.counting import engine_for
from tracezero.errors import BudgetExceededError
from tracezero.fastfield import FieldTable, table_for
from tracezero.numtheory import prime_power_parts
from tracezero.oracle import (
    enum_f_count,
    enum_f_count_small,
    enum_i_count,
    enum_irreducible_total,
    verify_all,
    z_count,
)


def _tower(q, n):
    p, r = prime_power_parts(q)
    return gf.make_tower(gf.make_field(p, r), n)


class TestEnumF:
    @pytest.mark.parametrize(
        "q,n,want",
        [(4, 2, 4), (4, 5, 31), (9, 5, 801), (2, 3, 1), (3, 2, 3), (2, 1, 1)],
    )
    def test_known_values(self, q, n, want):
        assert enum_f_count(q, n) == want

    @pytest.mark.parametrize(
        "q,n",
        [(2, 2), (2, 5), (3, 3), (4, 2), (4, 3), (5, 2), (9, 2), (8, 2), (7, 2), (16, 2), (27, 2)],
    )
    def test_table_path_matches_definitional_loop(self, q, n):
        tower = _tower(q, n)
        assert enum_f_count(q, n) == enum_f_count_small(tower)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (9, 2), (5, 3)])
    def test_modulus_independence(self, q, n):
        p, r = prime_power_parts(q)
        alt = gf.make_tower_alt(gf.make_field(p, r), n)
        assert enum_f_count(q, n) == enum_f_count(q, n, tower=alt)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enum_f_count(9, 5, 1000)


class TestEnumI:
    @pytest.mark.parametrize(
        "q,n,want", [(4, 3, 2), (9, 4, 20), (9, 2, 4), (4, 6, 34), (2, 1, 1)]
    )
    def test_known_values(self, q, n, want):
        assert enum_i_count(q, n) == want

    @pytest.mark.parametrize(
        "q,n",
        [(2, n) for n in range(2, 11)]
        + [(3, n) for n in range(2, 7)]
        + [(4, n) for n in range(2, 7)]
        + [(5, 4), (5, 5), (7, 4), (8, 3), (8, 4), (9, 3), (9, 4)],
    )
    def test_scan_and_orbit_agree(self, q, n):
        assert enum_i_count(q, n, method="scan") == enum_i_count(q, n, method="orbit")

    @pytest.mark.parametrize(
        "q,n,want",
        [(2, 10, 21), (4, 6, 34), (3, 8, 92), (9, 4, 20),
         (5, 6, 104), (8, 4, 0), (16, 3, 10), (7, 5, 60)],
    )
    def test_scan_counts_are_pinned(self, q, n, want):
        # recorded from the scan's earlier hand-written candidate loop
        assert enum_i_count(q, n, method="scan") == want

    def test_scan_matches_plain_irreducibility_test(self):
        # third route: candidates built by hand, filtered with gf.is_irreducible
        import itertools

        field = gf.make_field(2, 2)
        n = 5
        count = 0
        for tup in itertools.product(field.element_list, repeat=n - 2):
            c0, rest = tup[0], tup[1:]
            if field.is_zero(c0):
                continue
            coeffs = [field.zero] * (n + 1)
            coeffs[0] = c0
            for k, c in enumerate(rest):
                coeffs[2 + k] = c
            coeffs[n] = field.one
            if gf.is_irreducible(tuple(coeffs), field):
                count += 1
        assert count == enum_i_count(4, 5)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            enum_i_count(4, 3, method="guess")

    def test_unknown_method_at_degree_one(self):
        # the method is checked before the n = 1 convention answers
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            enum_i_count(3, 1, method="bogus")

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enum_i_count(9, 9, 100)

    def test_scan_budget_names_its_numbers(self):
        # the scan lists q**(n-2) candidates for n >= 3, and q at n = 2
        for n, cap, count in [(5, 100, "9**3"), (2, 8, "9**1")]:
            with pytest.raises(BudgetExceededError) as exc:
                enum_i_count(9, n, cap, method="scan")
            assert str(exc.value) == (
                f"candidate scan for q=9, n={n}: {count} candidates exceed the cap {cap}"
            )

    def test_scan_runs_when_its_candidates_fit(self):
        # 3**3 = 27 candidates <= 30 < 3**4: the scan runs, and so does auto's fallback
        orbit = enum_i_count(3, 5, method="orbit")
        assert orbit == 4
        assert enum_i_count(3, 5, 30, method="scan") == orbit
        assert enum_i_count(3, 5, 30) == orbit


class TestTotals:
    @pytest.mark.parametrize("q,n,want", [(2, 3, 2), (2, 4, 3), (3, 2, 3)])
    def test_total_irreducibles(self, q, n, want):
        assert enum_irreducible_total(q, n) == want


# The coset route: the enumerations count the class walk, one unit per
# F_q*-coset, and scale by q - 1; held against counts of all N units.

_GRID = [
    (q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27) for n in range(1, 17) if q**n <= 1 << 16
]


def _full_walk_counts(tab, n) -> tuple[int, int, int]:
    """(f, i, total) counted unit by unit off the full walk's trace codes.

    gamma**k lies in F_{q^e} iff gamma**(k * (q**e - 1)) = 1; the degree-n
    units are those in no F_{q^e} for a proper divisor e of n.  n = 1 gives
    i and total by their conventions, 1 and q.
    """
    q, N = tab.tower.q, tab.N
    zero = tab.trace_codes_exp() == 0
    both = zero & tab.reversed_exp(zero)
    k = np.arange(N, dtype=np.int64)
    degree_n = np.ones(N, dtype=bool)
    for e in range(1, n):
        if n % e == 0:
            degree_n &= k * (q**e - 1) % N != 0
    if n == 1:
        return 1 + int(both.sum()), 1, q
    return 1 + int(both.sum()), int((both & degree_n).sum()) // n, int(degree_n.sum()) // n


@pytest.mark.parametrize("q,n", _GRID)
def test_coset_route_matches_the_full_walk(q, n):
    want = _full_walk_counts(FieldTable(_tower(q, n)), n)
    assert (enum_f_count(q, n), enum_i_count(q, n), enum_irreducible_total(q, n)) == want


@pytest.mark.parametrize("q,n", [(q, n) for q, n in _GRID if n > 1 and (q, n) != (2, 2)])
def test_coset_route_matches_the_full_walk_of_another_modulus(q, n):
    alt = gf.make_tower_alt(gf.make_field(*prime_power_parts(q)), n)
    f, i, total = _full_walk_counts(FieldTable(alt), n)
    assert enum_f_count(q, n, tower=alt) == f
    assert (enum_i_count(q, n), enum_irreducible_total(q, n)) == (i, total)


@pytest.mark.parametrize("q,n", [(2, 10), (3, 7), (4, 6), (7, 5), (9, 4), (16, 3), (27, 3)])
def test_enumerations_never_read_the_full_walk(monkeypatch, q, n):
    def refuse(self, rows):
        raise AssertionError("an enumeration read the full walk")

    table_for.cache_clear()  # no table may come in with its trace codes walked
    with monkeypatch.context() as patch:
        patch.setattr(FieldTable, "functionals_exp", refuse)
        got = enum_f_count(q, n), enum_i_count(q, n), enum_irreducible_total(q, n)
    assert got == _full_walk_counts(FieldTable(_tower(q, n)), n)


class TestZCount:
    @pytest.mark.parametrize("q,n", [(4, 2), (4, 3), (4, 4), (4, 5), (4, 6)])
    def test_fiber_sizes(self, q, n):
        assert z_count(q, n, "trace") == q ** (n - 1)
        assert z_count(q, n, "rtrace") == q ** (n - 1)

    @pytest.mark.parametrize("q,nmax", [(3, 4), (4, 4), (5, 3), (9, 3)])
    def test_pair_count_identity(self, q, nmax):
        p, r = prime_power_parts(q)
        field = gf.make_field(p, r)
        for n in range(1, nmax + 1):
            combo = sum(
                z_count(q, n, "combination", c=a) for a in field.elements()
            )
            lhs = q * enum_f_count(q, n)
            assert lhs == z_count(q, n, "trace") + combo - q**n

    def test_combination_needs_multiplier(self):
        with pytest.raises(ValueError):
            z_count(4, 2, "combination")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            z_count(4, 2, "norm")


class TestTableInternals:
    @pytest.mark.parametrize("q,n", [(2, 6), (3, 3), (4, 3), (9, 2)])
    def test_walk_inverts_correctly(self, walk_codes, q, n):
        tower = _tower(q, n)
        tab = table_for(tower)
        encs = walk_codes(tab)
        # gamma**k times gamma**(N-k) is 1, spot-checked through gf
        for k in (1, 2, tab.N // 2, tab.N - 1):
            a = tower.from_flat_digits(gf.code_digits(tab.tower, encs[k : k + 1])[0])
            b = tower.from_flat_digits(
                gf.code_digits(tab.tower, encs[(tab.N - k) % tab.N : (tab.N - k) % tab.N + 1])[0]
            )
            assert tower.mul(a, b) == tower.one


class TestSplitDigitFunctionals:
    """functionals_exp, the blocked pass over the walk, against decoding
    every encoding digit by digit."""

    @pytest.mark.parametrize(
        "q,n,k",
        [
            (2, 1, 3), (5, 1, 3), (7, 1, 3), (2, 7, 3), (3, 3, 3), (8, 3, 3), (5, 3, 3),
            (2, 20, 3), (5, 7, 9), (2, 16, 48),
        ],
        ids=[
            "d1-q2", "d1-q5", "d1-q7", "d7-p2", "d3-p3", "d9-p2", "d3-p5", "d20-p2",
            "d7-p5-second-word", "d16-p2-second-word",
        ],
    )
    def test_matches_decoded_digits(self, walk_codes, q, n, k):
        # the last two overflow one word with the d digits and the k values,
        # so the values are read as a second image of the same parts
        tab = table_for(_tower(q, n))
        assert ((tab.d + k) * tab.w > 63) == (k > 3)
        rng = np.random.default_rng(q * 100 + n)
        rows = rng.integers(0, tab.p, size=(k, tab.d))
        rows[0] = tab.trace_rows()[0]
        got = tab.functionals_exp(rows)
        assert got.shape == (tab.N,) and got.dtype == np.min_scalar_type(tab.p**k - 1)
        step, enc = 1 << 16, walk_codes(tab)
        for s in range(0, tab.N, step):
            want = gf.code_digits(tab.tower, enc[s : s + step]) @ rows.T % tab.p
            assert (got[s : s + step] == want @ tab.p ** np.arange(k)).all()

    @pytest.mark.parametrize("q,n", [(131, 1), (251, 2), (243, 2), (9, 3), (65536, 1)])
    def test_compact_trace_codes(self, walk_codes, q, n):
        tower = _tower(q, n)
        tab = table_for(tower)
        codes, enc = tab.trace_codes_exp(), walk_codes(tab)
        assert codes.dtype == np.min_scalar_type(q - 1)
        for k in np.random.default_rng(q + n).integers(0, tab.N, 64):
            x = tower.from_flat_digits(gf.code_digits(tab.tower, enc[k : k + 1])[0])
            assert codes[k] == tower.base.code(tower.trace_to_base(x))

    @pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (9, 2), (7, 2)])
    def test_trace_pair_histogram(self, trace_pair_histogram, q, n):
        tab = table_for(_tower(q, n))
        codes = tab.trace_codes_exp().astype(np.int64)
        want = np.zeros((q, q), dtype=np.int64)
        np.add.at(want, (codes, tab.reversed_exp(codes)), 1)
        got = trace_pair_histogram(tab)
        assert got.dtype == np.int64 and got.sum() == tab.N
        assert (got == want).all()


class TestVerifyAll:
    @pytest.mark.parametrize("q,nmax", [(4, 5), (9, 3), (2, 8), (5, 3)])
    def test_small_field_suites_pass(self, q, nmax):
        report = verify_all(q, nmax)
        failures = [c for c in report.checks if c.status == "fail"]
        assert report.passed, failures

    def test_report_shape(self):
        report = verify_all(2, 3)
        d = report.to_dict()
        assert d["passed"] is True
        assert {c["status"] for c in d["checks"]} <= {"pass", "skip"}
        names = {c["name"] for c in d["checks"]}
        assert "element_count_formula" in names
        assert "poly_count_decomposition" in names
        assert "big_curve_solvability" in names

    def test_budget_skips_rather_than_fails(self):
        report = verify_all(2, 6, 40)
        assert report.passed
        assert any(c.status == "skip" for c in report.checks)

    @pytest.mark.parametrize("q", [3, 5, 9, 4, 7])
    def test_each_tower_is_walked_once(self, q, monkeypatch):
        # z_count and the q-exponent curve counts read the full walks; the
        # enumerations and the engine's curve counts share the class walks;
        # both are runs of the one checked stream, to length N or M (q > 2,
        # so M < N); table_for keeps every tower through the loop over n,
        # and the alternative-modulus towers are walked outside it
        full, classes = Counter(), Counter()
        walk = FieldTable._walk

        def counting_walk(self, length, rows):
            walks = {self.N: full, self.M: classes}[length]
            walks[self.tower] += 1
            return walk(self, length, rows)

        monkeypatch.setattr(FieldTable, "_walk", counting_walk)
        table_for.cache_clear()
        assert verify_all(q, 4).passed
        assert {_tower(q, n) for n in range(1, 5)} <= set(full) & set(classes)
        assert set(full.values()) == {1}
        assert set(classes.values()) == {1}

    def test_each_tower_is_walked_once_at_q2(self, monkeypatch):
        # at q = 2, M = N: the full walk's trace codes are the class walk's,
        # so every tower, canonical or alternative, is walked once
        walks = Counter()
        walk = FieldTable._walk

        def counting_walk(self, length, rows):
            walks[self.tower] += 1
            return walk(self, length, rows)

        monkeypatch.setattr(FieldTable, "_walk", counting_walk)
        table_for.cache_clear()
        assert verify_all(2, 8).passed
        assert {_tower(2, n) for n in range(1, 9)} <= set(walks)
        assert len(walks) == 14 and set(walks.values()) == {1}

    def test_tower_products_stay_off_the_python_arithmetic(self, monkeypatch):
        # tables and curve checks multiply by F_p matrices from the modulus;
        # the walk's lam0 and the trace's Frobenius stay on gf.mul
        calls = []
        real = gf.ExtensionField.mul

        def counting(self, a, b):
            calls.append(self.n)
            return real(self, a, b)

        for cache in (table_for, gf.structure_constants, fastfield.log_tables):
            cache.cache_clear()
        monkeypatch.setattr(gf.ExtensionField, "mul", counting)
        engine_for(7)
        assert verify_all(3, 4).passed
        assert len(calls) < 1000


class TestVerifyAllFaults:
    """verify_all's fail lines when one curve count or one zero-locus count is off."""

    @staticmethod
    def _fails(report):
        return [(c.name, c.n, c.detail) for c in report.checks if c.status == "fail"]

    @staticmethod
    def _curve_count_off_at_alpha_two(monkeypatch):
        real = oracle.direct_count
        calls = []

        def faulty(counts, curve, c):
            calls.append(curve)
            field = curve.field
            return real(counts, curve, c) + (field.p if field.code(curve.alpha) == 2 else 0)

        monkeypatch.setattr(oracle, "direct_count", faulty)
        return calls

    @staticmethod
    def _combination_off_at_two(monkeypatch):
        real = oracle.z_count
        calls = []

        def faulty(q, n, mode="combination", c=None, max_elements=gf.DEFAULT_MAX_ELEMENTS):
            value = real(q, n, mode, c, max_elements)
            if mode != "combination":
                return value
            calls.append(n)
            return value + (c == 2)

        monkeypatch.setattr(oracle, "z_count", faulty)
        return calls

    def test_even_curve_fault(self, monkeypatch):
        self._curve_count_off_at_alpha_two(monkeypatch)
        assert self._fails(verify_all(4, 3)) == [
            ("fiber_product_even", 1, "1 != 3"),
            ("naive_curve_agreement", 1, "alpha=2: 6 != 4 (1 of 3 disagree)"),
            ("fiber_product_even", 2, "13 != 15"),
            ("naive_curve_agreement", 2, "alpha=2: 26 != 24 (1 of 3 disagree)"),
            ("fiber_product_even", 3, "13 != 15"),
            ("naive_curve_agreement", 3, "alpha=2: 78 != 76 (1 of 3 disagree)"),
        ]

    def test_odd_curve_fault(self, monkeypatch):
        self._curve_count_off_at_alpha_two(monkeypatch)
        assert self._fails(verify_all(9, 2)) == [
            ("fiber_product_odd", 1, "alpha=2: 10 != 22 (1 of 8 disagree)"),
            ("naive_curve_agreement", 1, "alpha=2 beta=1: 23 != 20 (4 of 32 disagree)"),
            ("fiber_product_odd", 2, "alpha=2: 82 != 94 (1 of 8 disagree)"),
            ("naive_curve_agreement", 2, "alpha=2 beta=1: 71 != 68 (4 of 32 disagree)"),
        ]

    def test_zero_locus_fault(self, monkeypatch):
        self._combination_off_at_two(monkeypatch)
        assert self._fails(verify_all(3, 2)) == [
            ("pair_count_identity", 1, "3 != 4"),
            ("big_curve_solvability", 1, "alpha=2: 2 != 5 (1 of 2 disagree)"),
            ("pair_count_identity", 2, "9 != 10"),
            ("big_curve_solvability", 2, "alpha=2: 20 != 23 (1 of 2 disagree)"),
        ]

    def test_each_count_is_made_once_per_n(self, monkeypatch):
        curve_calls = self._curve_count_off_at_alpha_two(monkeypatch)
        z_calls = self._combination_off_at_two(monkeypatch)
        verify_all(9, 2)
        assert len(curve_calls) == 2 * 32
        assert z_calls == [1] * 9 + [2] * 9
