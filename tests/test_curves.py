"""Curve point counts: solvability path against the naive pair-by-pair
count, family structure, and the relations tying the small curves to the
big one."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracezero import gf
from tracezero.curves import (
    EVEN,
    _lhs_matrix,
    _rhs_maps,
    CurveSpec,
    beta_representatives,
    big_curve_count,
    c_order,
    check_count_cap,
    class_point_counts,
    count_family_naive,
    count_points,
    count_points_naive,
    curve_family,
    family_codes,
)
from tracezero.errors import BudgetExceededError, HasseWeilError
from tracezero.fastfield import FieldTable, log_tables, multiplicative_generator, table_for
from tracezero.numtheory import prime_power_parts
from tracezero.oracle import z_count

F2 = gf.make_field(2, 1)
F4 = gf.make_field(2, 2)
F5 = gf.make_field(5, 1)
F9 = gf.make_field(3, 2)
F25 = gf.make_field(5, 2)


class TestCurveSpec:
    def test_even_takes_no_beta(self):
        with pytest.raises(ValueError):
            CurveSpec(F4, F4.one, F4.one)

    def test_odd_requires_beta(self):
        with pytest.raises(ValueError):
            CurveSpec(F9, F9.one)

    def test_alpha_must_be_unit(self):
        with pytest.raises(ValueError):
            CurveSpec(F4, F4.zero)

    @pytest.mark.parametrize(
        "field,alpha,beta,message",
        [
            (gf.make_field(7, 1), 7, 1, "alpha 7 is not an element of F_7"),
            (F9, (1, 0), (3, 0), r"beta \(3, 0\) is not an element of F_9"),
        ],
        ids=["alpha_F7", "beta_F9"],
    )
    def test_constants_outside_the_field_are_refused(self, field, alpha, beta, message):
        # read as codes, they count 0 points where the naive count finds 2 and 26
        with pytest.raises(ValueError, match=message):
            CurveSpec(field, alpha, beta)

    def test_genus(self):
        assert CurveSpec(F4, F4.one).genus == 1
        assert CurveSpec(F9, F9.one, F9.one).genus == 2
        assert CurveSpec(F5, 1, 1).genus == 4


class TestFamilies:
    def test_sizes(self):
        assert len(curve_family(F2)) == 1
        assert len(curve_family(F4)) == 3
        assert len(curve_family(F9)) == 32

    def test_beta_reps_prime_field(self):
        assert beta_representatives(F5) == [1]

    def test_beta_reps_f9(self):
        reps = beta_representatives(F9)
        assert len(reps) == 4

    def test_beta_reps_f25_pairwise_distinct_cosets(self):
        reps = beta_representatives(F25)
        assert len(reps) == 6
        scalars = [F25.embed(c) for c in range(1, 5)]
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert all(F25.mul(s, a) != b for s in scalars)

    def test_beta_reps_refused_in_characteristic_two(self):
        with pytest.raises(ValueError):
            beta_representatives(F4)

    @staticmethod
    def _greedy_reps(field):
        """The coset scan in canonical order, over gf's arithmetic."""
        reps, seen = [], set()
        scalars = [field.embed(c) for c in range(1, field.p)]
        for a in field.element_list[1:]:
            if a not in seen:
                reps.append(a)
                seen.update(field.mul(s, a) for s in scalars)
        return reps

    @pytest.mark.parametrize("q", [4, 7, 9, 16, 25, 27, 81])
    def test_codes_match_gf(self, q):
        field = gf.make_field(*prime_power_parts(q))
        alpha, beta, c = family_codes(field)
        family = curve_family(field)
        assert alpha.tolist() == [field.code(curve.alpha) for curve in family]
        assert c.tolist() == [field.code(field.mul(*curve.h_coeffs())) for curve in family]
        if field.p == 2:
            assert beta is None
        else:
            assert beta.tolist() == [field.code(curve.beta) for curve in family]
            assert beta_representatives(field) == self._greedy_reps(field)
            k = len(beta_representatives(field))
            assert [curve.beta for curve in family[:k]] == beta_representatives(field)

    # every q of the engine state pins in test_counting.py, and 243
    @pytest.mark.parametrize(
        "q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 81, 243, 256, 1024, 2187]
    )
    def test_family_covers_every_c_evenly(self, q):
        # c = alpha**2 when p = 2, a bijection of F_q*, and c = -alpha * beta**2
        # when p is odd, where for each beta alpha -> c is a bijection, so each
        # c occurs once per beta: (q-1)/(p-1) times.  The engine keys its
        # classes by c alone on this, and orders them by c_order
        field = gf.make_field(*prime_power_parts(q))
        c = family_codes(field)[2]
        each = 1 if field.p == 2 else (q - 1) // (field.p - 1)
        assert np.bincount(c, minlength=q).tolist() == [0] + [each] * (q - 1)
        assert c_order(field) == list(dict.fromkeys(c.tolist()))

    def test_family_makes_no_python_product(self, monkeypatch):
        # the family, its beta representatives and its c keys come from
        # F_q's log tables, built from the structure constants
        def refuse(self, a, b):
            raise AssertionError("gf.mul called")

        F81 = gf.make_field(3, 4)
        log_tables.cache_clear()
        monkeypatch.setattr(gf.ExtensionField, "mul", refuse)
        assert len(curve_family(F81)) == 80 * 40
        assert len(beta_representatives(F81)) == 40
        assert family_codes(F81)[2].size == 80 * 40
        assert sorted(c_order(F81)) == list(range(1, 81))


class TestCountPoints:
    def test_hand_enumerated_smallest_case(self):
        curve = CurveSpec(F2, 1)
        assert count_points(curve, 1) == 4
        assert count_points_naive(curve, 1) == 4

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_even_family_agrees_with_naive(self, m):
        for curve in curve_family(F4):
            assert count_points(curve, m) == count_points_naive(curve, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_odd_family_agrees_with_naive(self, m):
        for curve in curve_family(F9):
            assert count_points(curve, m) == count_points_naive(curve, m)

    def test_counts_are_two_mod_p(self):
        for field in (F4, F9, F5):
            for curve in curve_family(field)[:4]:
                for m in (1, 2):
                    assert count_points(curve, m) % field.p == 2 % field.p

    def test_hasse_weil_window(self):
        for field in (F2, F4, F9):
            q = field.order
            for curve in curve_family(field):
                g = curve.genus
                for m in (1, 2, 3):
                    N = count_points(curve, m)
                    assert (N - q**m - 1) ** 2 <= 4 * g * g * q**m

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_points(CurveSpec(F9, F9.one, F9.one), 5, max_elements=1000)
        with pytest.raises(BudgetExceededError):
            count_points_naive(CurveSpec(F9, F9.one, F9.one), 3, max_pairs=1000)

    @pytest.mark.parametrize(
        "q,m_max,cap,message",
        [
            (2, 10**9, 1 << 24, "2**25 elements exceed the cap 16777216"),  # stops at m = 25
            (5, 1, 10, "5**2 elements exceed the cap 10"),  # m runs to 2, as count_points checks
        ],
    )
    def test_count_cap_names_the_first_m_over_the_cap(self, q, m_max, cap, message):
        with pytest.raises(BudgetExceededError) as exc:
            check_count_cap(q, m_max, cap)
        assert str(exc.value) == message

    def test_count_cap_admits_the_cap_itself(self):
        check_count_cap(2, 24, 1 << 24)  # 2**24 is at the cap, not over it

    def test_histogram_cells_are_capped_before_the_tower(self, monkeypatch):
        # at m = 1 the q x q products of F_q outgrow F_q itself
        def refuse(*args, **kwargs):
            raise AssertionError("tower built before the budget check")

        monkeypatch.setattr(gf, "make_tower", refuse)
        with pytest.raises(BudgetExceededError, match=r"25\*\*2 elements"):
            count_points(CurveSpec(F25, F25.one, F25.one), 1, max_elements=600)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reads_the_histogram_not_the_full_walk(self, monkeypatch, m):
        def refuse(self, rows):
            raise AssertionError("count_points read the full walk")

        table_for.cache_clear()
        monkeypatch.setattr(FieldTable, "functionals_exp", refuse)
        for curve in curve_family(F9)[:3]:
            assert count_points(curve, m) == count_points_naive(curve, m)

    def test_weil_failure_names_c(self, monkeypatch):
        v = np.zeros(9, dtype=np.int64)
        v[0] = 10  # all M = 10 cosets of F_81* with both traces zero: 3 * 80 + 2 points
        monkeypatch.setitem(vars(table_for(gf.make_tower(F9, 2))), "class_counts", (v, 10))
        with pytest.raises(HasseWeilError, match=r"^count 242 at m=2 for c=1 violates the Weil bound$"):
            class_point_counts(F9, 2)


@pytest.mark.parametrize(
    "q,m,bound",
    [
        (256, 3, 4 << 20),
        (1024, 2, 12 << 20),
        (1024, 1, 0.6 * (1 << 20)),
        (4096, 1, 2 << 20),
        (2187, 2, 12 << 20),
    ],
)
def test_class_counts_stay_small(q, m, bound):
    # the q x q trace-pair histogram that the class counts replaced peaked
    # at 22.3 MB at (256, 3) and 20.3 MB at (1024, 2); binning the pairs
    # into q**2 cells then peaked at 8.1 MiB at (1024, 1), 128.5 MiB at
    # (4096, 1) and 82.6 MiB at (2187, 2).  At (1024, 2) the generator
    # search (6.1 MiB) is now the peak.  At (2187, 2) part tables of one
    # 21-bit F_q-coordinate each peaked at 32.3 MiB; parts of at most 16
    # bits peak at 6.1 MiB
    field = gf.make_field(*prime_power_parts(q))
    log_tables(field)  # F_q's own tables are not the class counts' cost,
    gf.make_tower(field, m)  # nor is the tower's modulus scan
    table_for.cache_clear()
    tracemalloc.start()
    try:
        class_point_counts(field, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def _naive_reference(curve: CurveSpec, m: int, max_pairs: int | None = None) -> int:
    """The pure-Python double loop that count_points_naive used to be."""
    field = curve.field
    q = field.order
    if max_pairs is not None and q ** (2 * m) > max_pairs:
        raise BudgetExceededError(f"{q}**{2*m} pairs exceed the cap {max_pairs}")
    tower = gf.make_tower(field, m)
    p = field.p
    alpha = tower.embed_base(curve.alpha)
    one = tower.one
    if curve.case == EVEN:
        # x (y^2 + y) = alpha (x^2 + 1)
        lhs_of_y = {y: tower.add(tower.mul(y, y), y) for y in tower.elements()}
        def rhs(x):
            return tower.mul(alpha, tower.add(tower.mul(x, x), one))
    else:
        # x (y^p - y) = beta (alpha x^2 - 1)
        beta = tower.embed_base(curve.beta)
        lhs_of_y = {y: tower.sub(tower.pow_(y, p), y) for y in tower.elements()}
        def rhs(x):
            return tower.mul(beta, tower.sub(tower.mul(alpha, tower.mul(x, x)), one))
    affine = 0
    for x in tower.elements():
        if tower.is_zero(x):
            continue
        r = rhs(x)
        for yv in lhs_of_y.values():
            if tower.mul(x, yv) == r:
                affine += 1
    return affine + 2


_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def _pair_grid(limit):
    """Every (q, m) with q**(2m) <= limit."""
    for q in _ORDERS:
        m = 1
        while q ** (2 * m) <= limit:
            yield q, m
            m += 1


class TestCountPointsNaive:
    @pytest.mark.parametrize("q,m", list(_pair_grid(1 << 12)))
    def test_matches_the_double_loop(self, q, m):
        field = gf.make_field(*prime_power_parts(q))
        for curve in curve_family(field):
            assert count_points_naive(curve, m) == _naive_reference(curve, m), (
                curve.describe()
            )

    @pytest.mark.parametrize(
        "curve,m,count",
        [
            (CurveSpec(F2, 1), 1, 4),
            (CurveSpec(F4, F4.one), 2, 16),
            (CurveSpec(F9, F9.one, F9.one), 2, 110),
        ],
    )
    def test_reads_no_trace(self, monkeypatch, curve, m, count):
        def refuse(*args, **kwargs):
            raise AssertionError("the naive count must not use a trace")

        monkeypatch.setattr("tracezero.curves.table_for", refuse)
        monkeypatch.setattr(gf.ExtensionField, "trace_to_base", refuse)
        monkeypatch.setattr(gf.ExtensionField, "trace_to_prime", refuse)
        assert count_points_naive(curve, m) == count

    def test_budget_is_checked_before_the_tower(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tower built before the budget check")

        monkeypatch.setattr(gf, "make_tower", refuse)
        with pytest.raises(BudgetExceededError):
            count_points_naive(CurveSpec(F9, F9.one, F9.one), 9, max_pairs=1 << 20)


class TestCountFamilyNaive:
    @pytest.mark.parametrize("q,m", list(_pair_grid(1 << 12)))
    def test_matches_the_double_loop(self, q, m):
        family = curve_family(gf.make_field(*prime_power_parts(q)))
        assert count_family_naive(family, m) == [_naive_reference(c, m) for c in family]

    def test_budget_is_checked_before_the_tower(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tower built before the budget check")

        monkeypatch.setattr(gf, "make_tower", refuse)
        with pytest.raises(BudgetExceededError):
            count_family_naive(curve_family(F9), 9, max_pairs=1 << 20)

    def test_curves_must_share_one_field(self):
        with pytest.raises(ValueError):
            count_family_naive([CurveSpec(F4, F4.one), CurveSpec(F2, 1)], 1)
        with pytest.raises(ValueError):
            count_family_naive([], 1)

    def test_builds_one_tower_per_call(self, monkeypatch):
        calls = []
        real = gf.make_tower

        def counted(base, n):
            calls.append((base, n))
            return real(base, n)

        monkeypatch.setattr(gf, "make_tower", counted)
        counts = count_family_naive(curve_family(F9), 2)
        assert calls == [(F9, 2)]
        assert len(counts) == 32


@st.composite
def _in_budget_curve(draw, limit=1 << 16):
    q, m = draw(st.sampled_from(list(_pair_grid(limit))))
    family = curve_family(gf.make_field(*prime_power_parts(q)))
    return family[draw(st.integers(0, len(family) - 1))], m


@settings(max_examples=40, deadline=None)
@given(case=_in_budget_curve())
def test_routes_agree(case):
    curve, m = case
    assert count_points(curve, m) == count_points_naive(curve, m)


def _literal_grid(limit=4096):
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= limit:
            yield q, m
            m += 1


class TestCountPointsLiteral:
    """count_points against the definition, one field element at a time:
    #C = p * #{x != 0 : trace_to_prime(A x + B / x) = 0} + 2."""

    @pytest.mark.parametrize("q,m", list(_literal_grid()))
    def test_every_curve_of_the_family(self, q, m):
        field = gf.make_field(*prime_power_parts(q))
        tower = gf.make_tower(field, m)
        # x = g**k and 1/x = g**(N-k), multiplied out with the tower arithmetic
        g = multiplicative_generator(tower)
        walk = [tower.one]
        for _ in range(tower.order - 2):
            walk.append(tower.mul(walk[-1], g))
        N = len(walk)
        # trace_to_prime of every element, called once per Frobenius orbit:
        # Tr(y**p) = Tr(y) and (g**j)**p = g**(j*p)
        traces = {tower.zero: tower.trace_to_prime(tower.zero)}
        for j, y in enumerate(walk):
            if y not in traces:
                t = tower.trace_to_prime(y)
                for i in range(tower.r):
                    traces[walk[j * field.p**i % N]] = t
        for curve in curve_family(field):
            A, B = (tower.embed_base(c) for c in curve.h_coeffs())
            zeros = sum(
                traces[tower.add(tower.mul(A, x), tower.mul(B, walk[-k % N]))] == 0
                for k, x in enumerate(walk)
            )
            assert count_points(curve, m) == field.p * zeros + 2, curve.describe()


class TestLinearMaps:
    """The F_p-linear maps of count_family_naive against per-element gf
    arithmetic, at sizes past the double loop's grid."""

    @pytest.mark.parametrize("q,m", [*_literal_grid(), (25, 2), (27, 2)])
    def test_digit_table_is_the_flat_digits(self, q, m):
        tower = gf.make_tower(gf.make_field(*prime_power_parts(q)), m)
        expected = [tower.flat_digits(x) for x in tower.elements()]
        assert gf.digit_table(tower).tolist() == [list(digs) for digs in expected]

    @pytest.mark.parametrize("q,m", [(3, 4), (5, 3), (9, 2), (4, 4), (8, 3)])
    def test_maps_match_the_tower_arithmetic(self, q, m):
        field = gf.make_field(*prime_power_parts(q))
        tower = gf.make_tower(field, m)
        p, xs = field.p, tower.element_list
        digits, T = gf.digit_table(tower), gf.structure_constants(tower)
        # L(y) = y**p - y
        assert (digits @ _lhs_matrix(tower).T % p).tolist() == [
            list(tower.flat_digits(tower.sub(tower.pow_(y, p), y))) for y in xs
        ]
        squares = (gf.mul_by_matrices(digits, T) @ digits[:, :, None])[..., 0] % p
        assert squares.tolist() == [list(tower.flat_digits(tower.mul(x, x))) for x in xs]
        family = curve_family(field)
        maps, shifts = _rhs_maps(tower, T, family)
        for curve, M, t in zip(family, maps, shifts):
            alpha, one = tower.embed_base(curve.alpha), tower.one
            if curve.case == EVEN:  # R(x) = alpha (x^2 + 1)
                rhs = [tower.mul(alpha, tower.add(tower.mul(x, x), one)) for x in xs]
            else:  # R(x) = beta (alpha x^2 - 1)
                beta = tower.embed_base(curve.beta)
                rhs = [
                    tower.mul(beta, tower.sub(tower.mul(alpha, tower.mul(x, x)), one))
                    for x in xs
                ]
            got = (squares @ M.T + t) % p
            assert got.tolist() == [list(tower.flat_digits(r)) for r in rhs], (
                curve.describe()
            )


    def test_lhs_matrix_refuses_inexact_powers(self):
        tower = gf.make_tower(gf.PrimeField(2**31 - 1), 1)  # y**p by 1 x 1 powers mod p
        with pytest.raises(BudgetExceededError, match="2\\*\\*50"):
            _lhs_matrix(tower)


class TestBigCurve:
    def test_alpha_outside_the_field_is_refused(self):
        with pytest.raises(ValueError, match="alpha 9 is not an element of F_7"):
            big_curve_count(gf.make_field(7, 1), 9, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_alpha_invariance_even(self, m):
        counts = {
            big_curve_count(F4, a, m)
            for a in F4.element_list
            if not F4.is_zero(a)
        }
        assert len(counts) == 1

    @pytest.mark.parametrize("q,m", [(4, 3), (8, 2), (16, 2), (3, 4), (5, 3), (9, 2), (25, 2)])
    def test_alpha_times_the_trace(self, q, m):
        # big_curve_count reads Tr(alpha x) as alpha * Tr(x); the functional
        # route, the trace rows after the matrix of x -> alpha x, agrees
        field = gf.make_field(*prime_power_parts(q))
        tower = gf.make_tower(field, m)
        tab = FieldTable(tower)
        v = tab.reversed_exp(tab.trace_codes_exp())
        for a in field.element_list[1:]:
            rows = tab.trace_rows() @ gf.mul_matrix(tower, tower.embed_base(a)) % field.p
            want = q * int((tab.functionals_exp(rows) == v).sum()) + 2
            assert big_curve_count(field, a, m) == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_even_fiber_product(self, m):
        big = big_curve_count(F4, F4.one, m)
        small = sum(count_points(c, m) - (4**m + 1) for c in curve_family(F4))
        assert big - (4**m + 1) == small

    @pytest.mark.parametrize("m", [1, 2])
    def test_odd_fiber_product(self, m):
        reps = beta_representatives(F9)
        for a in F9.element_list:
            if F9.is_zero(a):
                continue
            big = big_curve_count(F9, a, m)
            small = sum(
                count_points(CurveSpec(F9, a, b), m) - (9**m + 1) for b in reps
            )
            assert big - (9**m + 1) == small

    def test_defect_sums_by_direct_counting(self):
        # the same sums the L-polynomial pipeline produces, from raw counts
        even = sum(count_points(c, 5) - (4**5 + 1) + 1 for c in curve_family(F4))
        assert even == -176
        odd = sum(count_points(c, 5) - (9**5 + 1) for c in curve_family(F9))
        assert odd == 5768

    @pytest.mark.parametrize("q,field,nmax", [(4, F4, 3), (9, F9, 2), (5, F5, 3)])
    def test_solvability_identity(self, q, field, nmax):
        for n in range(1, nmax + 1):
            for a in field.element_list:
                if field.is_zero(a):
                    continue
                big = big_curve_count(field, a, n)
                zc = z_count(q, n, "combination", c=a)
                assert big == q * zc - q + 2
