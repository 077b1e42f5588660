"""L-polynomial construction, the functional equation, and count extension."""

from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracezero import gf
from tracezero.curves import CurveSpec, count_points, count_points_naive, curve_family
from tracezero.errors import HasseWeilError, NonIntegralError
from tracezero.lpoly import JUMP_MARGIN, LPolynomial

F2 = gf.make_field(2, 1)
F9 = gf.make_field(3, 2)


class TestFromCounts:
    def test_trivial_defect_gives_pure_quadratic(self):
        for q in (2, 3, 4, 9):
            lp = LPolynomial.from_counts(q, 1, [q + 1])
            assert lp.coeffs == (1, 0, q)

    def test_hand_built_genus_one(self):
        # the q=2 curve counted by hand: N_1 = 4
        lp = LPolynomial.from_counts(2, 1, [4])
        assert lp.coeffs == (1, 1, 2)
        # its degree-2 extension must match the naive double loop
        curve = CurveSpec(F2, 1)
        assert lp.predict_count(2) == count_points_naive(curve, 2)

    def test_genus_two_symbolic_relations(self):
        curve = CurveSpec(F9, F9.one, F9.one)
        counts = [count_points(curve, m) for m in (1, 2)]
        lp = LPolynomial.from_counts(9, 2, counts)
        s = 9 + 1 - counts[0]
        u = 81 + 1 - counts[1]
        assert lp.coeffs[1] == -s
        assert lp.coeffs[2] == (s * s - u) // 2
        assert lp.coeffs[3] == 9 * lp.coeffs[1]
        assert lp.coeffs[4] == 81

    def test_count_vector_length_enforced(self):
        with pytest.raises(ValueError):
            LPolynomial.from_counts(9, 2, [10])

    def test_weil_window_enforced(self):
        with pytest.raises(HasseWeilError):
            LPolynomial.from_counts(9, 2, [30, 92])

    def test_inexact_newton_division_raises(self):
        # S_1 = 1, S_2 = 2 makes (S_1^2 - S_2)/2 inexact
        with pytest.raises(NonIntegralError):
            LPolynomial.from_counts(9, 2, [9, 80])

    def test_functional_equation_validated(self):
        with pytest.raises(ValueError):
            LPolynomial(2, 1, (1, 1, 3))


class TestPowerSums:
    def test_pure_recurrence_pattern(self):
        for q in (2, 3, 4, 9):
            lp = LPolynomial(q, 1, (1, 0, q))
            assert [lp.power_sum(n) for n in (1, 2, 3, 4)] == [
                0,
                -2 * q,
                0,
                2 * q * q,
            ]

    def test_weil_bound_along_the_recurrence(self):
        curve = CurveSpec(F9, F9.one, F9.one)
        lp = LPolynomial.from_counts(9, 2, [count_points(curve, m) for m in (1, 2)])
        for n in range(1, 201):
            s = lp.power_sum(n)
            assert s * s <= 4 * lp.g * lp.g * 9**n

    def test_round_trip(self):
        for field in (F2, F9):
            for curve in curve_family(field)[:3]:
                g = curve.genus
                counts = [count_points(curve, m) for m in range(1, g + 1)]
                lp = LPolynomial.from_counts(field.order, g, counts)
                assert [lp.predict_count(m) for m in range(1, g + 1)] == counts


class TestOverDetermination:
    @pytest.mark.parametrize("q,field", [(2, F2), (9, F9)])
    def test_predictions_beyond_the_inputs(self, q, field):
        for curve in curve_family(field):
            g = curve.genus
            counts = [count_points(curve, m) for m in range(1, g + 1)]
            lp = LPolynomial.from_counts(q, g, counts)
            for m in (g + 1, g + 2):
                assert lp.predict_count(m) == count_points(curve, m)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 9]),
    defect=st.integers(min_value=-2, max_value=2),
)
def test_random_genus_one_round_trip(q, defect):
    n1 = q + 1 + defect
    lp = LPolynomial.from_counts(q, 1, [n1])
    assert lp.predict_count(1) == n1
    assert lp.coeffs[2] == q
    # the functional equation pins c_1 both ways
    assert lp.coeffs[1] == n1 - (q + 1)


def _old_first_violation(lp, n_max):
    """The first k <= n_max whose S_k breaks the Weil bound, or None.

    The sequential loop and its check as power_sum had them before the
    running bound, kept verbatim as the reference for the cheaper check.
    """
    sums, cs, g, q = [], lp.coeffs, lp.g, lp.q
    rcs = cs[:0:-1]
    while len(sums) < n_max:
        k = len(sums) + 1
        if k <= 2 * g:
            t = -k * cs[k]
            t -= sum(sums[m - 1] * cs[k - m] for m in range(1, k))
        else:
            t = -sum(map(mul, rcs, sums[-2 * g :]))
        if t * t > 4 * g * g * q**k:
            return k
        sums.append(t)
    return None


class TestWeilCheck:
    def test_boundary_polynomial_passes(self):
        # (1 + 2T)**2: both reciprocal zeros are -2, so S_k**2 = 4 g**2 q**k
        lp = LPolynomial(4, 1, (1, 4, 4))
        assert [lp.power_sum(k) for k in range(1, 301)] == [
            2 * (-2) ** k for k in range(1, 301)
        ]

    def test_forged_polynomial_breaks_at_the_old_step(self):
        # satisfies the functional equation at q = 27, but a reciprocal
        # zero lies outside the Weil circle; the bound first breaks at k = 16
        coeffs = (1, -6, 8, -162, 729)
        k_old = _old_first_violation(LPolynomial(27, 2, coeffs), 200)
        assert k_old == 16
        lp = LPolynomial(27, 2, coeffs)
        for k in range(1, k_old):
            lp.power_sum(k)
        with pytest.raises(HasseWeilError, match=f"S_{k_old} "):
            lp.power_sum(k_old)
        assert len(lp._sums) == k_old - 1

    @pytest.mark.parametrize(
        "q,g,coeffs,k_old",
        [
            # (1 + 11T + 27T**2)**2, as in test_forged_square_fails_the_jump
            (27, 2, (1, 22, 175, 594, 729), 1),
            # ((1 + 6T + 7T**2) (1 + 7T**2)**2)**2: the bound breaks inside
            # Newton's identities over the square root, of degree 6
            (7, 6, (1, 12, 78, 420, 1743, 5880, 17444, 41160, 85407, 144060,
                    187278, 201684, 117649), 4),
        ],
    )
    def test_forged_square_breaks_at_the_old_step(self, q, g, coeffs, k_old):
        assert _old_first_violation(LPolynomial(q, g, coeffs), 200) == k_old
        lp = LPolynomial(q, g, coeffs)
        assert lp._rec[1] == 2  # the sums recur over the square root
        for k in range(1, k_old):
            lp.power_sum(k)
        with pytest.raises(HasseWeilError, match=f"S_{k_old} "):
            lp.power_sum(k_old)
        assert len(lp._sums) == k_old - 1

    def test_forged_polynomial_fails_the_jump(self):
        lp = LPolynomial(27, 2, (1, -6, 8, -162, 729))
        n = JUMP_MARGIN + 100
        for _ in range(2):  # a refused sum is not kept, so asking again refuses again
            with pytest.raises(HasseWeilError, match=f"S_{n} "):
                lp.power_sum(n)
        assert lp._jumps == {}

    def test_forged_square_fails_the_jump(self):
        # L = M**2 with M = 1 + 11T + 27T**2, whose reciprocal zeros lie off
        # the Weil circle (|-11| > 2 sqrt(27)); the jump runs over u + 11,
        # the square root of h = (u + 11)**2, with weight 2
        lp = LPolynomial(27, 2, (1, 22, 175, 594, 729))
        assert lp._half == (-11, 2, [1])
        n = JUMP_MARGIN + 100
        for _ in range(2):
            with pytest.raises(HasseWeilError, match=f"S_{n} "):
                lp.power_sum(n)
        assert lp._jumps == {}


JUMP_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81)
# every bit-pattern edge of the doubling ladder: 2**k - 1 (all ones), 2**k, 2**k + 1
LADDER_EDGES = tuple(2**k + e for k in range(5, 12) for e in (-1, 0, 1))
_sequential: dict = {}


def _order_2g_sums(lp, n_max):
    """S_1..S_n_max by L's own recurrence of order 2g.

    The sequential loop as LPolynomial._extend had it before it recurred
    over L's square root, kept verbatim but for the Weil check as the
    reference for both routes.
    """
    sums, cs, g = [], lp.coeffs, lp.g
    rcs = cs[:0:-1]
    while len(sums) < n_max:
        k = len(sums) + 1
        if k <= 2 * g:
            t = -k * cs[k]
            t -= sum(sums[m - 1] * cs[k - m] for m in range(1, k))
        else:
            t = -sum(map(mul, rcs, sums[-2 * g :]))
        sums.append(t)
    return sums


def _sequential_sums(lp, n_max):
    """S_1..S_n_max of lp by _order_2g_sums, kept per polynomial."""
    key = (lp.q, lp.coeffs)
    if len(_sequential.get(key, ())) < n_max:
        _sequential[key] = _order_2g_sums(lp, n_max)
    return _sequential[key]


def _cold(lp):
    """lp as from_counts builds it: only S_1..S_g cached."""
    return LPolynomial.from_counts(
        lp.q, lp.g, [lp.predict_count(m) for m in range(1, lp.g + 1)]
    )


class TestJump:
    @pytest.mark.parametrize("q", JUMP_FIELDS)
    def test_jump_equals_the_recurrence(self, q, engine):
        for lp, _ in engine(q).classes:
            seq = _sequential_sums(lp, 3000)
            for n in (1, 2, 2 * lp.g, 2 * lp.g + 1, 17, 100, 999, 2000, *LADDER_EDGES):
                assert lp._jump(n) == seq[n - 1], (q, lp.coeffs, n)

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25, 27))
    def test_odd_p_jumps_over_a_square_root(self, q, engine):
        # at odd p, L = M**2 for every class (Kloosterman sums are real), so
        # the jump runs over s of degree (p - 1)/2 with weight 2; at p = 2
        # over h itself, of degree 1
        p = engine(q).p
        d = 1 if p == 2 else (p - 1) // 2
        for lp, _ in engine(q).classes:
            u, w, power_sums = lp._half
            assert w == (1 if p == 2 else 2), (q, lp.coeffs)
            assert len(power_sums) == d
            assert isinstance(u, int) if d == 1 else len(u.v) == d

    @pytest.mark.parametrize("q", (5, 7, 9))
    def test_jump_leaves_the_cache_alone(self, q, engine):
        for cls, _ in engine(q).classes:
            # rebuilt from its g seed counts, the cache holds S_1..S_g; the
            # jump reads none of them and appends none
            lp = _cold(cls)
            n = lp.g + JUMP_MARGIN + 1
            assert lp.power_sum(n) == _sequential_sums(lp, n)[n - 1]
            assert len(lp._sums) == lp.g

    def test_within_the_margin_extends(self, engine):
        lp = _cold(engine(9).classes[0][0])
        n = lp.g + JUMP_MARGIN
        lp.power_sum(n)
        assert len(lp._sums) == n

    def test_a_repeated_jump_is_read_back(self, engine, monkeypatch):
        lp = _cold(engine(9).classes[0][0])
        n = lp.g + JUMP_MARGIN + 1
        calls, jump = [], LPolynomial._jump
        monkeypatch.setattr(
            LPolynomial, "_jump", lambda self, m: calls.append(m) or jump(self, m)
        )
        first = lp.power_sum(n)
        assert lp.power_sum(n) == first == _sequential_sums(lp, n)[n - 1]
        assert calls == [n]
        assert len(lp._sums) == lp.g

    def test_extend_to_walks_past_the_margin(self, engine):
        lp = _cold(engine(9).classes[0][0])
        n = lp.g + JUMP_MARGIN + 500
        lp.extend_to(n)
        assert lp._sums == _sequential_sums(lp, n)[:n]


class TestSequential:
    @pytest.mark.parametrize("q", JUMP_FIELDS)
    def test_extend_equals_the_order_2g_recurrence(self, q, engine):
        for lp, _ in engine(q).classes:
            # from an empty cache (Newton's identities first) and from the g
            # sums from_counts caches
            for fresh in (LPolynomial(q, lp.g, lp.coeffs), _cold(lp)):
                fresh.extend_to(3000)
                assert fresh._sums == _sequential_sums(lp, 3000), (q, lp.coeffs)

    @pytest.mark.parametrize("q", JUMP_FIELDS)
    def test_odd_p_recurs_at_order_g(self, q, engine):
        # at odd p, L = M**2 for every class, and the sums recur over M, of
        # degree g, with weight 2; at p = 2 over L, of degree 2g
        p = engine(q).p
        for lp, _ in engine(q).classes:
            a, w = lp._rec
            g = lp.g
            if p == 2:
                assert (a, w) == (lp.coeffs, 1)
                continue
            assert (len(a) - 1, w) == (g, 2), (q, lp.coeffs)
            square = [0] * (2 * g + 1)
            for i, x in enumerate(a):
                for j, y in enumerate(a):
                    square[i + j] += x * y
            assert tuple(square) == lp.coeffs


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(JUMP_FIELDS),
    index=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=1, max_value=3000),
)
def test_jump_property(engine, q, index, n):
    classes = engine(q).classes
    lp = classes[index % len(classes)][0]
    assert lp._jump(n) == _sequential_sums(lp, 3000)[n - 1]
