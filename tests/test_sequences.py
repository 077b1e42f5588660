"""Legendre-symbol sequence families and their measures."""

import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracezero import gf, sequences
from tracezero.errors import BudgetExceededError, ZeroEvaluationError
from tracezero.sequences import (
    SeqFamily,
    build_family,
    cross_correlation,
    distinct_family_count,
    dual_family,
    family_complexity,
    legendre_symbol,
    omega_members,
)


def reference_cross_correlation(rows, ell):
    """Independent nested-loop maximiser, no prefix reuse, product-filtered."""
    N = len(rows[0])
    best = 0
    for D in itertools.product(range(N), repeat=ell):
        if any(D[i] > D[i + 1] for i in range(ell - 1)):
            continue
        for I in itertools.product(range(len(rows)), repeat=ell):
            bad = False
            for s in range(ell):
                for t in range(ell):
                    if s != t and rows[I[s]] == rows[I[t]] and D[s] == D[t]:
                        bad = True
            if bad:
                continue
            for M in range(1, N - D[-1] + 1):
                total = 0
                for k in range(1, M + 1):
                    term = 1
                    for s in range(ell):
                        term *= rows[I[s]][k + D[s] - 1]
                    total += term
                best = max(best, abs(total))
    return best


class TestLegendre:
    def test_mod_five(self):
        assert legendre_symbol(1, 5) == 1
        assert legendre_symbol(2, 5) == -1
        assert legendre_symbol(0, 5) == 0

    def test_against_square_table_mod_13(self):
        squares = {pow(x, 2, 13) for x in range(1, 13)}
        for a in range(1, 13):
            assert legendre_symbol(a, 13) == (1 if a in squares else -1)


# (member count, leading 16 hex digits of SHA-256 over repr(members)),
# recorded from the earlier hand-written four-loop scan
_OMEGA_DIGESTS = {
    (5, 5): (24, "b1a12bc36afd2aef"),
    (7, 5): (48, "674564ed05895c14"),
    (5, 6): (56, "c496fcb0317ea114"),
    (7, 6): (288, "9f2cff5d51641291"),
    (11, 5): (240, "0a0f36094ce30b06"),
    (3, 7): (18, "6a3597574106013e"),
}


class TestOmega:
    @pytest.mark.parametrize("p,n", sorted(_OMEGA_DIGESTS))
    def test_members_are_pinned(self, p, n):
        members = omega_members(p, n)
        digest = hashlib.sha256(repr(members).encode()).hexdigest()[:16]
        assert (len(members), digest) == _OMEGA_DIGESTS[p, n]

    def test_candidate_shape(self):
        members = omega_members(5, 5)
        field = gf.make_field(5, 1)
        assert 0 < len(members) <= 80  # 4 * 4 * 5 raw candidates
        for f in members:
            assert len(f) == 6 and f[5] == 1
            assert f[4] == 0 and f[1] == 0  # pinned zero coefficients
            assert f[3] != 0 and f[2] != 0  # a_2, a_3 units
            assert gf.is_irreducible(f, field)

    def test_member_count_is_at_most_the_vanishing_count(self, engine):
        from tracezero.oracle import enum_i_count

        assert len(omega_members(5, 5)) <= enum_i_count(5, 5)

    def test_rejects_even_characteristic(self):
        with pytest.raises(ValueError):
            omega_members(2, 5)

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            omega_members(5, 4)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            omega_members(31, 9, max_elements=10_000)

    def test_budget_names_its_numbers(self):
        with pytest.raises(BudgetExceededError) as exc:
            omega_members(31, 9, max_elements=10_000)
        assert str(exc.value) == "30**2 * 31**5 candidates exceed the cap 10000"


class TestBuildFamily:
    def test_shape(self):
        f = omega_members(5, 5)[0]
        fam = build_family(f, 5)
        assert fam.row_count == 4 and fam.length == 4
        assert all(e in (-1, 1) for row in fam.rows for e in row)

    def test_first_row_is_the_plain_legendre_trace(self):
        f = omega_members(7, 5)[0]
        fam = build_family(f, 7)
        direct = tuple(
            legendre_symbol(sum(c * j**k for k, c in enumerate(f)) % 7, 7)
            for j in range(1, 7)
        )
        assert fam.rows[0] == direct

    def test_zero_evaluation_raises_for_reducible_source(self):
        # x^2 - 1 has roots, so some entry hits zero
        with pytest.raises(ZeroEvaluationError):
            build_family((4, 0, 1), 5)

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            SeqFamily(5, 5, (0, 1), ((1, 0, 1, 1),))

    @pytest.mark.parametrize("rows", [((1, 1), (1,)), ((1,), (1, 1, -1))])
    def test_ragged_rows_refused(self, rows):
        with pytest.raises(ValueError):
            SeqFamily(5, 5, (0, 1), rows)


class TestDual:
    def test_involution_and_transposition(self):
        fam = build_family(omega_members(5, 5)[0], 5)
        dual = dual_family(fam)
        assert dual_family(dual) == fam
        assert dual.row_count == fam.length
        for i in range(fam.row_count):
            for j in range(fam.length):
                assert dual.rows[j][i] == fam.rows[i][j]


class TestComplexity:
    def test_two_constant_rows(self):
        fam = SeqFamily(5, 5, (0, 1), ((1, 1, 1, 1), (-1, -1, -1, -1)))
        assert family_complexity(fam) == 1

    def test_single_sign_family(self):
        fam = SeqFamily(5, 5, (0, 1), ((1, 1, 1, 1),))
        assert family_complexity(fam) == 0

    def test_log_bound_on_built_families(self):
        for f in omega_members(5, 5):
            fam = build_family(f, 5)
            assert 2 ** family_complexity(fam) <= fam.row_count

    def test_budget(self):
        rows = tuple(tuple((-1) ** (i + j) for j in range(40)) for i in range(4))
        fam = SeqFamily(41, 5, (0, 1), rows)
        with pytest.raises(BudgetExceededError) as exc:
            family_complexity(fam)
        # sum of C(40, i) * 2**i over i <= 5, the first j past 2**22
        assert str(exc.value) == (
            "22600736 patterns on up to 5 of 40 positions exceed the cap 4194304"
        )


class TestCrossCorrelation:
    def test_single_constant_row(self):
        fam = SeqFamily(5, 5, (0, 1), ((1, 1, 1, 1),))
        assert cross_correlation(fam, 1) == 4

    def test_triangle_bound(self):
        fam = build_family(omega_members(5, 5)[0], 5)
        for ell in (1, 2, 3):
            assert cross_correlation(fam, ell) <= fam.length

    def test_negation_invariance(self):
        fam = build_family(omega_members(5, 5)[0], 5)
        negated = SeqFamily(
            fam.p, fam.n, fam.source, tuple(tuple(-e for e in r) for r in fam.rows)
        )
        for ell in (1, 2):
            assert cross_correlation(fam, ell) == cross_correlation(negated, ell)

    def test_duplicate_rows_need_distinct_shifts(self):
        # two identical rows force d_1 != d_2 for cross terms between them
        rows = ((1, -1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1))
        fam = SeqFamily(5, 5, (0, 1), rows)
        for ell in (1, 2):
            assert cross_correlation(fam, ell) == reference_cross_correlation(
                rows, ell
            )

    def test_matches_reference_on_built_family(self):
        fam = build_family(omega_members(5, 5)[0], 5)
        for ell in (1, 2, 3):
            assert cross_correlation(fam, ell) == reference_cross_correlation(
                fam.rows, ell
            )

    def test_budget(self):
        rows = tuple(tuple((-1) ** (i * j) for j in range(30)) for i in range(20))
        fam = SeqFamily(31, 5, (0, 1), rows)
        with pytest.raises(BudgetExceededError) as exc:
            cross_correlation(fam, 3, max_tuples=1000)
        # C(32, 3) shift tuples, 20**3 row tuples, 30 window lengths
        assert str(exc.value) == "4960 * 20**3 * 30 tuples exceed the cap 1000"


@st.composite
def _small_families(draw):
    """Up to 5 rows of length <= 6, drawn from a pool of at most 3 rows."""
    n = draw(st.integers(1, 6))
    row = st.tuples(*[st.sampled_from((-1, 1))] * n)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))


@settings(max_examples=60, deadline=None)
@given(rows=_small_families(), ell=st.integers(1, 3))
@example(rows=((1,), (1,), (-1,)), ell=2)  # single-column rows
@example(rows=((1,), (-1,), (1,)), ell=3)
def test_cross_correlation_matches_reference(rows, ell):
    fam = SeqFamily(5, 5, (0, 1), rows)
    assert cross_correlation(fam, ell) == reference_cross_correlation(rows, ell)


class TestCrossCorrelationEdges:
    def test_empty_family(self):
        fam = SeqFamily(5, 5, (0, 1), ())
        for ell in (1, 2, 3):
            assert cross_correlation(fam, ell) == 0

    @pytest.mark.parametrize("chunk", [8, 40])
    def test_small_blocks(self, monkeypatch, chunk):
        # 8 products per block split the row tuples; 40 put 3 of the 4
        # shift tuples of l = 1 in one block and the last in another
        monkeypatch.setattr(sequences, "_CHUNK", chunk)
        rows = ((1, -1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1))
        for ell in (1, 2, 3):
            fam = SeqFamily(5, 5, (0, 1), rows)
            assert cross_correlation(fam, ell) == reference_cross_correlation(rows, ell)

    def test_order_must_be_positive(self):
        fam = SeqFamily(5, 5, (0, 1), ((1, -1),))
        with pytest.raises(ValueError):
            cross_correlation(fam, 0)


# SHA-256 over repr([(family_complexity, cc_1, cc_2, cc_3) per member]) of
# build_family over Omega_{p,5}, recorded from the pure-Python loop search
_SCAN_DIGESTS = {
    5: "0029eeeb8eb7c19b9574ff3ba0a8a2396e95a74e861fce2c2139dab3e9a6694b",
    7: "80a44b3efe2dbcfb0e3ae08c1de9a22fd8cff8693aa1f216b7f667c0071d1f83",
}


@pytest.mark.parametrize("p", sorted(_SCAN_DIGESTS))
def test_family_measures_are_pinned(p):
    scan = []
    for f in omega_members(p, 5):
        fam = build_family(f, p)
        scan.append(
            (family_complexity(fam),)
            + tuple(cross_correlation(fam, ell) for ell in (1, 2, 3))
        )
    assert hashlib.sha256(repr(scan).encode()).hexdigest() == _SCAN_DIGESTS[p]


class TestCrossCorrelationMemory:
    """2048 one-column rows at l = 2: 2048**2 tuples, under the 2**26 budget."""

    @staticmethod
    def _traced(fam, ell):
        tracemalloc.start()
        try:
            value = cross_correlation(fam, ell)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_both_signs(self):
        rows = ((1,),) * 1024 + ((-1,),) * 1024
        value, peak = self._traced(SeqFamily(5, 5, (0, 1), rows), 2)
        assert value == 1
        assert peak < 16 << 20

    def test_equal_rows(self):
        value, peak = self._traced(SeqFamily(5, 5, (0, 1), ((1,),) * 2048), 2)
        assert value == 0  # one shift, so every pair of rows is a pair of equal rows
        assert peak < 16 << 20

    def test_refusal_allocates_nothing(self):
        fam = SeqFamily(5, 5, (0, 1), ((1,),) * 2048)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                cross_correlation(fam, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


class TestDistinctFamilies:
    def test_strict_bound_and_canonical_invariance(self, engine):
        report = distinct_family_count(5, 5, engine=engine(5))
        assert report.distinct_families < report.bound
        assert report.margin == report.bound - report.distinct_families
        assert report.members == tuple(omega_members(5, 5))
        assert report.omega_size == len(report.members)
        # canonical form ignores row order
        f = omega_members(5, 5)[0]
        fam = build_family(f, 5)
        shuffled = SeqFamily(5, 5, f, tuple(reversed(fam.rows)))
        assert fam.canonical() == shuffled.canonical()
