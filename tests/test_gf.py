"""Field and tower arithmetic, traces, and the canonical modulus choice."""

import hashlib
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracezero import gf
from tracezero.errors import BudgetExceededError, NonMonicError, NonPrimeError
from tracezero.numtheory import prime_power_parts

F2 = gf.make_field(2, 1)
F3 = gf.make_field(3, 1)
F4 = gf.make_field(2, 2)
F5 = gf.make_field(5, 1)
F8 = gf.make_field(2, 3)
F9 = gf.make_field(3, 2)
F16 = gf.make_field(2, 4)


def brute_irreducible(field, f):
    """Independent check for degree <= 3: irreducible iff no roots."""
    d = len(f) - 1
    assert d in (2, 3)
    for a in field.elements():
        acc = field.zero
        for c in reversed(f):
            acc = field.add(field.mul(acc, a), c)
        if field.is_zero(acc):
            return False
    return True


class TestMakeField:
    def test_prime_field_placeholder(self):
        assert F2.modulus == (0, 1)
        assert F2.order == 2

    def test_unique_quadratic_over_f2(self):
        assert F4.modulus == (1, 1, 1)  # x^2 + x + 1 is forced

    def test_first_quadratic_over_f3(self):
        # scan all 9 monic quadratics with the no-root oracle
        best = None
        for tup in itertools.product(range(3), repeat=2):
            tail = tup[::-1]
            f = tail + (1,)
            if tail[0] != 0 and brute_irreducible(F3, f):
                best = f
                break
        assert F9.modulus == best == (1, 0, 1)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(NonPrimeError):
            gf.make_field(6, 1)

    def test_deterministic(self):
        assert gf.make_field(2, 4).modulus == gf.make_field(2, 4).modulus


class TestMakeTower:
    def test_degenerate_tower(self):
        t = gf.make_tower(F4, 1)
        assert t.modulus == (F4.zero, F4.one)
        assert t.order == 4

    def test_smallest_cubic_over_f2(self):
        assert gf.make_tower(F2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1

    def test_first_quadratic_over_f4(self):
        found = None
        for tup in itertools.product(F4.element_list, repeat=2):
            tail = tup[::-1]
            if F4.is_zero(tail[0]):
                continue
            f = tail + (F4.one,)
            if brute_irreducible(F4, f):
                found = f
                break
        assert gf.make_tower(F4, 2).modulus == found

    def test_alt_modulus_differs(self):
        t = gf.make_tower(F2, 4)
        alt = gf.make_tower_alt(F2, 4)
        assert t.modulus != alt.modulus

    def test_alt_modulus_unavailable_when_unique(self):
        with pytest.raises(ValueError):
            gf.make_tower_alt(F2, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gf.make_field.__wrapped__(3, 4),
            lambda: gf.make_tower.__wrapped__(F4, 3),
            lambda: gf.make_tower_alt.__wrapped__(F9, 2),
        ],
        ids=["make_field", "make_tower", "make_tower_alt"],
    )
    def test_scanned_modulus_is_tested_once(self, build, monkeypatch):
        # every test goes through the batched entry point, is_irreducible too
        tested = []
        real = gf.irreducible_mask

        def counting(codes, field):
            tested.extend(map(tuple, np.asarray(codes).tolist()))
            return real(codes, field)

        monkeypatch.setattr(gf, "irreducible_mask", counting)
        field = build()
        modulus = tuple(map(field.base.code, field.modulus[:-1]))
        assert tested.count(modulus) == 1
        assert len(tested) == len(set(tested))

    def test_scanned_moduli_are_pinned(self):
        # SHA-256 over the make_tower and make_tower_alt moduli (as base
        # codes; "-" where there is no alternative) of every (q, n) with
        # q**n <= 2**22, recorded from the scan that tested one candidate
        # at a time by gcds: a slip at a block boundary moves a modulus
        lines = []
        for q in (2, 3, 4, 5, 7, 8, 9, 16):
            base = gf.make_field(*prime_power_parts(q))
            codes = lambda field: ",".join(str(base.code(c)) for c in field.modulus)
            for n in itertools.takewhile(lambda n: q**n <= 1 << 22, itertools.count(1)):
                try:
                    alt = codes(gf.make_tower_alt(base, n)) if n >= 2 else "-"
                except ValueError:
                    alt = "-"
                lines.append(f"{q} {n} {codes(gf.make_tower(base, n))} {alt}")
        assert len(lines) == 80
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "4e3b9be89418801685888d4b47c4cb6bf490ed29c6077f08376b074be1d2132e"
        )

    @pytest.mark.parametrize(
        "base,n,modulus",
        [(F2, 2, (1, 0, 1)), (F3, 2, (2, 0, 1)), (F4, 2, (F4.one, F4.zero, F4.one))],
        ids=["x2+1-over-F2", "x2+2-over-F3", "x2+1-over-F4"],
    )
    def test_direct_construction_tests_irreducibility(self, base, n, modulus):
        with pytest.raises(ValueError, match="irreducible"):
            gf.ExtensionField(base, n, modulus)


class TestIrreducible:
    def test_known_quadratic(self):
        assert gf.is_irreducible((1, 1, 1), F2)

    def test_cubic_with_unit_constant_over_f4(self):
        omega = (0, 1)
        f = (omega, F4.zero, F4.zero, F4.one)  # x^3 + omega
        assert brute_irreducible(F4, f)
        assert gf.is_irreducible(f, F4)

    def test_cubic_with_root(self):
        f = (F4.one, F4.zero, F4.zero, F4.one)  # x^3 + 1 has the root 1
        assert not gf.is_irreducible(f, F4)

    @pytest.mark.parametrize("field", [F2, F3, F4, F5])
    def test_matches_root_oracle_in_low_degree(self, field):
        for d in (2, 3):
            if field.order**d > 2_000:
                continue
            for tup in itertools.product(field.element_list, repeat=d):
                f = tup[::-1] + (field.one,)
                assert gf.is_irreducible(f, field) == brute_irreducible(field, f)

    def test_rejects_non_monic(self):
        with pytest.raises(NonMonicError):
            gf.is_irreducible((1, 1, 0), F3)  # leading 0 after trim would lie

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            gf.is_irreducible((1,), F3)

    @pytest.mark.parametrize(
        "field,d_max",
        [(F2, 8), (F3, 5), (F4, 4), (F5, 4), (F9, 3), (F8, 2), (F16, 2)],
        ids=["F2", "F3", "F4", "F5", "F9", "F8", "F16"],
    )
    def test_matches_product_sieve(self, field, d_max):
        # independent of any linear algebra: a monic is reducible iff it is
        # the product of two monics of lower degree, and poly_mul builds
        # every such product; each degree's monics go in as one block
        monics = {
            d: [tup + (field.one,) for tup in itertools.product(field.element_list, repeat=d)]
            for d in range(1, d_max + 1)
        }
        reducible = {
            gf.poly_mul(field, f, g)
            for d in range(2, d_max + 1)
            for k in range(1, d // 2 + 1)
            for f in monics[k]
            for g in monics[d - k]
        }
        for d in range(1, d_max + 1):
            codes = [[field.code(c) for c in f[:d]] for f in monics[d]]
            want = [f not in reducible for f in monics[d]]
            assert gf.irreducible_mask(codes, field).tolist() == want


class TestBatchedTestGuards:
    def test_stacks_stay_within_the_cell_budget(self, monkeypatch):
        shapes = []
        real = gf._irreducible_block

        def recording(codes, field):
            shapes.append(codes.shape)
            return real(codes, field)

        monkeypatch.setattr(gf, "_irreducible_block", recording)
        codes = list(itertools.product(range(2), repeat=12))  # every monic of degree 12 over F_2
        assert int(gf.irreducible_mask(codes, F2).sum()) == 335
        assert len(shapes) > 1
        assert all(k * d * d <= gf._CELLS for k, d in shapes)

    def test_the_candidate_scan_streams_in_blocks(self, monkeypatch):
        from tracezero.oracle import enum_i_count

        rows = []
        real = gf.irreducible_mask

        def recording(codes, field):
            rows.append(len(codes))
            return real(codes, field)

        monkeypatch.setattr(gf, "irreducible_mask", recording)
        candidates = 2**12  # x**13 and x**1 pinned, the rest free over F_2
        assert enum_i_count(2, 14, method="scan") == enum_i_count(2, 14, method="orbit")
        assert len(rows) > 1
        assert max(rows) <= gf._block_rows(F2, 14) < candidates

    def test_codes_out_of_range_are_refused_before_allocation(self):
        import tracemalloc

        too_big = np.zeros((1 << 14, 20), dtype=np.int64)
        too_big[-1, -1] = 3  # not a code of F_3
        negative = -too_big
        tracemalloc.start()
        try:
            for bad in (too_big, negative):
                with pytest.raises(ValueError, match="out of range"):
                    gf.irreducible_mask(bad, F3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_characteristic_past_exact_float_arithmetic_is_refused(self):
        with pytest.raises(BudgetExceededError, match="2\\*\\*50"):
            gf.irreducible_mask([[1, 0]], gf.PrimeField(2**31 - 1))

    def test_power_bound_is_checked_before_allocation(self):
        import tracemalloc

        codes = np.zeros((1 << 14, 20), dtype=np.int64)  # 20 x 20 stacks mod 2**31 - 1
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="2\\*\\*50"):
                gf.irreducible_mask(codes, gf.PrimeField(2**31 - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


class TestStructureConstants:
    """T, built from the modulus, against the linear maps of gf's mul."""

    @staticmethod
    def _check(field):
        want = [
            gf.linear_map_matrix(field, field, partial(field.mul, field.basis_element(j)))
            for j in range(field.r)
        ]
        T = gf.structure_constants(field)
        assert T.dtype == np.int64 and not T.flags.writeable
        assert np.array_equal(T, np.stack(want))

    @pytest.mark.parametrize(
        "q,n",
        [(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16) for n in range(1, 13) if q**n <= 1 << 12]
        + [(25, 3), (27, 3), (81, 2), (2, 16)],
    )
    def test_towers(self, q, n):
        self._check(gf.make_tower(gf.make_field(*prime_power_parts(q)), n))

    @pytest.mark.parametrize("q", [2, 4, 8, 9, 16, 25, 27, 81, 128])
    def test_fields(self, q):
        self._check(gf.make_field(*prime_power_parts(q)))


class TestMonicPolys:
    @pytest.mark.parametrize(
        "field,n,zero",
        [
            (F2, 5, ()),
            (F3, 1, ()),
            (F3, 2, {0, 1}),
            (F3, 4, {1, 3}),
            (F4, 3, {1, 2}),
            (F5, 5, {1, 4}),
            (F9, 2, {1}),
            (F9, 3, ()),
        ],
    )
    def test_order_pins_and_size(self, field, n, zero):
        polys = list(gf.monic_polys(field, n, zero))
        assert len(polys) == field.order ** (n - len(zero))
        for f in polys:
            assert len(f) == n + 1 and f[n] == field.one
            assert all(field.is_zero(f[k]) for k in zero)
        codes = [sum(field.code(c) * field.order**k for k, c in enumerate(f[:n])) for f in polys]
        assert codes == sorted(set(codes))  # strictly increasing positional code

    def test_constant_term_varies_fastest(self):
        assert list(gf.monic_polys(F3, 2))[:4] == [(0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1)]


class TestFrobeniusAndTrace:
    @pytest.mark.parametrize(
        "base,n", [(F2, 2), (F2, 3), (F4, 2), (F3, 2), (F5, 2), (F9, 2)]
    )
    def test_frobenius_is_an_automorphism(self, base, n):
        tower = gf.make_tower(base, n)
        if tower.order > 256:
            pytest.skip("exhaustive pairs kept small")
        els = list(tower.elements())
        frob = {a: tower.frobenius(a) for a in els}  # once per element, not per pair
        for a in els:
            for b in els:
                assert frob[tower.add(a, b)] == tower.add(frob[a], frob[b])
                assert frob[tower.mul(a, b)] == tower.mul(frob[a], frob[b])

    @pytest.mark.parametrize("base,n", [(F4, 3), (F9, 2), (F2, 5)])
    def test_frobenius_fixes_base_and_has_order_n(self, base, n):
        tower = gf.make_tower(base, n)
        for b in base.elements():
            e = tower.embed_base(b)
            assert tower.frobenius(e) == e
        for a in itertools.islice(tower.elements(), 40):
            t = a
            for _ in range(n):
                t = tower.frobenius(t)
            assert t == a

    def test_trace_of_one_is_n_mod_p(self):
        for base, n in [(F4, 3), (F9, 5), (F2, 4), (F5, 3)]:
            tower = gf.make_tower(base, n)
            assert tower.trace_to_base(tower.one) == base.embed(n)

    def test_trace_of_omega_in_f4_over_f2(self):
        tower = gf.make_tower(F2, 2)
        omega = (0, 1)
        assert tower.trace_to_base(omega) == 1

    @pytest.mark.parametrize("base,n", [(F2, 3), (F4, 2), (F3, 2), (F9, 2), (F2, 8)])
    def test_trace_fibers_have_size_q_to_n_minus_1(self, base, n):
        tower = gf.make_tower(base, n)
        fibers = {b: 0 for b in base.elements()}
        for a in tower.elements():
            fibers[tower.trace_to_base(a)] += 1
        assert set(fibers.values()) == {base.order ** (n - 1)}

    @pytest.mark.parametrize("base,n", [(F2, 3), (F4, 2), (F3, 2), (F9, 2)])
    def test_trace_zero_set_is_artin_schreier_image(self, base, n):
        tower = gf.make_tower(base, n)
        zeros = {a for a in tower.elements() if base.is_zero(tower.trace_to_base(a))}
        image = {
            tower.sub(tower.frobenius(y), y) for y in tower.elements()
        }
        assert zeros == image

    @pytest.mark.parametrize("base,n", [(F2, 4), (F4, 2), (F9, 2), (F5, 2)])
    def test_rtrace_zero_fiber(self, base, n):
        tower = gf.make_tower(base, n)
        hits = sum(
            1 for a in tower.elements() if base.is_zero(tower.rtrace(a))
        )
        assert hits == base.order ** (n - 1)

    def test_rtrace_conventions(self):
        tower = gf.make_tower(F4, 2)
        assert tower.rtrace(tower.zero) == F4.zero
        for b in F4.elements():
            if F4.is_zero(b):
                continue
            e = tower.embed_base(b)
            # for base-field elements the trace is n * a^{-1}
            assert tower.rtrace(e) == F4.mul(F4.embed(2), F4.inv(b))
            assert tower.rtrace(e) == tower.trace_to_base(tower.inv(e))

    @pytest.mark.parametrize("base,n", [(F4, 2), (F9, 2), (F2, 6)])
    def test_absolute_trace_transitivity(self, base, n):
        tower = gf.make_tower(base, n)
        p = base.p
        for a in tower.elements():
            # the other composition order: one long p-power Frobenius orbit
            acc = a
            t = a
            for _ in range(n * base.r - 1):
                t = tower.pow_(t, p)
                acc = tower.add(acc, t)
            assert acc == tower.embed(tower.trace_to_prime(a))

    def test_trace_power_scaling_for_polynomials(self):
        for field in (F4, F9, F5):
            for d in (2, 3):
                for tup in itertools.islice(
                    itertools.product(field.element_list, repeat=2), 25
                ):
                    poly = tup[::-1] + (field.one,)
                    power = (field.one,)
                    for _ in range(d):
                        power = gf.poly_mul(field, power, poly)
                    scale = field.embed(d)
                    assert gf.poly_trace(field, power) == field.mul(
                        scale, gf.poly_trace(field, poly)
                    )
                    if not field.is_zero(poly[0]):
                        assert gf.poly_rtrace(field, power) == field.mul(
                            scale, gf.poly_rtrace(field, poly)
                        )


class TestInversion:
    def test_invert_one(self):
        tower = gf.make_tower(F4, 2)
        assert tower.inv(tower.one) == tower.one

    def test_exhaustive_inverses_f16(self):
        tower = gf.make_tower(F4, 2)
        for a in tower.elements():
            if tower.is_zero(a):
                continue
            inv = tower.inv(a)
            assert tower.mul(a, inv) == tower.one
            assert tower.inv(inv) == a

    def test_zero_division(self):
        tower = gf.make_tower(F4, 2)
        with pytest.raises(ZeroDivisionError):
            tower.inv(tower.zero)
        with pytest.raises(ZeroDivisionError):
            F5.inv(0)


class TestPower:
    @pytest.mark.parametrize(
        "field", [F3, F4, F9, gf.make_tower(F9, 3)], ids=["F3", "F4", "F9", "F9^3"]
    )
    def test_matches_repeated_products(self, field):
        for a in field.element_list[:12]:
            want = field.one
            for e in range(41):
                assert field.pow_(a, e) == want
                want = field.mul(want, a)

    @pytest.mark.parametrize("e,products", [(1, 0), (2, 1), (3, 2), (4, 2), (9, 4), (16, 4)])
    def test_counts_its_products(self, monkeypatch, e, products):
        # one squaring per bit after the top one, one product per further set bit
        tower, calls = gf.make_tower(F9, 3), []
        real = gf.ExtensionField.mul

        def counting(self, a, b):
            calls.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(gf.ExtensionField, "mul", counting)
        a = tower.from_code(100)
        assert tower.pow_(a, e) == _repeated_product(real, tower, a, e)
        assert len(calls) == products

    def test_zero_power_is_one(self):
        assert F9.pow_(F9.zero, 0) == F9.one
        with pytest.raises(ValueError):
            F9.pow_(F9.one, -1)


def _repeated_product(mul, field, a, e):
    """a**e as e - 1 products, by mul."""
    result = a
    for _ in range(e - 1):
        result = mul(field, result, a)
    return result


class TestEnumeration:
    @pytest.mark.parametrize(
        "base,n,size", [(F4, 1, 4), (F2, 3, 8), (F9, 2, 81)]
    )
    def test_counts_and_uniqueness(self, base, n, size):
        tower = gf.make_tower(base, n)
        els = list(tower.elements())
        assert len(els) == size
        assert len(set(els)) == size

    def test_code_round_trip(self):
        tower = gf.make_tower(F9, 2)
        for v in range(tower.order):
            assert tower.code(tower.from_code(v)) == v

    def test_canonical_order_is_code_order(self):
        tower = gf.make_tower(F4, 2)
        codes = [tower.code(a) for a in tower.elements()]
        assert codes == list(range(tower.order))


# a little randomised coverage on a field too big to sweep exhaustively
_T = gf.make_tower(F9, 3)
_elements = st.integers(min_value=0, max_value=_T.order - 1).map(_T.from_code)


@settings(max_examples=60, deadline=None)
@given(a=_elements, b=_elements)
def test_random_field_axioms(a, b):
    assert _T.mul(a, b) == _T.mul(b, a)
    assert _T.frobenius(_T.mul(a, b)) == _T.mul(_T.frobenius(a), _T.frobenius(b))
    if not _T.is_zero(a):
        assert _T.mul(a, _T.inv(a)) == _T.one


@settings(max_examples=40, deadline=None)
@given(a=_elements)
def test_random_trace_is_frobenius_fixed(a):
    t = _T.trace_to_base(a)
    e = _T.embed_base(t)
    assert _T.frobenius(e) == e
    n_fold = a
    for _ in range(_T.n):
        n_fold = _T.frobenius(n_fold)
    assert n_fold == a


# SHA-256 over the modulus, the codes in elements() order and the codes of
# the full mul and inv tables, recorded when F_q and the tower were still
# two separate implementations: any drift in moduli, element order or
# arithmetic changes the digest even where the field axioms still hold.
_ARITHMETIC_DIGESTS = {
    (2, 2, 1): "af2eb7557c7f8969b2592e501da270f1269a64a4ebc67205ae7d096ac624b662",
    (2, 3, 1): "fcaf6e783144d58a150b3508cd9171d0454693bd63f8beb8862d0626444da785",
    (3, 2, 1): "0f86ff9deac5db8a00086fabe4a81415d7b890829e7cc5a050f57259e655608a",
    (2, 4, 1): "772f19bd4c4dd3d62beb988ed1d50106a9ce631c977e3695f12fbb073f42553d",
    (5, 2, 1): "82dbdfdac847b13b882046cb59bdb22c4ce27bda710ab08c8edb085dff63d329",
    (3, 3, 1): "111390f6d16c4c84da377bfd7d46b61f8efb38aac539f0752954cfc66ccdfe80",
    (2, 5, 1): "40850ea3385d154b591fb68591e55a441677ba507a852636e1c59efa07309438",
    (7, 2, 1): "7901116634a80a4744b681de6a5142eeba93fae9088b60e5a4d7a7d5db4d7de9",
    (2, 6, 1): "bb8cb9c6b514c668cd6ca5dcdea83a247cea9540aa168a805d1e55c05c0035c6",
    (3, 4, 1): "f9bb21bfe738c60265c111efbcead632aa174ff146464d37675886899ed2193a",
    (2, 2, 3): "5f031fb56f37b3e7c9973406993e2f011e23a5f839a0d006dbfaa6734575020e",
    (3, 2, 2): "ece7c5a5a82c232c56823933b96cf41a681417d2dab57cbbf822ee24fe7c9fbd",
}


@pytest.mark.parametrize("p,r,n", sorted(_ARITHMETIC_DIGESTS))
def test_arithmetic_is_pinned(p, r, n):
    """F_{p^r} itself for n = 1, else the tower make_tower(F_{p^r}, n)."""
    field = gf.make_field(p, r)
    modulus = field.modulus
    if n > 1:
        field = gf.make_tower(field, n)
        modulus = field.modulus
    els = list(field.elements())
    h = hashlib.sha256(repr(modulus).encode())
    h.update(repr([field.code(a) for a in els]).encode())
    h.update(repr([field.code(field.mul(a, b)) for a in els for b in els]).encode())
    h.update(repr([field.code(field.inv(a)) for a in els if not field.is_zero(a)]).encode())
    assert h.hexdigest() == _ARITHMETIC_DIGESTS[p, r, n]
