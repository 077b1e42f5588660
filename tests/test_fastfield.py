"""The generator walk of FieldTable: pinned outputs, the block-loop walk it
replaced as a differential reference, the generator search against the
element loop it replaced, the digit-packing width rule, the trace rows,
the class walk behind the trace-pair histogram, and the base-field
tables."""

import hashlib
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from tracezero import gf
from tracezero.counting import engine_for
from tracezero.errors import BudgetExceededError, InvariantError
from tracezero.fastfield import (
    FieldTable,
    base_tables,
    digit_width,
    multiplicative_generator,
    table_for,
)
from tracezero.numtheory import prime_factors, prime_power_parts

ENGINE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)


def _tower(q, n):
    p, r = prime_power_parts(q)
    return gf.make_tower(gf.make_field(p, r), n)


# ---------------------------------------------------------------------------
# The block-loop walk, kept verbatim as the reference: the first block by
# one matvec per element, then each block from the last by one float64
# product with M**B.

_BLOCK = 1 << 12


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


def _walk_reference(tower) -> np.ndarray:
    p, d, N = tower.base.p, tower.flat_degree, tower.order - 1
    pow_p = p ** np.arange(d, dtype=np.int64)
    g = multiplicative_generator(tower)
    M = gf.linear_map_matrix(tower, tower, partial(tower.mul, g))  # x -> g*x
    B = min(_BLOCK, N)
    block = np.zeros((B, d), dtype=np.int64)
    block[0] = tower.flat_digits(tower.one)
    for k in range(1, B):
        block[k] = (M @ block[k - 1]) % p
    enc = np.empty(N, dtype=np.int64)
    step = _mat_pow(M, B, p).T.astype(np.float64)
    done = 0
    cur = block
    while True:
        take = min(B, N - done)
        enc[done : done + take] = cur[:take] @ pow_p
        done += take
        if done == N:
            return enc
        # float64 BLAS keeps this exact: entries stay below d * p**2 << 2**53
        cur = np.rint(cur.astype(np.float64) @ step).astype(np.int64) % p


# SHA-256 of exp_enc as little-endian int64, recorded with the block-loop
# walk.  The towers cover d = 1, large p, odd-p packing, extension bases, N
# below one chunk and N across several doubling rounds.
_WALK_DIGESTS = {
    (2, 1): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 12): "f93111f2d5d03cbd58220f842d679e036230e6d30c67a053250bb339045d0897",
    (2, 20): "d9bbf13f33c1e260b790f9f421b476acf69614250c250c8fc849abd27eb5c2fb",
    (3, 13): "9cfbfd76dce39f38cbf1f453c696abe357a7b34a15d69091b39a70a1afe358b2",
    (4, 7): "5becdc33d497be1c7427c06d581f477383f4290391d0dcb614de28c317646ff3",
    (5, 6): "46e0e83ab73fbe9641effea57dc067f79deafbc103ebd69634d917b5323cd802",
    (7, 7): "e0fd0c54586075492b312ba232eb9c2673a0bd5cdace2df542687ea4fd21bc2a",
    (9, 5): "20449548ed89140a46d9d443eb37ef4b174bf47d634decb5c809513358d3e46f",
    (25, 3): "1ea1426d6b3809d4d7de74e9cccaf224d1fc2e77063edf6bfad72fec78e87b70",
    (27, 3): "85d9cd5299c7a6b07f6e6e3a80596888384184b7014aa68073f84f3bd7f19de9",
    (131, 1): "bbbbe657b1aca6c9bba46731dca1cc533df7b6b8009dbe759f0a5250bb91f349",
    (65536, 1): "a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
}


@pytest.mark.parametrize("q,n", sorted(_WALK_DIGESTS))
def test_walk_is_pinned(q, n):
    enc = FieldTable(_tower(q, n)).exp_enc
    assert enc.dtype == np.int64
    assert hashlib.sha256(enc.astype("<i8").tobytes()).hexdigest() == _WALK_DIGESTS[q, n]


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in ENGINE_FIELDS for n in range(1, 17) if q**n <= 1 << 16],
)
def test_walk_matches_block_loop(q, n):
    tower = _tower(q, n)
    assert np.array_equal(FieldTable(tower).exp_enc, _walk_reference(tower))


# ---------------------------------------------------------------------------
# The generator search: the element loop it replaced, kept verbatim as the
# reference.


def _generator_reference(tower: gf.ExtensionField):
    """First element in canonical order that generates the unit group."""
    N = tower.order - 1
    one = tower.one
    if N == 1:
        return one
    prims = prime_factors(N)
    for a in tower.elements():
        if tower.is_zero(a):
            continue
        if all(tower.pow_(a, N // ell) != one for ell in prims):
            return a
    raise InvariantError("unit group has no generator; field data corrupt")


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in ENGINE_FIELDS for n in range(1, 23) if q**n <= 1 << 22],
)
def test_generator_matches_the_element_loop(q, n):
    tower = _tower(q, n)
    assert multiplicative_generator(tower) == _generator_reference(tower)


def test_generator_search_refuses_inexact_powers_before_allocation():
    tower = gf.make_tower(gf.PrimeField(2**31 - 1), 1)  # 1 x 1 powers mod 2**31 - 1
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="2\\*\\*50"):
            multiplicative_generator(tower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10


class TestDigitWidth:
    @pytest.mark.parametrize("p,w", [(2, 1), (3, 3), (5, 4), (7, 4), (131, 9)])
    def test_least_width_with_room_for_a_digit_sum(self, p, w):
        assert digit_width(p, 1) == w
        # p = 2 adds digits by XOR, so one bit holds a digit; odd p needs room below 2p
        assert w == 1 if p == 2 else 2 ** (w - 1) >= p > 2 ** (w - 2)

    def test_widest_word_fits(self):
        assert digit_width(2, 63) == 1
        assert digit_width(3, 21) == 3

    @pytest.mark.parametrize("p,d", [(2, 64), (3, 22), (131, 8)])
    def test_refused_past_63_bits(self, p, d):
        with pytest.raises(BudgetExceededError):
            digit_width(p, d)

    def test_table_refuses_before_touching_the_field(self):
        # a stand-in with only p and the degree: the refusal must come
        # before the order, the generator or any array is read or made
        fake = SimpleNamespace(base=SimpleNamespace(p=3), flat_degree=22)
        with pytest.raises(BudgetExceededError):
            FieldTable(fake)

    def test_characteristic_two_kernel_past_31_digits(self):
        # d = 34 needed 68 bits at two bits per digit; at one bit the packed
        # image of a code under a random F_2 matrix is the code of A @ digits
        fake = SimpleNamespace(base=SimpleNamespace(p=2), flat_degree=34, order=1 << 34, q=2)
        tab = FieldTable(fake)
        rng = np.random.default_rng(34)
        A = rng.integers(0, 2, size=(34, 34))
        codes = rng.integers(0, 1 << 34, size=4096, dtype=np.int64)
        places = np.left_shift(1, np.arange(34, dtype=np.int64))
        want = (codes[:, None] >> np.arange(34) & 1) @ A.T % 2 @ places
        got = tab._packed_image(tab._packed_table(A), codes)
        assert np.array_equal(got, want)
        assert tab._unpack_codes(got, 34) is got

    def test_functionals_refuse_rows_past_one_word(self):
        tab = FieldTable(_tower(131, 1))  # w = 9: seven digits per word
        codes = tab.functionals_exp(np.ones((7, 1), dtype=np.int64))
        # every functional reads the one digit, the code of x is x * (1 + 131 + ... + 131**6)
        assert codes.dtype == np.uint64
        assert (codes == tab.exp_enc.astype(np.uint64) * np.uint64(sum(131**j for j in range(7)))).all()
        with pytest.raises(BudgetExceededError):
            tab.functionals_exp(np.ones((8, 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# The trace rows: sum_{j<n} Phi**j against gf's literal trace_to_base.


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in ENGINE_FIELDS for n in range(1, 17) if q**n <= 1 << 16]
    + [(25, 3), (27, 3), (81, 2)],
)
def test_trace_rows_match_the_literal_trace(q, n):
    tower = _tower(q, n)
    want = gf.linear_map_matrix(tower, tower.base, tower.trace_to_base)
    got = FieldTable(tower).trace_rows()
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_trace_rows_refuse_a_trace_outside_the_base_field(monkeypatch):
    # with Frobenius the identity, the "trace" of F_{3^4} is 4x = x
    monkeypatch.setattr(gf.ExtensionField, "frobenius", lambda self, a: a)
    with pytest.raises(InvariantError, match="base field"):
        FieldTable(_tower(3, 4)).trace_rows()


# ---------------------------------------------------------------------------
# The class walk: gamma**k for k < M = N / (q - 1), one point per F_q*-coset.

_CLASS_TOWERS = sorted(
    {(q, n) for q in ENGINE_FIELDS for n in range(1, 17) if q**n <= 1 << 16}
    | {(7, 7), (16, 4), (25, 3), (27, 3)}
)


@pytest.mark.parametrize("q,n", _CLASS_TOWERS)
def test_class_walk_histogram_matches_the_full_walk(q, n):
    tab = FieldTable(_tower(q, n))
    got = tab.trace_pair_histogram()  # first, so the class walk is what runs
    assert "exp_enc" not in vars(tab)
    codes = tab.trace_codes_exp().astype(np.int64)
    want = np.zeros((q, q), dtype=np.int64)
    np.add.at(want, (codes, tab.reversed_exp(codes)), 1)
    assert got.dtype == np.int64 and got.sum() == tab.N
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (16, 2), (25, 2)])
def test_class_walk_is_the_prefix_of_the_full_walk(q, n):
    tab = FieldTable(_tower(q, n))
    enc, lam0 = tab._class_walk()
    assert np.array_equal(enc, tab.exp_enc[: tab.M])
    tower = tab.tower
    assert tower.code(lam0) == tab.exp_enc[tab.M]  # gamma**M, an element of F_q*


class TestClassWalkFaults:
    """Each corruption of the class walk or of lam0 = gamma**M is refused."""

    @staticmethod
    def _walk(q, n):
        tab = FieldTable(_tower(q, n))
        enc, lam0 = tab._class_walk()
        return tab, enc.copy(), lam0

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (4, 5), (3, 6)])
    def test_scalar_multiple_of_another_entry(self, q, n):
        tab, enc, lam0 = self._walk(q, n)
        tower = tab.tower
        x = tower.from_code(int(enc[5]))
        # 2 is the code of a scalar other than 1 (a generator of F_4 when q = 4)
        enc[9] = tower.code(tower.mul(tower.embed_base(tower.base.from_code(2)), x))
        with pytest.raises(InvariantError, match="coset"):
            tab._check_class_walk(enc, lam0)

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (2, 8)])
    def test_duplicated_entry(self, q, n):
        tab, enc, lam0 = self._walk(q, n)
        enc[7] = enc[3]
        with pytest.raises(InvariantError, match="coset"):
            tab._check_class_walk(enc, lam0)

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (5, 3)])
    def test_lam0_that_does_not_close_the_walk(self, q, n):
        tab, enc, lam0 = self._walk(q, n)
        base = tab.tower.base
        other = tab.tower.embed_base(base.mul(lam0[0], base.from_code(2)))
        with pytest.raises(InvariantError, match="next step"):
            tab._check_class_walk(enc, other)
        # an element outside F_q fails the same way
        with pytest.raises(InvariantError, match="next step"):
            tab._check_class_walk(enc, tab.tower.from_code(int(enc[1])))

    def test_lam0_of_lower_order(self):
        # beta = g**9 in F_{7^2}: N = 48, M = 8, and 9 = 1 mod 8, so the walk
        # of beta meets every coset and beta**8 = g**72 = -1 lies in F_7*,
        # but -1 has order 2, not 6
        tab = FieldTable(_tower(7, 2))
        tab._generator = tab.tower.pow_(multiplicative_generator(tab.tower), 9)
        with pytest.raises(InvariantError, match="generate"):
            tab._class_walk()

    def test_lam0_of_lower_order_in_three_parts(self):
        # beta = g**2 in F_{9^3}, whose codes split into three parts: N = 728,
        # M = 91 and gcd(2, 91) = 1, so the walk of beta meets every coset,
        # but beta**91 = g**182 has order 4 in F_9*, not 8
        tab = FieldTable(_tower(9, 3))
        tab._generator = tab.tower.pow_(multiplicative_generator(tab.tower), 2)
        with pytest.raises(InvariantError, match="generate"):
            tab._class_walk()


@pytest.mark.parametrize("q", ENGINE_FIELDS)
def test_engine_build_never_reads_the_full_walk(monkeypatch, q):
    def refuse(self):
        raise AssertionError("the engine read the full walk")

    table_for.cache_clear()  # no table the engine reads may come in walked
    monkeypatch.setattr(FieldTable, "exp_enc", property(refuse))
    engine = engine_for(q)
    assert engine.verified_depth == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_base_tables_match_gf(q):
    field = gf.make_field(*prime_power_parts(q))
    mul, inv, trace = base_tables(field)
    elems = field.element_list
    for a in elems:
        ca = field.code(a)
        assert trace[ca] == field.trace_to_prime(a)
        assert [mul[ca, field.code(b)] for b in elems] == [
            field.code(field.mul(a, b)) for b in elems
        ]
        if not field.is_zero(a):
            assert inv[ca] == field.code(field.inv(a))
    assert not (mul.flags.writeable or inv.flags.writeable or trace.flags.writeable)
