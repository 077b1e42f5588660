"""The generator walk of FieldTable: pinned outputs, the block-loop walk it
replaced as a differential reference, the generator search against the
element loop it replaced, the digit-packing width rule, the trace rows,
the class walk behind the class counts, and the log tables of F_q."""

import hashlib
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracezero import fastfield, gf, oracle
from tracezero.counting import engine_for
from tracezero.curves import cyclic_correlation
from tracezero.errors import BudgetExceededError, InvariantError
from tracezero.fastfield import (
    FieldTable,
    digit_width,
    log_tables,
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
    p, d, N = tower.base.p, tower.r, tower.order - 1
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


# SHA-256 of the walk's element codes (walk_codes) as little-endian int64,
# recorded with the block-loop walk.  The towers cover d = 1, large p,
# odd-p packing, extension bases, N below one chunk and N across several
# doubling rounds.
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
def test_walk_is_pinned(walk_codes, q, n):
    enc = walk_codes(FieldTable(_tower(q, n)))
    assert enc.dtype == np.int64
    assert hashlib.sha256(enc.astype("<i8").tobytes()).hexdigest() == _WALK_DIGESTS[q, n]


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in ENGINE_FIELDS for n in range(1, 17) if q**n <= 1 << 16],
)
def test_walk_matches_block_loop(walk_codes, q, n):
    tower = _tower(q, n)
    assert np.array_equal(walk_codes(FieldTable(tower)), _walk_reference(tower))


# SHA-256 of trace_codes_exp() (uint8 codes), recorded with the split-code
# trace pass over the walk's element codes that the blocked pass replaced,
# for every tower of the oracle benchmark's grid, q in the engine set and
# 2**18 <= q**n <= 2**22.
_TRACE_DIGESTS = {
    (2, 18): "a5cbaa1fb8f0e85f475ee4fa8666ffc4a745f2118dca35bbfa6a3e540900357a",
    (2, 19): "3c079c412a2ae40f2e51c639f0e36c690a0f933390339b49c86ff1b113c7d2ac",
    (2, 20): "9b507e8b38be6de393336d8e480fb6866e47b353ee9b104a51745088cd4c86c9",
    (2, 21): "65142222994b180962e22a5d759f847cd6c6a70144376e84a4c2ef2b684375d7",
    (2, 22): "792987b3e2d508bbea51c4e901eba46dea0487374a9e3e24e80d066e1b5b995b",
    (3, 12): "5c8bd2deba307e88c887aebc7fd4b74be89c3e9a4609024706288774ffe3b424",
    (3, 13): "d62d8018b39adf36c61bac4476eb047892a31dd157813d1187900de1239b09ea",
    (4, 9): "9bc7683344c85a94860650daeb8d5fe86d6c33f0147555712c2fd4dcc4c889f7",
    (4, 10): "d55336c5480f5b03dd2d374a565c00ffd54db9407023c00f79adeca6b68712a9",
    (4, 11): "b80b5850d980360efe64a304160c1dabd045ff72ad04fedd71886fec5cea3a0d",
    (5, 8): "5cd8e9813e655a3d891cc5fd08ec70804eb4da26607af5830522a82af82ceeb3",
    (5, 9): "cfae595adda09eacda07b68629ac486b0c105bc29b7bdf07b306e59571973b34",
    (7, 7): "c51bb25f53ea710ca745fb647e2d35dfd1d890241a2afea069f44978487b87cc",
    (8, 6): "875d07b3d2ec99d45b51aa3fa8e0dcd9aacb09462c41f32295ba49dab4265cfd",
    (8, 7): "23669082d0988deccae3e31f0b6b92c42e7495083c62994c12251711d2bde515",
    (9, 6): "8ee931194da816ef470db8e97b95b408ccbc6f898f18e98fac8f568745e621d7",
    (16, 5): "c2d1a489bb159205d0bc995205b4b9ba3afb93c597e7ca0d8f2402b501a25c89",
}


@pytest.mark.parametrize("q,n", sorted(_TRACE_DIGESTS))
def test_trace_codes_are_pinned(q, n):
    codes = FieldTable(_tower(q, n)).trace_codes_exp()
    assert codes.dtype == np.uint8
    assert hashlib.sha256(codes.tobytes()).hexdigest() == _TRACE_DIGESTS[q, n]


@pytest.mark.parametrize("q,n", [(3, 4), (2, 6)])
def test_trace_codes_are_read_only(q, n):
    # the codes are cached: a write would change every later z_count of the
    # tower (at q = 2 they are the class walk's codes); every walk's codes
    # are read-only
    tab = FieldTable(_tower(q, n))
    codes = tab.trace_codes_exp()
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[:] = 0
    assert not tab.functionals_exp(tab.trace_rows()).flags.writeable


# The two runs of the one checked stream: the class walk, to M units, and
# the full walk, to N.
_WALKS = {
    "class walk": lambda tab: tab.class_counts,
    "full walk": lambda tab: tab.trace_codes_exp(),
}


@pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (2, 12), (16, 3)])
def test_corrupted_step_entry_fails_the_full_walk(q, n):
    # two valid slots of the first part map to one image, so the step is no
    # longer linear and the walk's composed tables leave its step chain; the
    # full walk and the class walk are the one checked stream, so both refuse
    for walk in _WALKS.values():
        tab = FieldTable(_tower(q, n))
        step, (_, slots) = tab._step[0], tab._part_slots[0]
        step[slots[1]] = step[slots[2]]
        with pytest.raises(InvariantError, match="step chain"):
            walk(tab)


@pytest.mark.parametrize("q,n,bound", [(2, 20, 4 << 20), (3, 13, 5 << 20)])
def test_full_walk_keeps_no_element_codes(q, n, bound):
    # with the tower, the generator, the step and the trace rows warm, the
    # trace pass holds its N one-byte codes and blocks of 2**14 units, and
    # no int64 code or flag per element
    tab = FieldTable(_tower(q, n))
    tab._step, tab.trace_rows()
    tracemalloc.start()
    try:
        codes = tab.trace_codes_exp()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.nbytes == tab.N and peak < bound


def test_oversized_part_tables_are_refused_before_allocation():
    # the one digit of the prime field F_16777259 would index a table of
    # 16777259 slots, past 2**24 (128 MiB of int64); with no element cap
    # nothing else refuses it, and the refusal names the tower and the count
    tab = FieldTable(_tower(16777259, 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="F_16777259\\^1.*16777259 slots"):
            tab.trace_codes_exp()
        with pytest.raises(BudgetExceededError, match="16777259 slots"):
            oracle.enum_f_count(16777259, 1, max_elements=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "q,n",
    [(2187, 2), (3125, 2), (729, 2), (65536, 1), (3**11, 1), (3**15, 1), (243, 2), (32749, 2)],
)
def test_part_tables_fit_16_bits_below_p_2_15(q, n):
    # below p = 2**15 a digit packs into at most 16 bits, so a part of whole
    # digits indexes at most 2**16 slots, however wide an F_q-coordinate is
    # (21 bits at q = 2187, 33 at 3**11)
    tab = FieldTable(_tower(q, n))
    assert all(int(slots[-1]) < 1 << 16 for _, slots in tab._part_slots)
    assert sum(c for _, c in tab._parts) == tab.d


def test_wide_coordinate_tower_walks_every_unit_once():
    # F_{3^11}, one 33-bit coordinate in three parts, at n = 1: the trace is
    # the identity, so the trace codes are the units, each once, and only 0
    # has both traces zero
    q = 3**11
    codes = table_for(_tower(q, 1)).trace_codes_exp()
    assert np.array_equal(np.sort(codes), np.arange(1, q))
    assert oracle.enum_f_count(q, 1) == 1


def test_wide_coordinate_tower_matches_the_engine():
    # F_{729^2}: each 18-bit coordinate spans two of three parts; the full
    # walk's counts against the engine's, which reads the class walk
    engine = engine_for(729)
    assert oracle.enum_f_count(729, 2) == engine.f_count(2)
    assert oracle.enum_i_count(729, 2) == engine.i_count(2)
    assert oracle.z_count(729, 2, "trace") == 729


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
        fake = SimpleNamespace(base=SimpleNamespace(p=3), r=22)
        with pytest.raises(BudgetExceededError):
            FieldTable(fake)

    def test_characteristic_two_kernel_past_31_digits(self):
        # d = 34 needed 68 bits at two bits per digit; at one bit the packed
        # image of a code under a random F_2 matrix is the code of A @ digits
        base = SimpleNamespace(p=2, r=1, order=2)
        fake = SimpleNamespace(base=base, r=34, order=1 << 34, q=2, n=34)
        tab = FieldTable(fake)
        rng = np.random.default_rng(34)
        A = rng.integers(0, 2, size=(34, 34))
        codes = rng.integers(0, 1 << 34, size=4096, dtype=np.int64)
        places = np.left_shift(1, np.arange(34, dtype=np.int64))
        want = (codes[:, None] >> np.arange(34) & 1) @ A.T % 2 @ places
        got = tab._image(tab._map_table(A), tab._split(codes))
        assert np.array_equal(got, want)
        assert tab._unpack_codes(got, 34) is got

    @pytest.mark.parametrize("p,d", [(3, 21), (2, 32)])
    def test_class_walk_refuses_before_touching_the_field(self, p, d):
        # F_{3^21} and F_{2^32} have class walks of (3**21 - 1) / 2 and
        # 2**32 - 1 units, past 2**31
        base = SimpleNamespace(p=p, r=1)
        fake = SimpleNamespace(base=base, r=d, order=p**d, q=p)
        with pytest.raises(BudgetExceededError, match="class walk"):
            FieldTable(fake).class_counts

    def test_functionals_refuse_rows_past_one_word(self, walk_codes):
        tab = FieldTable(_tower(131, 1))  # w = 9: seven digits per word
        codes = tab.functionals_exp(np.ones((7, 1), dtype=np.int64))
        # every functional reads the one digit, the code of x is x * (1 + 131 + ... + 131**6)
        assert codes.dtype == np.uint64
        enc = walk_codes(tab).astype(np.uint64)
        assert (codes == enc * np.uint64(sum(131**j for j in range(7)))).all()
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


@pytest.mark.parametrize(
    "q,n",
    [(q, n) for q in ENGINE_FIELDS + (25, 27) for n in range(1, 17) if q**n <= 1 << 16],
)
def test_frobenius_matrix_is_gf_frobenius(q, n):
    # built from x**q and its powers; held against d literal q-th powers
    tower = _tower(q, n)
    got = FieldTable(tower).frobenius_matrix
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.array_equal(got, gf.linear_map_matrix(tower, tower, tower.frobenius))


def test_trace_rows_refuse_a_trace_outside_the_base_field(monkeypatch):
    # with Frobenius the identity, the "trace" of F_{3^4} is 4x = x
    monkeypatch.setattr(gf.ExtensionField, "frobenius", lambda self, a: a)
    with pytest.raises(InvariantError, match="base field"):
        FieldTable(_tower(3, 4)).trace_rows()


# ---------------------------------------------------------------------------
# The class walk: gamma**k for k < M = N / (q - 1), one point per F_q*-coset,
# streamed in blocks of fastfield._BLOCK units.

_CLASS_TOWERS = sorted(
    {(q, n) for q in ENGINE_FIELDS for n in range(1, 17) if q**n <= 1 << 16}
    | {(7, 7), (16, 4), (25, 3), (27, 3)}
)


def _full_walk_histogram(tab):
    """The trace-pair histogram counted off the full walk, unit by unit."""
    q = tab.tower.q
    codes = tab.trace_codes_exp().astype(np.int64)
    want = np.zeros((q, q), dtype=np.int64)
    np.add.at(want, (codes, tab.reversed_exp(codes)), 1)
    return want


@pytest.fixture(scope="module")
def full_walk_histogram():
    """The full-walk histogram of a tower, counted once per module."""
    cache = {}

    def get(q, n):
        if (q, n) not in cache:
            cache[q, n] = _full_walk_histogram(FieldTable(_tower(q, n)))
        return cache[q, n]

    return get


@pytest.mark.parametrize("q,n", _CLASS_TOWERS)
def test_class_walk_histogram_matches_the_full_walk(trace_pair_histogram, q, n):
    tab = FieldTable(_tower(q, n))
    v, both = tab.class_counts  # first, so the class walk is what runs
    assert "_trace_codes" not in vars(tab)
    assert v.dtype == np.int64 and v.sum() == tab.M and not v.flags.writeable
    assert type(both) is int and 0 <= both <= v[0]
    got = trace_pair_histogram(tab)
    assert got.dtype == np.int64 and got.sum() == tab.N
    assert np.array_equal(got, _full_walk_histogram(tab))


@pytest.mark.parametrize(
    "q,n,block,blocks",
    [
        (7, 4, 1 << 14, 1),  # M = 400 < C
        (3, 3, 4, 4),  # M = 13 = 3C + 1
        (4, 3, 4, 6),  # M = 21 = 5C + 1
        (7, 3, 8, 8),  # M = 57 = 7C + 1
        (16, 2, 16, 2),  # M = 17 = C + 1
        (7, 4, 16, 25),  # M = 400 = 25C
        (9, 4, 64, 13),  # M = 820 = 12C + 52
        (2, 12, 256, 16),  # M = N = 4095 = 16C - 1
    ],
)
def test_streamed_histogram_matches_the_full_walk(
    monkeypatch, full_walk_histogram, trace_pair_histogram, q, n, block, blocks
):
    want = full_walk_histogram(q, n)
    monkeypatch.setattr(fastfield, "_BLOCK", block)
    tab = FieldTable(_tower(q, n))
    assert len(list(tab._blocks(tab.M, tab.trace_rows()))) == blocks
    assert np.array_equal(trace_pair_histogram(tab), want)


@pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (16, 2), (25, 2), (3, 6)])
def test_class_walk_is_the_prefix_of_the_full_walk(monkeypatch, walk_codes, q, n):
    monkeypatch.setattr(fastfield, "_BLOCK", 32)  # several blocks
    tab = FieldTable(_tower(q, n))
    blocks = list(tab._blocks(tab.M, tab.trace_rows()))
    words = np.concatenate([tab._join(parts) for parts, _ in blocks])
    traces = np.concatenate([traces for _, traces in blocks])
    codes = walk_codes(tab)  # the full walk's identity functionals
    assert np.array_equal(words, _packed_words(tab, codes[: tab.M]))
    assert np.array_equal(traces, tab.trace_codes_exp()[: tab.M])
    assert tab._lam0 == (codes[tab.M], _packed_words(tab, codes[tab.M : tab.M + 1])[0])


def _packed_words(tab, codes) -> np.ndarray:
    digits = gf.code_digits(tab.tower, np.asarray(codes, dtype=np.int64))
    return digits @ np.left_shift(1, tab.w * np.arange(tab.d, dtype=np.int64))


def _word_codes(tab, words) -> np.ndarray:
    digits = words[:, None] >> tab.w * np.arange(tab.d, dtype=np.int64) & (1 << tab.w) - 1
    return digits @ tab.p ** np.arange(tab.d, dtype=np.int64)


class TestClassWalkFaults:
    """Each corruption of the walk or of lam0 = gamma**M is refused by the
    checked stream, on the class walk and on the full walk alike."""

    @staticmethod
    def _refused(q, n, match, setup=lambda tab: None):
        for walk in _WALKS.values():
            tab = FieldTable(_tower(q, n))
            setup(tab)
            with pytest.raises(InvariantError, match=match):
                walk(tab)

    @staticmethod
    def _corrupt(monkeypatch, k, unit):
        """Set unit k of each walk's first block to the unit of code
        unit(tab, codes), codes those of the block's units."""
        real = FieldTable._blocks

        def blocks(self, length, rows):
            walk = real(self, length, rows)
            parts, values = next(walk)
            word = _packed_words(self, [unit(self, _word_codes(self, self._join(parts)))])
            for v, part in zip(parts, self._split(word)):
                v[k] = part[0]
            yield parts, values
            yield from walk

        monkeypatch.setattr(FieldTable, "_blocks", blocks)

    @staticmethod
    def _scaled(source):
        """2 times unit source; 2 is the code of a scalar other than 1 (a
        generator of F_4 when q = 4)."""

        def unit(tab, codes):
            tower = tab.tower
            x = tower.from_code(int(codes[source]))
            return tower.code(tower.mul(tower.embed_base(tower.base.from_code(2)), x))

        return unit

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (4, 5), (3, 6)])
    def test_scalar_multiple_of_another_entry(self, monkeypatch, q, n):
        self._corrupt(monkeypatch, 9, self._scaled(5))
        self._refused(q, n, "step chain at unit 9$")

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (4, 5), (3, 6)])
    def test_scalar_multiple_of_itself(self, monkeypatch, q, n):
        # unit 9 stays in its own F_q*-coset, so every coset is still met
        # once; only the step from unit 8 tells the walk from gamma**k
        self._corrupt(monkeypatch, 9, self._scaled(9))
        self._refused(q, n, "step chain at unit 9$")

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (2, 8)])
    def test_duplicated_entry(self, monkeypatch, q, n):
        self._corrupt(monkeypatch, 7, lambda tab, codes: int(codes[3]))
        self._refused(q, n, "step chain at unit 7$")

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (2, 8)])
    def test_zero_in_place_of_one(self, monkeypatch, q, n):
        # the walk starts from gamma**0 = 1, so zero in its place is refused
        # before any step is compared
        self._corrupt(monkeypatch, 0, lambda tab, codes: 0)
        self._refused(q, n, "step chain at unit 0$")

    @pytest.mark.parametrize("q,n", [(7, 4), (9, 3), (5, 3)])
    def test_lam0_that_does_not_close_the_walk(self, q, n):
        def scaled(tab):  # another element of F_q*
            lam0, base = tab.tower.pow_(tab._generator, tab.M), tab.tower.base
            code = tab.tower.code(tab.tower.embed_base(base.mul(lam0[0], base.from_code(2))))
            tab._lam0 = (code, _packed_words(tab, [code])[0])

        def outside(tab):  # gamma itself, outside F_q
            code = tab.tower.code(tab._generator)
            tab._lam0 = (code, _packed_words(tab, [code])[0])

        self._refused(q, n, "next step", scaled)
        self._refused(q, n, "next step", outside)

    @pytest.mark.parametrize("q,n", [(7, 4), (2, 8)])
    def test_lam0_outside_f_q(self, q, n):
        # gf's power of zero is zero, which lies outside F_q*
        def zero(tab):
            tab._generator = tab.tower.zero

        self._refused(q, n, r"lie in F_q\*$", zero)

    def test_lam0_of_lower_order(self):
        # beta = g**9 in F_{7^2}: N = 48, M = 8, and 9 = 1 mod 8, so the walk
        # of beta meets every coset and beta**8 = g**72 = -1 lies in F_7*,
        # but -1 has order 2, not 6
        def beta(tab):
            tab._generator = tab.tower.pow_(multiplicative_generator(tab.tower), 9)

        self._refused(7, 2, "generate", beta)

    def test_lam0_of_lower_order_in_three_parts(self):
        # beta = g**2 in F_{9^3}, whose words split into three parts: N = 728,
        # M = 91 and gcd(2, 91) = 1, so the walk of beta meets every coset,
        # but beta**91 = g**182 has order 4 in F_9*, not 8
        def beta(tab):
            assert len(tab._parts) == 3
            tab._generator = tab.tower.pow_(multiplicative_generator(tab.tower), 2)

        self._refused(9, 3, "generate", beta)

    @pytest.mark.parametrize(
        "q,n,e,ell",
        [
            (4, 2, 5, 5),  # N = 15, M = 5: beta = g**5 has order 3, beta**M = g**10
            (3, 3, 13, 13),  # N = 26, M = 13: beta = g**13 = beta**M = -1
            (7, 3, 19, 19),  # N = 342, M = 57: beta**3 = g**57 = beta**M, order 6
        ],
    )
    def test_generator_of_order_n_over_a_prime_of_m(self, q, n, e, ell):
        # beta = g**e has order N / l for a prime l | M with l not dividing
        # q - 1, so lam0 = beta**M still generates F_q*; the walk of beta
        # repeats its cosets, and unit M / l = beta**(M / l) lies in F_q*
        def beta(tab):
            assert tab.M % ell == 0 and (q - 1) % ell != 0
            tab._generator = tab.tower.pow_(multiplicative_generator(tab.tower), e)

        M = (q**n - 1) // (q - 1)
        self._refused(q, n, rf"unit M/{ell} = {M // ell} lies in F_q\*$", beta)

    def test_corrupted_table_of_a_later_block(self, monkeypatch):
        # the first block is right, and each later one is the image of the
        # one before under the table of gamma**C; with gamma's table in its
        # place, the second block repeats 15 units of the first
        monkeypatch.setattr(fastfield, "_BLOCK", 16)
        real = FieldTable._double

        def corrupt(self, length):
            words, _ = real(self, length)
            return words, [part.copy() for part in self._step]

        monkeypatch.setattr(FieldTable, "_double", corrupt)
        self._refused(7, 4, "step chain at unit 16$")


def test_histogram_streams_in_bounded_memory():
    # the class walk of F_{7^8} has 960800 units; the class counts keep one
    # trace byte per unit, and blocks of 2**14 units
    tower = _tower(7, 8)
    tracemalloc.start()
    try:
        FieldTable(tower).class_counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def test_class_walk_of_a_wide_base_field_stays_small(full_walk_histogram, trace_pair_histogram):
    # F_{243^2}: a word is two parts of one 15-bit coordinate each, and the
    # class walk reads no table wider than a part's 9363 packed slots
    tab = FieldTable(_tower(243, 2))
    assert len(tab._parts) == 2
    tab.trace_rows()  # the Frobenius matrix is not the class counts' cost
    tracemalloc.start()
    try:
        tab.class_counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert np.array_equal(trace_pair_histogram(tab), full_walk_histogram(243, 2))


# SHA-256 of the trace-pair histogram as little-endian int64, recorded before
# the class walk was streamed, for every tower the engine-set builds read;
# the histogram is now rebuilt from the class counts.
_HISTOGRAM_DIGESTS = {
    (2, 1): "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51",
    (2, 2): "01dcc266fb5789a610afc3835051d549320cff7f5aae613a36d8c5f92b1658aa",
    (2, 3): "87f4c44ac08723bdfdacc0dc08c5ad49ed94f0a0054848e0c7f4ebea4458a881",
    (3, 1): "9cf2445fe38d6c2e5270e14f694446e3d6cc0b8e86652fbde3589e96c60af15b",
    (3, 2): "e471190b43e476e94a9bbf98433334578ff11f5a4d5dafaa4f10327fd8d7696e",
    (3, 3): "f11dc460fc16f33a1cbaac41436af124c025d94541dbdad17bcaeb6461877c25",
    (3, 4): "05744941f2afa0cff4ce57e9915e9bf9961aef051c18b05544c4b3f98824aceb",
    (4, 1): "71eb1e960e0fbdd8e0be7e6a2e1ed265f68bebb479baee4f6997bb496388952c",
    (4, 2): "087b667c0990226af8b919b392a4d167e11b9e66d42bc88f055b9f358e91d823",
    (4, 3): "f66772cd927bdaac2d8e3e2ab61a218b2000e38c05811c58054f70f41f2d8480",
    (5, 1): "bb751ed4069dc2c4cc0075de96b122df2213c0540c1a904c402f15a5a861599f",
    (5, 2): "d8bfb192576378fcc2c563c17848ba616a27f244f71a5d5b724f581262e94b14",
    (5, 3): "d0a0a8fec330071e1b2547a484988e95255b6a964aab4951bfd79bec67e0d88c",
    (5, 4): "337c57cde751f1dd5561fd3b2ed6f13dac8e4eccc16f487e66efd49adf57ee42",
    (5, 5): "2c4d48c6594923b8a36e066ccf70945c8479615b2a8d800e460c4ef2e44ccedc",
    (5, 6): "5ca3ca3e27e537418a72dbbf96d3b0d7ad633ec264a33aa46ec27e4120f29a03",
    (7, 1): "2bc9d62c2a48648760b6904e0d612b998258c19e5301cc1994beeba92381bcfe",
    (7, 2): "9013fdd8ffb6d5bd87773d3124a8383c3c0a74d54b86b297ad59d58e54bd78dc",
    (7, 3): "abffd7e307848f6a8be8067959df31ee4da6bb3d4e41be09d4f14db55adbb767",
    (7, 4): "95940f94ded6630978b9516409d1e6bbd1f6709f84c1f5426fe90e8703ed14c1",
    (7, 5): "c18adade7fc724ca8f34007649fd97076573db150c74c650f4584cc48b72627c",
    (7, 6): "7bffb406f497ff45d3cb934f3066bb6980f8bc815bc8d214cbc221100d007c59",
    (7, 7): "c539bd7c4f383fddab7121a2c45ced20310c310401afde0b38fd4f5979ac7dd2",
    (7, 8): "bf1ba17c0ef3ab7156da0d4f802243e31601edecf768aad820abf825b569a212",
    (8, 1): "f850f53f33e17364929e4ec32c0756f5f0484f1e4ca8230fbc38301c0674e94e",
    (8, 2): "ac0631e2697ebe0027d4033593c05c280761cd3296a892946b322aa43679c1a6",
    (8, 3): "e5471d9651aa1286766bd5bbc79616c720cc5b66074aebfd1847aa4e0e697c71",
    (9, 1): "a4f03dc06c86c4a6600660ddc32c37e7a302c89e497a1dbd3e60821ad5467d62",
    (9, 2): "36b433feda5a4237dee65dd93c24cde3351195f983b6f214c7f9f66612406ed0",
    (9, 3): "b0caab4e2263c8a15e8af09bec9815c415b5fad2d6e92e9c7db797dc1efc4400",
    (9, 4): "89f211eb72f20929d0bd953850d21e4b3e56c7aa67c3cc6400c2835e9728d0cf",
    (16, 1): "69282690b68d6aa2d4aadf0416ae3577e6ce5dec7808e2a8b5bf8b69d70aa0a8",
    (16, 2): "e31b4eb86b326c5af7211798f6b660c76ff17920cc8fbf61dab47c9ae66bf505",
    (16, 3): "27775a031d4eb5ee651e9f7261a84d59fe1db1795cb16732bbd7dae9e009cce8",
}


@pytest.mark.parametrize("q,n", sorted(_HISTOGRAM_DIGESTS))
def test_histogram_is_pinned(trace_pair_histogram, q, n):
    hist = trace_pair_histogram(table_for(_tower(q, n)))
    assert hashlib.sha256(hist.astype("<i8").tobytes()).hexdigest() == _HISTOGRAM_DIGESTS[q, n]


# SHA-256 of (v, both), v as little-endian int64 followed by both as one
# more, recorded while the class counts were binned through a q**2 cell
# histogram: the towers where the stored trace widens past one byte and
# where that histogram was the peak.
_CLASS_COUNT_DIGESTS = {
    (81, 2): "bbbd2451ffaa6d5743bcec8c9c9c72685538f418fc3ec833d066f641e3c470c1",
    (256, 2): "e18b4d705e4c3a674bbfded6aefd2b0cebfd00e0a5aefe924fb1c5966c045cc0",
    (1024, 2): "7d98833a7ef5779b91f01f9dc4326611773c6d1c0d7bfcc2e1acd844d50b08e5",
    (2187, 2): "f38f522879940e83cf2c3295f2464f9e7e584e30b1ea25ee3b8d58215f345d93",
    (4096, 1): "22c3768eeb24becb676cdb0da88bebcd02baf603d32146c9f877ac8797e26603",
}


@pytest.mark.parametrize("q,n", sorted(_CLASS_COUNT_DIGESTS))
def test_class_counts_are_pinned(q, n):
    v, both = FieldTable(_tower(q, n)).class_counts
    data = v.astype("<i8").tobytes() + both.to_bytes(8, "little")
    assert hashlib.sha256(data).hexdigest() == _CLASS_COUNT_DIGESTS[q, n]


@pytest.mark.parametrize("q", ENGINE_FIELDS)
def test_engine_build_never_reads_the_full_walk(monkeypatch, q):
    def refuse(self, rows):
        raise AssertionError("the engine read the full walk")

    table_for.cache_clear()  # no table the engine reads may come in walked
    monkeypatch.setattr(FieldTable, "functionals_exp", refuse)
    engine = engine_for(q)
    assert engine.verified_depth == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_base_tables_match_gf(q):
    # the base field F_q's log tables against gf's definitional arithmetic
    field = gf.make_field(*prime_power_parts(q))
    logs = log_tables(field)
    exp, log, trace = logs.exp, logs.log, logs.trace
    assert sorted(exp.tolist()) == list(range(1, q))  # a bijection onto the units
    assert log[exp].tolist() == list(range(q - 1))
    assert log[0] == 2 * (q - 1)
    elems = field.element_list
    for a in elems:
        ca = field.code(a)
        assert trace[ca] == field.trace_to_prime(a)
        want = [field.code(field.mul(a, b)) for b in elems]
        assert logs.mul(ca, np.arange(q)).tolist() == want
        if not field.is_zero(a):
            la = int(log[ca])
            assert [int(exp[(la + int(log[cb])) % (q - 1)]) for cb in range(1, q)] == want[1:]
    assert not any(table.flags.writeable for table in logs)


@pytest.mark.parametrize("q", [4, 7, 9, 25, 27])
def test_n0_is_the_kloosterman_zero_count(q):
    # n0[e] = #{mu in F_q* : Tr(mu + e / mu) = 0}, counted over gf's arithmetic
    field = gf.make_field(*prime_power_parts(q))
    units = [mu for mu in field.element_list if not field.is_zero(mu)]
    want = [
        sum(field.trace_to_prime(field.add(mu, field.mul(e, field.inv(mu)))) == 0 for mu in units)
        for e in field.element_list
    ]
    assert log_tables(field).n0.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cyclic_correlation_is_the_double_loop(data):
    n = data.draw(st.integers(1, 40))
    entries = st.lists(st.integers(-(1 << 20), 1 << 20), min_size=n, max_size=n)
    x = np.array(data.draw(entries), dtype=np.int64)
    y = np.array(data.draw(entries), dtype=np.int64)
    want = [sum(int(x[i]) * int(y[(i + j) % n]) for i in range(n)) for j in range(n)]
    got = cyclic_correlation(x, y)
    assert got.dtype == np.int64 and got.tolist() == want


def test_log_tables_stay_small():
    # q entries per table: no q x q array is built for F_q's arithmetic
    field = gf.make_field(2, 10)
    gf.structure_constants(field)
    log_tables.cache_clear()
    tracemalloc.start()
    try:
        log_tables(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
