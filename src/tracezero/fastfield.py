"""Vectorised whole-field enumeration tables.

A FieldTable walks the multiplicative group of one tower field F_{q^n} in
generator order and exposes the walk as numpy arrays: entry k is the
positional base-p code of gamma**k.  Linear data (traces, multiplication by
a fixed constant) is then evaluated as F_p-linear maps, and inverses come
for free because (gamma**k)**-1 = gamma**(N-k).

The walk's state is the packed word: digit j of an element sits in bits
[w*j, w*j + w).  A word splits into parts, each a range of whole digits
taken with a shift and a mask and at most _PART_BITS = 16 bits wide (or one
digit, when a digit is wider), and an F_p-linear map is one table per part,
indexed by the packed part: A(x) is the sum of the parts' images.  Only a
table's valid slots, whose digits are all below p, are filled or ever
read.  For odd p, 2**(w-1) >= p, so two images add digitwise with no carry
between digits, and a handful of whole-word operations reduce every digit
mod p at once.  For p = 2 a digit is one bit and digits add by XOR, so a
packed word is its element code and nothing is reduced.  No walk makes
element codes: the walks and their check read packed parts and give
functional values.  A part table has at most _MAX_SLOTS = 2**24 slots, as
many as the default element cap admits units: only a one-digit part with
p > 2**24 would have more, and its tower is refused before any table is
made.

The walk itself is such a map, applied by doubling: words[L:2L] is the
image of words[0:L] under x -> gamma**L * x, and the table of gamma**(2L)
is the table of gamma**L with every valid entry mapped once more by
itself.  One walk routine streams gamma**k in blocks of _BLOCK = 2**14
units, so that a block's temporaries stay in a 2 MB L2: its first block is
the doubling walk, and each later block is the image of the one before
under the table of gamma**_BLOCK.  Per block, one read per part of a table
that maps x to (gamma**_BLOCK * x, F(x)), for F_p-linear functionals F,
gives both the next block and the values of F on each unit, so each unit
is split once.  The routine runs to two lengths:

* the full walk, all N units, in the pass of functionals_exp; the trace
  codes (trace_codes_exp), which the oracle's z_count and the q-exponent
  curve count read, are this pass over the trace rows (at q = 2, where
  M = N, they are the class walk's codes, walked once);
* the class walk, gamma**k for k < M = N / (q - 1), with the trace as its
  functional.  gamma**M lies in F_q*, so the class walk holds one point of
  every F_q*-coset of the units.  Its trace codes (class_trace_codes), one
  per coset, are read by the class counts and by the oracle's
  enumerations, whose conditions hold on whole cosets.

Both walks are one checked stream, so one argument proves both.  Per
block, each unit's image under the step x -> gamma * x is checked to be
the next unit, unit 0 to be one and unit M to be lam0 = gamma**M, which
lies in F_q* and generates it; and for each prime l | M, unit M / l is
checked to lie outside F_q*.  That gives gamma order N, so the full walk
meets each unit once and the class walk each coset once.

The class counts (how many cosets have each product Tr(x) * Tr(1/x))
need only the class walk: the trace is F_q-linear, so scaling x by lam in
F_q* moves (Tr(x), Tr(1/x)) to (lam * Tr(x), lam**-1 * Tr(1/x)).  The
class walk keeps one trace code per unit, and the class counts read their
logs in F_q off those codes; the walk's units themselves are never held
whole.  The curve counts read nothing else, so no engine build walks more
than (q**n - 1) / (q - 1) units of a tower.

F_q itself is held in log coordinates of a generator g (log_tables): exp
and log, the trace and the zero counts n0, q entries each, so that
a * b = g**(log a + log b).  The class counts, which bin sums of two
logs, and the curve counts read them; no q x q array is built for F_q.

Multiplication comes from the modulus: gf.structure_constants builds the
F_p matrices of multiplication by each basis element from the matrix of
multiplication by x, and the walk's step (the matrix of gamma) and the
generator search (the matrices of the candidates, raised to N / l) read
them; F_q's own trace in log_tables is the trace of each element's
multiplication matrix.  Two checks stay on gf's definitional arithmetic, so
every build still holds the matrices against gf.mul: a tower's trace is
the literal sum of the Frobenius conjugates, composed as linear maps
(with Phi the matrix of gf's Frobenius x -> x**q, built from gf's x**q
and its gf powers and kept on the table as frobenius_matrix, the trace
rows are those of sum_{j<n} Phi**j), and
lam0 = gamma**M is gf's power, computed once per table, which both walks
hold against their unit M.  No closed-form formula under test enters any
table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gf
from .errors import BudgetExceededError, InvariantError
from .gf import (
    ExtensionField,
    FieldSpec,
    code_digits,
    mul_by_matrices,
    structure_constants,
)
from .numtheory import prime_factors

_BLOCK = 1 << 14  # units per block: a block's temporaries stay in a 2 MB L2
_PART_BITS = 16  # a packed part indexes a table of at most 2**16 slots
_MAX_SLOTS = gf.DEFAULT_MAX_ELEMENTS  # a part table is no larger than the walk the cap admits
_FIRST_CANDIDATES = 4  # the generator search's first block; generators are common
_WORD_BITS = 63  # packed words are non-negative int64


def digit_width(p: int, d: int) -> int:
    """Bits per digit in a word that packs d digits mod p.

    For odd p, the least w with 2**(w-1) >= p: the sum of two digits then
    stays below 2**w, so packed words add digitwise with no carry between
    digits.  For p = 2, one bit: digits add by XOR, so no carry can arise,
    and the packed word of a code is the code itself.  Raises
    BudgetExceededError when the d digits need more than 63 bits.
    """
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    if d * w > _WORD_BITS:
        raise BudgetExceededError(
            f"{d} digits mod {p} need {d * w} bits; packed words hold {_WORD_BITS}"
        )
    return w


def _repeat(word: int, step: int, count: int) -> int:
    """word, word << step, ..., word << (step * (count - 1)), summed."""
    return word * (((1 << (step * count)) - 1) // ((1 << step) - 1))


def multiplicative_generator(tower: ExtensionField):
    """First element in canonical order that generates the unit group.

    a generates iff a**(N / l) != 1 for every prime l | N.  Candidates are
    tested by code in blocks, each twice the last: M_a, the matrix of
    b -> a * b from the structure constants, is raised to N / l by gf's
    square-and-multiply, and a is rejected when the power maps 1 to 1.
    Each prime is tried only on the candidates that passed the ones before.
    """
    N = tower.order - 1
    if N == 1:
        return tower.one
    p, D = tower.p, tower.r
    gf.check_power_bound(D, p)
    T = structure_constants(tower).astype(np.float64)
    exponents = [N // ell for ell in prime_factors(N)]
    one = np.eye(D)[0]  # the digits of 1
    start, rows = 1, _FIRST_CANDIDATES
    while start <= N:
        codes = np.arange(start, min(start + rows, N + 1), dtype=np.int64)
        M = gf._mod(mul_by_matrices(code_digits(tower, codes).astype(np.float64), T), p)
        for e in exponents:
            fixed = (gf._power(M, e, p)[:, :, 0] == one).all(axis=1)
            codes, M = codes[~fixed], M[~fixed]
        if codes.size:
            return tower.from_code(int(codes[0]))
        start += rows
        rows = min(2 * rows, max(1, gf._CELLS // (D * D)))
    raise InvariantError("unit group has no generator; field data corrupt")


class LogTables(NamedTuple):
    """F_q in log coordinates of a generator g: read-only tables of q entries.

    exp[i] is the code of g**i, i < q - 1, and log[a] the exponent of the
    unit of code a; log[0] = 2(q - 1), so a sum of two logs, which the dtype
    holds, tells how many are of zero.  trace[a] is Tr_{F_q/F_p}(a), and
    n0[e] = #{mu in F_q* : Tr(mu + e / mu) = 0}, a Kloosterman-type zero count.
    """

    exp: np.ndarray
    log: np.ndarray
    trace: np.ndarray
    n0: np.ndarray

    def mul(self, a, b) -> np.ndarray:
        """Codes of a * b, for codes a and b broadcast together."""
        a, b = np.asarray(a), np.asarray(b)
        product = self.exp[(self.log[a] + self.log[b]) % self.exp.size]
        return np.where((a == 0) | (b == 0), 0, product)


@lru_cache(maxsize=8)
def log_tables(field: FieldSpec) -> LogTables:
    """The LogTables of the field F_q, built once per field.

    The digits of g**i, g multiplicative_generator's, come from a doubling
    walk: g**(L + i) is g**i times G**L, G the matrix of multiplication by
    g.  The walk is checked to be a bijection onto the units.  Tr(a) is the
    trace of the matrix of multiplication by a.  With tau_i = Tr(g**i),
    n0(g**j) = #{i : tau_i = -tau_(j-i)}: row j of the sliding windows of
    -tau, reversed and doubled, is -tau_(j-i) over i, a view, compared
    with tau in blocks of rows, so the q**2 comparisons hold O(q) memory.
    """
    p, r, q = field.p, field.r, field.order
    n, L = q - 1, 1
    G = gf.mul_matrix(field, multiplicative_generator(field))
    digits = np.zeros((n, r), dtype=np.int64)
    digits[0, 0] = 1  # the digits of one
    while L < n:
        digits[L : 2 * L] = digits[: min(L, n - L)] @ G.T % p
        G, L = G @ G % p, 2 * L
    exp = (digits @ p ** np.arange(r)).astype(np.min_scalar_type(4 * n))
    log = np.full(q, 2 * n, dtype=exp.dtype)
    log[exp] = np.arange(n)
    if log[0] != 2 * n or (log[1:] == 2 * n).any():
        raise InvariantError("generator walk of F_q did not cover its units")
    tau = digits @ np.trace(structure_constants(field), axis1=1, axis2=2) % p  # Tr(g**i)
    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = tau
    narrow = np.min_scalar_type(p - 1)
    minus = (-tau % p)[-np.arange(n)].astype(narrow)  # -tau_(-i)
    tau = tau.astype(narrow)
    turns = sliding_window_view(np.concatenate([minus, minus]), n)[n:0:-1]
    n0 = np.full(q, q // p - 1)  # n0(0) = #{mu : Tr(mu) = 0}
    rows = max(1, _BLOCK // n)
    for a in range(0, n, rows):
        n0[exp[a : a + rows]] = np.count_nonzero(turns[a : a + rows] == tau, axis=1)
    tables = LogTables(exp, log, trace, n0)
    for table in tables:
        table.flags.writeable = False
    return tables


class FieldTable:
    """Enumeration tables for F_{q^n}, indexed by exponent of a generator.

    Nothing is walked at construction.  The trace codes, the full walk over
    the trace rows, and the class trace codes, the class walk's first M
    units over the same rows, are each built on first read; the class
    counts read the class trace codes.
    """

    def __init__(self, tower: ExtensionField):
        self.tower = tower
        self.p = tower.base.p
        self.d = tower.r
        self.w = digit_width(self.p, self.d)  # refuse before allocating anything
        self.N = tower.order - 1
        self.M = self.N // (tower.q - 1)  # one walk entry per F_q*-coset of the units

    # -- construction --------------------------------------------------------

    @cached_property
    def _generator(self):
        return multiplicative_generator(self.tower)

    @cached_property
    def _step(self) -> list[np.ndarray]:
        """Part tables of the walk's step x -> gamma * x."""
        return self._map_table(gf.mul_matrix(self.tower, self._generator))

    @cached_property
    def _lam0(self) -> tuple[int, int]:
        """(code, packed word) of lam0 = gamma**M, gf's power, which both
        walks hold against their unit M.  Raises unless lam0 lies in F_q*
        and generates it."""
        tower, q = self.tower, self.tower.q
        lam0 = tower.pow_(self._generator, self.M)
        code, base = tower.code(lam0), tower.base
        if not 0 < code < q:
            raise InvariantError("gamma**M does not lie in F_q*")
        if any(base.pow_(lam0[0], (q - 1) // ell) == base.one for ell in prime_factors(q - 1)):
            raise InvariantError("gamma**M does not generate F_q*")
        return code, sum(digit << (self.w * j) for j, digit in enumerate(tower.flat_digits(lam0)))

    def functionals_exp(self, rows) -> np.ndarray:
        """Evaluate F_p-linear functionals on gamma**k for every k < N.

        rows is a (k, d) array-like of digit-space functionals; the result
        holds, per exponent, the base-p code of the k values (row j gives
        digit j), in the smallest unsigned dtype that holds p**k - 1,
        read-only.  This is the full walk: the stream of _walk to length N,
        checked as the class walk is.
        """
        digit_width(self.p, len(rows))  # k values past one word are refused
        return self._collect(self.N, rows)

    def _collect(self, length: int, rows) -> np.ndarray:
        """The codes of the functionals rows on gamma**k for k < length,
        gathered from the blocks of _walk into one read-only array."""
        self._parts  # an oversized part table is refused before any array is made
        values = np.empty(length, dtype=np.min_scalar_type(self.p ** len(rows) - 1))
        s = 0
        for codes in self._walk(length, rows):
            values[s : s + codes.size] = codes
            s += codes.size
        values.flags.writeable = False
        return values

    def _double(self, length: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """(packed gamma**k for k < length, the part tables of gamma**L),
        L the least power of two not below length.

        words[L:2L] is the image of words[0:L] under x -> gamma**L * x, and
        the table of x -> gamma**(2L) * x is that of x -> gamma**L * x with
        every valid entry mapped once more by the same table.  A round
        takes both in one image: the words it maps, then every valid entry.
        The one caller asks for at most _BLOCK words.
        """
        words = np.empty(length, dtype=np.int64)
        words[0] = 1  # the packed word of one
        table, L = [part.copy() for part in self._step], 1
        slots = [slots for _, slots in self._part_slots]
        while L < length:
            head = min(L, length - L)
            entries = [words[:head]] + [part[at] for part, at in zip(table, slots)]
            images = self._image(table, self._split(np.concatenate(entries)))
            words[L : L + head] = images[:head]
            start = head
            for part, at in zip(table, slots):
                part[at] = images[start : start + at.size]
                start += at.size
            L *= 2
        return words, table

    def _blocks(self, length: int, rows):
        """gamma**k for k < length, in blocks: per block, the packed parts
        of its units and the codes of the functionals rows on them.

        rows is a (k, d) array-like over F_p, as for functionals_exp, whose
        k values fit one word (the callers refuse more).  The first block,
        min(_BLOCK, length) units, is the doubling walk, whose last table is
        that of gamma**_BLOCK (a power of two) when the walk is longer than
        a block.  When the d digits and the k values fit one word, the
        functionals' part tables, shifted past the d digits, are added to
        that table, so one image of a block's parts holds, in its low d
        digits, the next block and, in the k digits above, the values on
        each unit; otherwise the functionals' tables are read as a second
        image of the same parts.  Each unit is thus split once.  The image
        of a block under the table of gamma**_BLOCK is the next block, so no
        table is composed after the first block.
        """
        k, shift = len(rows), self.d * self.w
        words, table = self._double(min(_BLOCK, length))
        values = self._map_table(rows)
        if shift + k * self.w <= _WORD_BITS:
            for part, v in zip(table, values):
                part += v << shift
            values = None
        parts, done = self._split(words), 0
        while True:
            image = self._image(table, parts)
            codes = image >> shift if values is None else self._image(values, parts)
            yield parts, self._unpack_codes(codes, k)
            done += image.size
            if done == length:
                return
            parts = self._split(image[: length - done])

    def _walk(self, length: int, rows):
        """The codes of the functionals rows on gamma**k, k < length, one
        array per block of consecutive units, each block checked before it
        is given; length is M (the class walk) or N (the full walk).

        Raises unless unit 0 is one and the walk's step x -> gamma * x maps
        each unit to the next (the last of a block to the first of the
        next), so that unit k is gamma**k; unless unit M, the step from unit
        M - 1, is lam0, which lies in F_q* and generates it; and unless, for
        each prime l | M, unit M / l has a digit at or above r, so lies
        outside F_q*.  Then gamma has order N: for l | q - 1,
        gamma**(N / l) = lam0**((q - 1) / l) != 1, and for l | M,
        gamma**(N / l) = 1 only if gamma**(M / l) lies in F_q*.  So the N
        units of the full walk are the units, each once, the M units of the
        class walk meet each F_q*-coset once, and gamma**-k is
        lam0**-1 * gamma**(M - k).
        """
        M, (_, lam0) = self.M, self._lam0
        top = self.w * self.tower.base.r  # digits from r on: the unit is outside F_q
        probes = {M // ell: ell for ell in prime_factors(M)}
        s, step = 0, 1  # the packed word of one
        for parts, values in self._blocks(length, rows):
            e = s + values.size
            words = self._join(parts)
            image = self._image(self._step, parts)
            bad = np.flatnonzero(words[1:] != image[:-1]) + 1
            if words[0] != step or bad.size:
                k = 0 if words[0] != step else bad[0]
                raise InvariantError(f"walk leaves the step chain at unit {s + k}")
            for k, ell in probes.items():
                if s <= k < e and not words[k - s] >> top:
                    raise InvariantError(f"walk unit M/{ell} = {k} lies in F_q*")
            if s < M <= e and image[M - 1 - s] != lam0:
                raise InvariantError("gamma**M is not the walk's next step after unit M - 1")
            yield values
            s, step = e, int(image[-1])

    # -- packed parts ----------------------------------------------------------

    @cached_property
    def _parts(self) -> tuple[tuple[int, int], ...]:
        """(first digit, digits) of each packed part of a word.

        A part holds c digits, c the most whose packed slots fit _PART_BITS
        bits, at least one.  Past r digits (one F_q-coordinate), c is
        lowered until its p**c valid slots are within M / (q - 1): the
        doubling walk maps every valid slot of every part table once per
        round, so a round's table work per part stays below the class
        walk's M units.  The d digits are shared out evenly over the parts.
        Raises BudgetExceededError, before any table is made, when the
        widest part's table would have more than _MAX_SLOTS slots, which
        only a one-digit part with p > _MAX_SLOTS can.
        """
        p, d, r, q = self.p, self.d, self.tower.base.r, self.tower.q
        c = max(1, _PART_BITS // self.w)
        while c > r and (q - 1) * p**c > self.M:
            c -= 1
        k = -(-d // c)
        sizes = [d // k + (j < d % k) for j in range(k)]
        slots = (p - 1) * _repeat(1, self.w, sizes[0]) + 1  # the first part is the widest
        if slots > _MAX_SLOTS:
            raise BudgetExceededError(
                f"F_{q}^{self.tower.n}: a part table has {slots} slots; the bound is {_MAX_SLOTS}"
            )
        return tuple((sum(sizes[:j]), c) for j, c in enumerate(sizes))

    @cached_property
    def _part_slots(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per part, (the digits of every valid value, its packed slot);
        the last slot, all digits p - 1, is the largest."""
        p, w, of_size = self.p, self.w, {}
        for _, c in self._parts:
            if c not in of_size:  # parts differ in size by one digit at most
                place = np.arange(c, dtype=np.int64)
                digits = np.arange(p**c, dtype=np.int64)[:, None] // p**place % p
                of_size[c] = digits, digits @ np.left_shift(1, w * place)
        return [of_size[c] for _, c in self._parts]

    def _split(self, words: np.ndarray) -> list[np.ndarray]:
        """The packed parts of words: part j, digits [a, a + c), read by a
        shift and a mask (bits above the d digits are dropped)."""
        w = self.w
        return [(words >> (w * a) if a else words) & ((1 << (w * c)) - 1) for a, c in self._parts]

    def _join(self, parts: list[np.ndarray]) -> np.ndarray:
        """The packed words whose parts are given, the parts joined by
        shifts: the inverse of _split on words of d digits."""
        words = parts[0].copy()
        for (a, _), v in zip(self._parts[1:], parts[1:]):
            words |= v << (self.w * a)
        return words

    def _map_table(self, matrix) -> list[np.ndarray]:
        """Part tables of an F_p-linear map given by a (k, d) matrix: per
        part, the packed image of every valid slot, digit j of the image in
        bits [w*j, w*j + w); the other slots are never read.  Built in
        blocks of rows whose products hold at most _BLOCK cells."""
        A = np.asarray(matrix, dtype=np.float64)  # exact: sums stay below d * p**2
        places = np.left_shift(1, self.w * np.arange(len(A), dtype=np.int64))
        rows, tables = max(1, _BLOCK // len(A)), []
        for (a, c), (digits, slots) in zip(self._parts, self._part_slots):
            table = np.zeros(int(slots[-1]) + 1, dtype=np.int64)
            for s in range(0, slots.size, rows):
                image = gf._mod(digits[s : s + rows] @ A[:, a : a + c].T, self.p)
                table[slots[s : s + rows]] = image.astype(np.int64) @ places
            tables.append(table)
        return tables

    def _image(self, tables: list[np.ndarray], parts: list[np.ndarray]) -> np.ndarray:
        """Packed images of the words split into parts, under the map whose
        part tables are given: the images of the parts, summed."""
        words = tables[0][parts[0]]
        for table, v in zip(tables[1:], parts[1:]):
            if self.p == 2:
                words ^= table[v]
            else:
                words += table[v]
                self._reduce(words)
        return words

    # -- generic access -------------------------------------------------------

    def _reduce(self, words: np.ndarray):
        """Reduce mod p, in place, every digit of words below 2p (odd p).

        Adding 2**(w-1) - p to every digit sets bit w-1 exactly in the
        digits that reached p, so one subtraction reduces them all.
        """
        w, (add, top) = self.w, self._reduce_masks
        over = words + add
        over &= top
        over >>= w - 1
        over *= self.p
        words -= over

    @cached_property
    def _reduce_masks(self) -> tuple[int, int]:
        """2**(w-1) - p in every digit, and bit w-1 of every digit."""
        ones = _repeat(1, self.w, _WORD_BITS // self.w)
        return ((1 << (self.w - 1)) - self.p) * ones, (1 << (self.w - 1)) * ones

    def _unpack_codes(self, words: np.ndarray, k: int) -> np.ndarray:
        """Base-p codes of packed words of k digits; overwrites words.

        For p = 2 a packed word is its code and is returned as it is.
        Otherwise Horner's rule in log2(k) rounds: each round joins
        neighbouring fields, lo + p**m * hi for fields of m digits, into
        fields of twice the width.  A field of 2m digits holds a value
        below p**(2m), which fits its 2m*w bits because p <= 2**(w-1).
        """
        p, width, m = self.p, self.w, 1
        if p == 2:
            return words
        high = np.empty_like(words)
        while m < k:
            fields = _repeat((1 << width) - 1, 2 * width, -(-k // (2 * m)))
            np.right_shift(words, width, out=high)
            high &= fields
            high *= p**m
            words &= fields
            words += high
            width, m = 2 * width, 2 * m
        return words

    @staticmethod
    def reversed_exp(arr: np.ndarray) -> np.ndarray:
        """Reindex k -> (N - k) mod N, i.e. the values on inverses."""
        return np.concatenate([arr[:1], arr[:0:-1]])

    # -- traces ---------------------------------------------------------------

    @cached_property
    def frobenius_matrix(self) -> np.ndarray:
        """Phi, the F_p matrix of gf's Frobenius x -> x**q on the tower;
        built once per table, read-only.

        Basis element t*r + k is e_k * x**t, e_k a basis element of F_q,
        and (e_k * x**t)**q = e_k * (x**q)**t since e_k**q = e_k.  So one
        gf Frobenius, of x, and n - 2 gf products give the powers of x**q,
        and each column is a power scaled coordinatewise by e_k in F_q.
        """
        tower, base = self.tower, self.tower.base
        powers = [tower.one]
        if tower.n > 1:
            xq = tower.frobenius(tower.basis_element(base.r))  # x**q
            powers.append(xq)
            while len(powers) < tower.n:
                powers.append(tower.mul(powers[-1], xq))
        basis = [base.basis_element(k) for k in range(base.r)]
        cols = [
            tower.flat_digits(tuple(base.mul(e, c) for c in y)) for y in powers for e in basis
        ]
        phi = np.array(cols, dtype=np.int64).T
        phi.flags.writeable = False
        return phi

    def trace_rows(self) -> np.ndarray:
        """Digit-space functionals giving the base-field digits of the trace.

        The trace x + x**q + ... + x**(q**(n-1)) is the map sum_{j<n} Phi**j,
        Phi = frobenius_matrix, summed by n - 1 products of d x d int64
        matrices; every entry stays below d * p**2 < 2**63.  Its first r
        rows are the base-field digits; the rest must vanish, as in gf's
        trace_to_base.  Built once per table; read-only.
        """
        return self._trace_rows

    @cached_property
    def _trace_rows(self) -> np.ndarray:
        tower, p, d = self.tower, self.p, self.d
        total = np.eye(d, dtype=np.int64)
        if tower.n > 1:
            phi = self.frobenius_matrix
            power = total
            for _ in range(tower.n - 1):
                power = power @ phi % p
                total += power
            total %= p
        r = tower.base.r
        if total[r:].any():
            raise InvariantError("trace left the base field")
        rows = total[:r]
        rows.flags.writeable = False
        return rows

    def trace_codes_exp(self) -> np.ndarray:
        """Positional code of Tr(gamma**k) in the base field, per k < N."""
        return self._trace_codes

    @cached_property
    def _trace_codes(self) -> np.ndarray:
        if self.M == self.N:  # q = 2: the class walk is the full walk
            return self.class_trace_codes
        return self.functionals_exp(self.trace_rows())

    @cached_property
    def class_trace_codes(self) -> np.ndarray:
        """Code of Tr(gamma**k) in the base field, per k < M: the class
        walk, the checked stream of _walk to length M, one unit per
        F_q*-coset.  Built on first read; read-only.  The class counts and
        the oracle's enumerations read it, so each table walks its classes
        once.
        """
        # the trace codes, one per unit, are held whole: 2**31 units and up
        # (2 GiB at one byte each) are refused before any array is made
        if self.M >= 1 << 31:
            raise BudgetExceededError(
                f"the class walk of {self.M} units is past 2**31; its trace codes are held whole"
            )
        return self._collect(self.M, self.trace_rows())

    @cached_property
    def class_counts(self) -> tuple[np.ndarray, int]:
        """(v, both): v[u] units of the class walk, one per F_q*-coset, with
        Tr(x) * Tr(1/x) of code u, a read-only int64 array, and both of
        them (counted in v[0] too) with both traces zero.

        The logs l_k of t_k = Tr(gamma**k), k < M, are read off
        class_trace_codes.  Unit k > 0 has the product t_k * t_(M-k) / lam0,
        and l_k + l_(M-k), a block plus a reversed slice, counts in
        4(q - 1) + 1 cells: below 2(q - 1), log lam0 plus the product's log
        mod q - 1, if neither trace is zero; 2(q - 1) + l if one is;
        4(q - 1) if both.  Unit 0 has t_0**2.
        """
        q, M = self.tower.q, self.M
        codes = self.class_trace_codes  # a walk too long to hold is refused first
        logs, n = log_tables(self.tower.base), q - 1
        t = logs.log[codes]
        t0, shift = int(t[0]), int(logs.log[self._lam0[0]])
        cells = np.zeros(4 * n + 1, dtype=np.int64)
        cells[4 * n if t0 == 2 * n else (2 * t0 + shift) % n] = 1  # unit 0: t_0**2
        for s in range(1, M, _BLOCK):
            e = min(s + _BLOCK, M)
            cells += np.bincount(t[s:e] + t[M - e + 1 : M - s + 1][::-1], minlength=cells.size)
        v = np.zeros(q, dtype=np.int64)
        v[logs.exp] = np.roll(cells[: 2 * n].reshape(2, n).sum(axis=0), -shift)
        v[0] = cells[2 * n :].sum()
        v.flags.writeable = False
        return v, int(cells[-1])


@lru_cache(maxsize=8)
def table_for(tower: ExtensionField) -> FieldTable:
    """Shared per-tower table cache; entries are immutable once built.

    Eight entries hold the engine's towers up to genus + 2 = 8 at p = 7,
    so oracle.verify_all up to n_max = 4 walks no tower twice: its loop
    reads the same towers, and walks each alternative-modulus tower in a
    table of its own.
    """
    return FieldTable(tower)
